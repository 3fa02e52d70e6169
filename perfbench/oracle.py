"""Reference computations the benchmark checks outputs against.

Nothing here imports the library.  Elements are (numerator tuple, positive
denominator) pairs of plain ints, little-endian like the library's JSON;
tau residues are recomputed from the spec JSON as the README defines it
(SHA-256 stream digits, Hensel roots, constants, overrides).
"""

from __future__ import annotations

import functools
import hashlib
import math

# -- Q[x] elements as (num, den) --------------------------------------------


def normal(num, den):
    """Lowest-terms form with den > 0 and no trailing zero coefficients."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return (), 1
    if den < 0:
        num, den = [-c for c in num], -den
    g = den
    for c in num:
        g = math.gcd(g, c)
    return tuple(c // g for c in num), den // g


def of(e):
    """A library element (anything with .num and .den) as (num, den)."""
    return tuple(e.num), e.den


def from_json(data):
    return normal(data["num"], data["den"])


def add(x, y):
    (xn, xd), (yn, yd) = x, y
    n = max(len(xn), len(yn))
    xs = list(xn) + [0] * (n - len(xn))
    ys = list(yn) + [0] * (n - len(yn))
    return normal([a * yd + b * xd for a, b in zip(xs, ys)], xd * yd)


def neg(x):
    return tuple(-c for c in x[0]), x[1]


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    (xn, xd), (yn, yd) = x, y
    if not xn or not yn:
        return (), 1
    out = [0] * (len(xn) + len(yn) - 1)
    for i, a in enumerate(xn):
        for j, b in enumerate(yn):
            out[i + j] += a * b
    return normal(out, xd * yd)


def sign(x):
    """Sign in the discrete order: the sign of the leading coefficient."""
    num = normal(*x)[0]
    return (num[-1] > 0) - (num[-1] < 0) if num else 0


def absval(x):
    return neg(x) if sign(x) < 0 else x


def phi(q, r):
    """The five-component termination norm of the pair (q, r)."""
    q, r = normal(*q), normal(*r)
    if not r[0]:
        return (0, 0, 0, 0, 0)
    delta = 1 if sign(sub(absval(r), absval(q))) >= 0 else 0
    denom = q[1] * r[1] // math.gcd(q[1], r[1])
    scaled = abs(q[0][-1]) * (denom // q[1]) if q[0] else 0
    return (delta, len(q[0]), len(r[0]) - 1, denom, scaled)


# -- integers ------------------------------------------------------------------


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def euclid_remainders(a, b):
    """Remainders of ordinary integer division from (a, b), ending in 0."""
    out = []
    while b:
        a, b = b, a % b
        out.append(b)
    return out


def chain_remainders(a, b, quotients):
    out = []
    prev, cur = a, b
    for q in quotients:
        prev, cur = cur, prev - q * cur
        out.append(cur)
    return out


def rewrite_measure(quotients):
    k = len(quotients)
    n = max((k - j for j in range(1, k) if quotients[j] < 0), default=0)
    return n, k


@functools.lru_cache(maxsize=None)
def primes_upto(limit):
    """Primes up to limit by trial division (the library sieves)."""
    return tuple(
        p for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))
    )


# -- tau residues from spec JSON ---------------------------------------------------


def stream_digit(seed, p, i):
    key = f"{seed}:{p}:{i}".encode()
    return int.from_bytes(hashlib.sha256(key).digest(), "big") % p


def eval_mod(coeffs, x, mod):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _sqrt_mod(a, p):
    """Square roots of a mod an odd prime p (Tonelli-Shanks), or ()."""
    a %= p
    if a == 0:
        return (0,)
    if pow(a, (p - 1) // 2, p) != 1:
        return ()
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        bb = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, bb * bb % p, t * bb * bb % p, r * bb % p
    return (r, p - r)


def smallest_simple_root(f, p):
    """Least r in [0, p) with f(r) = 0 and f'(r) != 0 mod p, or None."""
    deriv = [i * c for i, c in enumerate(f)][1:]
    if len(f) == 3 and p > 2 and f[2] % p:
        c0, c1, c2 = f
        inv2a = pow(2 * c2, -1, p)
        candidates = sorted((s - c1) * inv2a % p for s in _sqrt_mod(c1 * c1 - 4 * c2 * c0, p))
    else:
        candidates = range(p)
    for r in candidates:
        if eval_mod(f, r, p) == 0 and eval_mod(deriv, r, p) != 0:
            return r
    return None


def hensel_root(f, p, r, k):
    deriv = [i * c for i, c in enumerate(f)][1:]
    x = r
    for j in range(2, k + 1):
        mod = p**j
        x = (x - eval_mod(f, x, mod) * pow(eval_mod(deriv, x, mod), -1, mod)) % mod
    return x


def residue(spec, p, k):
    """tau_p mod p^k for a spec given as its JSON object."""
    kind = spec["kind"]
    if k == 0:
        return 0
    if kind == "constant":
        return spec["value"] % p**k
    if kind == "zero":
        return 0
    if kind == "stream":
        return sum(stream_digit(spec["seed"], p, i) * p**i for i in range(k))
    if kind == "log_generic":
        first = math.floor(math.log(p))
        return first + sum(stream_digit(spec["seed"], p, i) * p**i for i in range(1, k))
    if kind == "hensel":
        r = smallest_simple_root(spec["poly"], p)
        if r is None:
            return residue(spec["fallback"], p, k)
        return hensel_root(spec["poly"], p, r, k)
    if kind == "piecewise":
        return residue(spec["overrides"].get(str(p), spec["default"]), p, k)
    raise ValueError(f"no reference for tau kind {kind!r}")


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _divides(f, h):
    # f | h in Q[x]: the pseudo-remainder over the integers must vanish
    f, rem = _strip(f), _strip(h)
    df = len(f) - 1
    while len(rem) - 1 >= df:
        c, shift = rem[-1], len(rem) - 1 - df
        rem = [x * f[-1] for x in rem]
        for j, fc in enumerate(f):
            rem[shift + j] -= c * fc
        rem = _strip(rem)
    return not rem


def exact_root(spec, h, p):
    """Whether the spec certifies h(tau_p) = 0 at every precision."""
    kind = spec["kind"]
    if kind == "constant":
        return sum(c * spec["value"] ** i for i, c in enumerate(h)) == 0
    if kind == "zero":
        return not h or h[0] == 0
    if kind in ("stream", "log_generic"):
        return False
    if kind == "hensel":
        if smallest_simple_root(spec["poly"], p) is None:
            return exact_root(spec["fallback"], h, p)
        return _divides(spec["poly"], h)
    if kind == "piecewise":
        return exact_root(spec["overrides"].get(str(p), spec["default"]), h, p)
    raise ValueError(f"no reference for tau kind {kind!r}")


def scan(spec, h, p_max, k_max):
    """The hits a residue-zero scan must report: (p, depth, saturated, exact)."""
    hits = []
    for p in primes_upto(p_max):
        val = eval_mod(h, residue(spec, p, k_max), p**k_max)
        if val == 0:
            depth = k_max
        else:
            depth = 0
            while val % p == 0:
                val, depth = val // p, depth + 1
        if depth:
            hits.append((p, depth, depth == k_max, exact_root(spec, h, p)))
    return hits
