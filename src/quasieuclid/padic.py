"""Truncated p-adic arithmetic behind the ring's denominator conditions.

Every denominator test in the ring boils down to a question of the form
"is h(t) divisible by p^k?" for one fixed p-adic integer t per prime p.
This module provides those residues, tau_p mod p^k, for several effective
choices of tau (integer constants, pseudorandom digit streams, Hensel-lifted
algebraic roots, and splits by prime or by class mod m), with the supporting
modular toolkit: polynomial evaluation mod p^k, Hensel lifting, and Chinese
remaindering.

TauSpec.eval_mod(h, n), the one answer to "what is h(tau) mod n?", is the
Chinese remainder of TauSpec._parts(h, n): coprime parts of n with their
residues of h(tau).  Each kind splits n its own way: the prime powers of
factorize(n) in general, n whole for a constant tau (zero too), and for a
piecewise spec the powers of its override primes, which need no factoring,
then its default's parts of the rest.  Membership, the divmod correction,
integer_mod and a non-member's witness all read these parts.  A prime
power's residue is TauSpec._eval_at(h, p, k), h(tau_p) mod p^k: a scan's
depth at a hit and poly_eval_mod read the same residue as _parts.  The
exponent of p in an integer is always _valuation's.  Inside the library
residues are plain ints from TauSpec._tau, or for a scan's first digit
from _residue, which trust their (prime, precision); the public query,
poly_eval_mod and hensel_lift check p and k with _check_prime_power and
build one ResidueClass, whose own check is the same function.

factorize trial-divides, splits the rest by gcds with Fibonacci numbers,
then by Brent's rho, and raises FactorBudgetExceeded (a BudgetExceeded,
so a ValueError) past RHO_BUDGET rho iterations.  is_prime is exact below
3.3e24 and BPSW-probable above; factorize trusts it on every cofactor.

Residues are memoized in two bounded lru_caches shared by every spec:
TauSpec._tau by (spec, p, k) and HenselTau._simple_root by (spec, p).  A
spec implements the uncached _residue, called with k >= 1; a composite
spec returns the _residue of the spec it picks, so each residue is stored
once, under the spec the caller asked for, but for the rest of n whose
parts a piecewise spec takes from its default.  A scan reads each prime
once, so it takes tau_p mod p straight from _residue and stores only the
deep residues of the hits its spec does not certify exact: other callers'
entries stay.  A key holds its spec alive and specs hash by identity, so
an entry never answers for a later spec.  Values are deterministic in
their key and lru_cache is thread-safe, so concurrent readers may share a
spec.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .poly import RingElement, _json, qdiv


# --------------------------------------------------------------------------
# Small integer number theory.

# The first thirteen primes: twelve bases are exact only below
# psi_12 = 318665857834031151167461 (Sorenson-Webster 2017), which is a
# strong pseudoprime to all of 2..37; base 41 extends that to psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41, exact below 3.3e24; above that a
    strong Lucas test follows, so the answer is BPSW-probable (Baillie-PSW:
    no composite is known to pass both)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 1849:  # 43^2: a composite below it has a prime factor <= 41
        return True
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 2 with Selfridge's
    method A parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1,
    P = 1, Q = (1 - D)/4."""
    r = math.isqrt(n)
    if r * r == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    # U_d and V_d by binary doubling from U_1 = 1, V_1 = P = 1; halving
    # an odd value mod odd n adds n first
    inv2 = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * inv2 % n, (D * U + V) * inv2 % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def primes_upto(limit: int) -> list[int]:
    """All primes p <= limit, by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((limit - i * i) // i + 1)
    return list(itertools.compress(range(limit + 1), sieve))


class BudgetExceeded(ValueError):
    """A request past one of the library's documented work limits."""


class FactorBudgetExceeded(BudgetExceeded):
    """factorize spent RHO_BUDGET rho iterations without a full factorization."""


# factorize trial-divides by the primes below _TRIAL_BOUND, splits a
# composite cofactor by gcds with the Fibonacci numbers F_j below it, then
# splits each part with Pollard's rho in Brent's variant, which may take at
# most RHO_BUDGET iterations of x -> x^2 + c mod n per factorize call, all
# parts together (about 2 s for a 120-bit n under CPython 3.11 on a 2-vCPU
# x86-64 host).  Rho finds a prime factor p after a small multiple of
# sqrt(p) iterations, so within one part every prime factor but the largest
# should stay below about 10^12.  The adversary's chain denominators are
# products of F_j (j <= 2k + 3) and a few other primes, so with the split
# degree_retention_check passes every k <= 75 under stream(42) with
# b = 2x^2+x+3 and every k <= 95 under log_generic(7) with b = x (rho
# alone: 51 and 42).  The first failures, k = 76 and 96, each meet two
# primes of no F_j, both past 10^12.
_TRIAL_BOUND = 1000
_TRIAL_PRIMES = tuple(primes_upto(_TRIAL_BOUND))
RHO_BUDGET = 2**23
_RHO_BATCH = 128  # iterations per gcd


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...), p ascending.

    Raises FactorBudgetExceeded when rho runs out of its budget."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            out[p], n = _valuation(n, p)
    if n >= _TRIAL_BOUND**2 and not is_prime(n):
        budget = RHO_BUDGET
        for part in _fibonacci_parts(n):
            budget = _split(part, 1, out, budget)
    elif n > 1:
        out[n] = 1  # no prime factor below its square root, or a prime
    return tuple(sorted(out.items()))


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(v, n // p**v) for the exponent v of the prime p in n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _fibonacci_parts(n: int) -> list[int]:
    """Parts > 1 with product n: for each j, the part of n on the primes
    that divide F_j <= n and no earlier Fibonacci number, then the rest.

    gcd(F_i, F_j) = F_gcd(i,j) (Lucas, 1878), so once the primes of every
    earlier F_i are out, gcd(F_j, rest) holds only those of F_j itself.
    One gcd with the product of the F_j mod n first tells whether any prime
    of n divides one; when none does, the result is [n] at once."""
    q, a, b = 1, 1, 2
    while b <= n:
        q = q * b % n
        a, b = b, a + b
    if math.gcd(q, n) == 1:
        return [n]
    parts, rest, a, b = [], n, 1, 2
    while b <= n and rest > 1:
        g = math.gcd(rest, b)
        if g > 1:
            part = 1
            while g > 1:  # the full powers of g's primes
                rest //= g
                part *= g
                g = math.gcd(rest, g)
            parts.append(part)
        a, b = b, a + b
    return parts + [rest] if rest > 1 else parts


def _split(n: int, mult: int, out: dict[int, int], budget: int) -> int:
    """Add the factorization of n**mult to out, for n > 1 with no prime
    factor below _TRIAL_BOUND; returns the rho budget left."""
    while not is_prime(n):
        r = math.isqrt(n)
        if r * r == n:
            n, mult = r, 2 * mult
            continue
        f, budget = _brent_rho(n, budget)
        budget = _split(f, mult, out, budget)
        n //= f
    out[n] = out.get(n, 0) + mult
    return budget


def _brent_rho(n: int, budget: int) -> tuple[int, int]:
    """A factor 1 < f < n of the composite non-square n, and the budget
    left.  Pollard's rho (BIT 15, 1975) with Brent's cycle finding (BIT 20,
    1980) on x -> x^2 + c mod n, one gcd per _RHO_BATCH iterations; a cycle
    that closes on n as a whole is retried with the next c."""
    for c in itertools.count(1):
        x = y = ys = 2
        q = g = r = 1
        while g == 1:
            x = y
            budget = _spend(budget, r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(_RHO_BATCH, r - k)
                budget = _spend(budget, m, n)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, budget


def _spend(budget: int, steps: int, n: int) -> int:
    if steps > budget:
        raise FactorBudgetExceeded(
            f"no factor of the composite {n} found within {RHO_BUDGET} rho iterations"
        )
    return budget - steps


def crt_combine(parts: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Solve simultaneous congruences given as (modulus, residue) pairs.

    Returns (value, product) with 0 <= value < product, value congruent to
    every residue.  Moduli must be pairwise coprime; an empty input yields
    (0, 1).
    """
    value, modulus = 0, 1
    for m, r in parts:
        if m <= 0:
            raise ValueError(f"modulus must be positive, got {m}")
        if modulus == 1:
            value, modulus = r % m, m
        elif math.gcd(m, modulus) != 1:
            raise ValueError("moduli are not pairwise coprime")
        else:
            value, modulus = value + modulus * ((r - value) * pow(modulus, -1, m) % m), modulus * m
    return value, modulus


def _eval_int(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_mod(coeffs: Sequence[int], x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _derivative(coeffs: Sequence[int]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(coeffs) if i > 0)


# --------------------------------------------------------------------------
# Polynomials over Z/pZ, p prime: coefficient lists, constant term first,
# with a nonzero top coefficient once normalized ([] is zero).


def _monic_mod(f: Sequence[int], p: int) -> list[int]:
    """f mod p divided by its leading coefficient; [] when p divides f."""
    g = [c % p for c in f]
    while g and not g[-1]:
        g.pop()
    if g and g[-1] != 1:
        inv = pow(g[-1], -1, p)
        g = [c * inv % p for c in g]
    return g


def _divmod_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic m over Z/pZ; the entries of
    a may be any integers."""
    rem = list(a)
    dm = len(m) - 1
    quo = [0] * (len(rem) - dm)  # [] when len(rem) <= dm
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i] % p
        if c:
            quo[i - dm] = c
            rem[i - dm : i] = [r - c * b for r, b in zip(rem[i - dm : i], m)]
    rem = [c % p for c in rem[:dm]]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """The monic gcd of a and b over Z/pZ, by Euclid."""
    a, b = _monic_mod(a, p), _monic_mod(b, p)
    while len(b) > 1:
        a, b = b, _monic_mod(_divmod_mod(a, b, p)[1], p)
    return b or a  # a nonzero constant b means the gcd is 1


def _pow_shifted_mod(a: int, e: int, m: Sequence[int], p: int) -> list[int]:
    """(x + a)^e mod the monic m of degree d >= 1 over Z/pZ as d coefficients,
    the top ones possibly zero: left to right by square-and-multiply, with
    one reduction per bit of e."""
    d = len(m) - 1
    top = [-c for c in m[:d]]  # x^d = top(x) mod m
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * d)
        for i, c in enumerate(r):
            if c:
                for j, b in enumerate(r, i):
                    sq[j] += c * b
        if bit == "1":
            sq = [a * c + b for c, b in zip(sq, [0] + sq)]
        for i in range(2 * d - 1, d - 1, -1):
            c = sq[i] % p
            if c:
                for j, b in enumerate(top, i - d):
                    sq[j] += c * b
        r = [c % p for c in sq[:d]]
    return r


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod the odd prime p, or None when a is not a
    square mod p.

    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.5.1): with p - 1 = 2^s q, q odd, and z the smallest
    non-residue, y = z^q generates the 2-Sylow subgroup.  Starting from
    x = a^((q+1)/2) and b = a^q, so that x^2 = a·b, each pass multiplies x
    by a power of y that lowers the order of b, until b = 1.  At most s
    passes of at most s squarings each, plus O(log p) for the powers;
    p = 3 mod 4 needs the one power a^((p+1)/4).  Otherwise Euler's
    criterion, a^((p-1)/2) = 1, rejects a non-residue with one power before
    z is sought, so the passes run only for a square, whose b always has
    order below 2^s."""
    a %= p
    if a == 0:
        return 0
    q = p - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    if s == 1:
        x = pow(a, (p + 1) // 4, p)
        return x if x * x % p == a else None
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    y, r = pow(z, q, p), s
    x = pow(a, (q - 1) // 2, p)
    b = a * x * x % p  # a^q
    x = a * x % p  # a^((q+1)/2), so that x^2 = a·b
    while b != 1:
        m, t = 0, b
        while t != 1:
            t = t * t % p
            m += 1
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return x


def _quadratic_roots(g: Sequence[int], p: int) -> list[int]:
    """The distinct roots of the monic quadratic g = [c, b, 1] mod the odd
    prime p, by the quadratic formula: (-b ± sqrt(b^2 - 4c))/2."""
    c, b = g[0], g[1]
    half = (p + 1) // 2  # 1/2 mod p
    root = _sqrt_mod(b * b - 4 * c, p)
    if root is None:
        return []
    if root == 0:
        return [-b * half % p]  # a double root
    return [(-b + root) * half % p, (-b - root) * half % p]


def _roots_mod(f: Sequence[int], p: int) -> list[int]:
    """The distinct roots of f mod the prime p, in no particular order; none
    when f mod p is zero or a nonzero constant.

    The roots come from square roots and gcds, never from trying residues.
    A quadratic (f itself, once the factor x is out, or a part below)
    splits by the quadratic formula with a Tonelli-Shanks square root: a
    few integer powers mod p.  A higher degree goes through Rabin's split
    (SIAM J. Comput. 9, 1980) of x^((p-1)/2) mod f into the parts where it
    is 1 and -1, then Cantor-Zassenhaus splitting (Math. Comp. 36, 1981) of
    each part of degree >= 3 by gcd(g, (x + a)^((p-1)/2) - 1) for the
    shifts a = 1, 2, ... in turn, so the result needs no random source.
    Every shift that does not split a part leaves its roots r with the same
    value of [(r + a)^((p-1)/2) = 1]; a set of quadratic residues closed
    under a nonzero translation would be all of Z/pZ, so some a < p splits
    it.  A part's gcds are squarefree, so each root shows up once.  Costs
    O(d^2 log p) operations mod p for f of degree d >= 3, times the number
    of shifts tried, and O(log^2 p) integer operations for d = 2.
    """
    g = _monic_mod(f, p)
    if len(g) < 2:
        return []
    roots = []
    if not g[0]:
        roots.append(0)
        g = g[next(i for i, c in enumerate(g) if c) :]
        if len(g) < 2:
            return roots
    if p == 2:
        # the factor x is out, so the only root left to find is 1
        return roots + [1] if sum(g) % 2 == 0 else roots
    if len(g) == 3:
        return roots + _quadratic_roots(g, p)
    e = (p - 1) // 2
    h = _pow_shifted_mod(0, e, g, p)
    parts = [_gcd_mod(g, [h[0] - s] + h[1:], p) for s in (1, -1)]
    a = 0
    while parts:
        a += 1
        split = []
        for part in parts:
            if len(part) == 2:
                roots.append(-part[0] % p)
            elif len(part) == 3:
                roots += _quadratic_roots(part, p)
            elif len(part) > 3:
                w = _pow_shifted_mod(a, e, part, p)
                d = _gcd_mod(part, [w[0] - 1] + w[1:], p)
                split += [d, _divmod_mod(part, d, p)[0]]
        parts = split
    return roots


# --------------------------------------------------------------------------
# Residues.


def _check_prime_power(p: int, k: int) -> None:
    """Raise ValueError unless p is prime and k >= 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError("precision must be non-negative")


@dataclass(frozen=True)
class ResidueClass:
    """An element of Z/p^k Z, tagged with its prime and precision.

    precision 0 is the trivial ring: the value is forced to 0.
    """

    prime: int
    precision: int
    value: int

    def __post_init__(self) -> None:
        _check_prime_power(self.prime, self.precision)
        if not 0 <= self.value < self.prime**self.precision:
            raise ValueError(
                f"value {self.value} out of range for {self.prime}^{self.precision}"
            )

    @property
    def modulus(self) -> int:
        return self.prime**self.precision

    def reduce(self, j: int) -> "ResidueClass":
        """Project down to precision j <= current precision."""
        if not 0 <= j <= self.precision:
            raise ValueError(f"cannot reduce precision {self.precision} to {j}")
        if j == self.precision:
            return self
        return ResidueClass(self.prime, j, self.value % self.prime**j)

    def digits(self) -> tuple[int, ...]:
        """Base-p digits, least significant first; length == precision."""
        out = []
        v = self.value
        for _ in range(self.precision):
            v, d = divmod(v, self.prime)
            out.append(d)
        return tuple(out)

    def __int__(self) -> int:
        return self.value


# --------------------------------------------------------------------------
# Specs for one p-adic integer per prime.


class TauSpec(ABC):
    """Oracle for a family (tau_p), one p-adic integer per prime.

    query(p, k) returns tau_p mod p^k; answers at different precisions of
    the same spec always agree (deeper queries refine shallower ones).
    Consumers read _tau, or h(tau_p) mod p^k from _eval_at, and _tau
    memoizes in one bounded cache shared by every spec; subclasses
    implement the uncached _residue, which a scan reads for tau_p mod p.
    """

    kind: str = ""
    _fields: tuple[str, ...] = ()  # JSON fields besides "kind", in constructor order

    def query(self, p: int, k: int) -> ResidueClass:
        """tau_p mod p^k as a ResidueClass; memoized."""
        _check_prime_power(p, k)
        return ResidueClass(p, k, self._tau(p, k))

    # reads come back to the primes of recent denominators; the key holds its spec alive
    @lru_cache(maxsize=1024)
    def _tau(self, p: int, k: int) -> int:
        """tau_p mod p^k for a prime p and k >= 0, unchecked; memoized.  A
        scan reads its first digit at each prime from _residue instead."""
        return self._residue(p, k) if k else 0

    @abstractmethod
    def _residue(self, p: int, k: int) -> int:
        """Value of tau_p mod p^k, 0 <= value < p^k, for a prime p and
        k >= 1, unchecked and uncached; called by _tau, by a composite
        spec's _residue, and by scan_sh for the first digit at each prime."""

    def eval_mod(self, h: Sequence[int], n: int) -> int:
        """h(tau) mod n for n >= 1, the Chinese remainder of _parts; a
        constant h, or n = 1, needs no tau and no factoring."""
        if n == 1 or len(h) <= 1:
            return h[0] % n if h else 0
        return crt_combine((q**v, r) for q, v, r in self._parts(h, n))[0]

    def _parts(self, h: Sequence[int], n: int) -> Iterator[tuple[int, int, int]]:
        """Coprime parts q^v of n >= 1 with product n, as (q, v, r) for
        r = h(tau) mod q^v: q is a prime, or, for at most one part and only
        the last, a part left whole with v = 1.  Here the prime powers of
        factorize(n)."""
        for p, e in factorize(n):
            yield p, e, self._eval_at(h, p, e)

    def _eval_at(self, h: Sequence[int], p: int, k: int) -> int:
        """h(tau_p) mod p^k for a prime p and k >= 0, unchecked, through
        the memo (_tau)."""
        return _eval_mod(h, self._tau(p, k), p**k)

    def is_exact_root(self, h: Sequence[int], p: int) -> bool:
        """Whether this spec guarantees h(tau_p) = 0 in Z_p, so that
        h(tau_p) = 0 mod p^k at every precision k.

        True is a promise that scan_sh relies on: it records depth k_max
        at such a prime without asking for tau_p mod p^k_max.  Only
        structurally certain cases answer True; digit streams always
        answer False even if every sampled digit happens to vanish.
        """
        return False

    def to_json(self) -> dict:
        """JSON-serializable description; inverse of tau_from_json."""
        return {"kind": self.kind, **{f: _json(getattr(self, f)) for f in self._fields}}

    @classmethod
    def _read(cls, data: Mapping, depth: int) -> TauSpec:
        """The spec of this kind that data describes, its keys checked, at depth."""
        return cls(*(data[f] for f in cls._fields))

    def __repr__(self) -> str:
        return f"<TauSpec {self.to_json()!r}>"


def _exact_int(name: str, value: int) -> int:
    # only exact integers: bool is an int subclass, and int() truncates or parses
    if type(value) is not int:
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return value


class ConstantTau(TauSpec):
    """The canonical image of an integer: tau_p = z for every p."""

    kind = "constant"
    _fields = ("value",)

    def __init__(self, value: int) -> None:
        self.value = _exact_int("value", value)

    def _residue(self, p: int, k: int) -> int:
        return self.value % p**k

    def _parts(self, h: Sequence[int], n: int) -> Iterator[tuple[int, int, int]]:
        yield n, 1, _eval_mod(h, self.value, n)  # one Horner pass, n unfactored

    def is_exact_root(self, h: Sequence[int], p: int) -> bool:
        return _eval_int(h, self.value) == 0


class ZeroTau(ConstantTau):
    """tau_p = 0 for every p."""

    kind = "zero"
    _fields = ()

    def __init__(self) -> None:
        super().__init__(0)


class StreamTau(TauSpec):
    """Digits drawn from a seeded deterministic stream, one digit at a time.

    Coherence holds by construction: the value mod p^k is the partial sum
    of the first k digits.
    """

    kind = "stream"
    _fields = ("seed",)

    def __init__(self, seed: int) -> None:
        self.seed = _exact_int("seed", seed)

    def _digit(self, p: int, i: int) -> int:
        # SHA-256 keyed by (seed, p, digit index): reproducible across runs
        # and platforms, unlike hash()-seeded PRNGs.
        key = f"{self.seed}:{p}:{i}".encode()
        return int.from_bytes(hashlib.sha256(key).digest(), "big") % p

    def _residue(self, p: int, k: int) -> int:
        # Horner's rule from the top digit down, each digit folded in as it
        # is hashed
        acc = 0
        for i in range(k - 1, -1, -1):
            acc = acc * p + self._digit(p, i)
        return acc


# _EXP_CEIL[n - 1] is the least integer above e^n; grown on demand by
# _floor_ln.  A racing grower builds the same tuple, so sharing it is safe.
_EXP_CEIL: tuple[int, ...] = ()


def _ceil_exp(n: int) -> int:
    """The least integer above e^n, for n >= 1 (e^n is irrational).

    With m!·e^n = A + tail, A = sum of n^j·m!/j! over j <= m, the tail lies
    in (0, B] for B = n^(m+1)·(m+2) / ((m+1)·(m+2-n)); m grows until
    A/m! and (A+B)/m! have the same integer part."""
    m = 2 * n + 8
    while True:
        fact = math.factorial(m)
        term, a = fact, 0
        for j in range(m + 1):
            a += term
            term = term * n // (j + 1)  # n^(j+1)·m!/(j+1)!, exact for j < m
        b = -(-n ** (m + 1) * (m + 2) // ((m + 1) * (m + 2 - n)))
        if a // fact == (a + b) // fact:
            return a // fact + 1
        m *= 2


def _floor_ln(p: int) -> int:
    """floor(ln p) for p >= 1 in integers: the count of n >= 1 with
    ceil(e^n) <= p."""
    global _EXP_CEIL
    table = _EXP_CEIL
    while not table or table[-1] <= p:
        table += (_ceil_exp(len(table) + 1),)
    _EXP_CEIL = table
    return bisect.bisect_right(table, p)


class LogGenericTau(StreamTau):
    """The stream spec of the same seed with digit 0 replaced by floor(ln p).

    For every fixed nonzero integer polynomial h and all large enough p,
    0 < |h(floor(ln p))| < p, so the first digit of h(tau_p) is nonzero;
    these specs therefore tend to admit no deep residue zeros.
    """

    kind = "log_generic"

    def _digit(self, p: int, i: int) -> int:
        return super()._digit(p, i) if i else _floor_ln(p)


class HenselTau(TauSpec):
    """tau_p is a lifted root of a fixed integer polynomial, where one exists.

    At each prime, the smallest simple root of f mod p is lifted; primes at
    which f has no simple root fall back to another spec.  The roots of f
    mod p come from _roots_mod, never from trying all p residues: a
    quadratic f costs one Tonelli-Shanks square root, a few integer powers
    mod p; a higher degree costs polynomial powers mod f of O(d^2 log p)
    operations each, and a power near p = 10^9 takes about 30 squarings.  A
    residue is the Newton lift of that root, or the fallback's _residue, both
    as plain ints.  The root at p is memoized in _simple_root and the
    residue in TauSpec._tau, both bounded; a scan's first digit is the
    root itself, not stored in _tau.  Whether f divides a given h, the
    test behind is_exact_root, is decided once per (f, h) pair by _divides.
    """

    kind = "hensel"
    _fields = ("poly", "fallback")

    def __init__(self, poly: Sequence[int], fallback: TauSpec) -> None:
        self.poly = tuple(poly)
        if any(type(c) is not int for c in self.poly):
            raise ValueError(f"hensel 'poly' must be a list of integers, got {poly!r}")
        self.fallback = fallback
        self._deriv = _derivative(self.poly)

    # read again only at the prime just computed; the key holds its spec alive
    @lru_cache(maxsize=256)
    def _simple_root(self, p: int) -> int | None:
        roots = _roots_mod(self.poly, p)
        if len(self.poly) == 3 and len(roots) == 2:
            return min(roots)  # a quadratic's two distinct roots are both simple
        simple = (r for r in roots if _eval_mod(self._deriv, r, p))
        return min(simple, default=None)

    def _residue(self, p: int, k: int) -> int:
        root = self._simple_root(p)
        if root is None:
            return self.fallback._residue(p, k)
        return _newton(self.poly, self._deriv, p, root, k)

    def is_exact_root(self, h: Sequence[int], p: int) -> bool:
        if self._simple_root(p) is None:
            return self.fallback.is_exact_root(h, p)
        # sufficient condition: every root of f is a root of h
        return _divides(self.poly, tuple(h))

    @classmethod
    def _read(cls, data: Mapping, depth: int) -> TauSpec:
        poly = data["poly"]
        if not isinstance(poly, list):
            raise ValueError(f"hensel 'poly' must be a list of integers, got {poly!r}")
        return cls(poly, _tau_from_json(data["fallback"], depth + 1))


@lru_cache(maxsize=256)
def _divides(f: tuple[int, ...], h: tuple[int, ...]) -> bool:
    """Whether f divides h in Q[x]; memoized, since a scan asks it at every
    prime where f has a simple root."""
    return qdiv(RingElement(h), RingElement(f))[1].is_zero


class _SplitTau(TauSpec):
    """A spec that delegates each prime to the spec chosen by _pick (by the
    prime for piecewise, by its class mod m for progression), whose _residue
    it returns: the residue is memoized under this spec alone."""

    @abstractmethod
    def _pick(self, p: int) -> TauSpec:
        """The spec that answers for the prime p."""

    def _residue(self, p: int, k: int) -> int:
        return self._pick(p)._residue(p, k)

    def is_exact_root(self, h: Sequence[int], p: int) -> bool:
        return self._pick(p).is_exact_root(h, p)


class PiecewiseTau(_SplitTau):
    """Per-prime overrides over a default spec."""

    kind = "piecewise"
    _fields = ("overrides", "default")

    def __init__(self, overrides: Mapping[int, TauSpec], default: TauSpec) -> None:
        for p in overrides:
            if not is_prime(_exact_int("override key", p)):
                raise ValueError(f"override key {p} is not prime")
        self.overrides = dict(overrides)
        self.default = default

    def _pick(self, p: int) -> TauSpec:
        return self.overrides.get(p, self.default)

    def _parts(self, h: Sequence[int], n: int) -> Iterator[tuple[int, int, int]]:
        for p in self.overrides:  # known primes: their powers need no factoring
            e, n = _valuation(n, p)
            if e:
                yield p, e, self._eval_at(h, p, e)
        yield from self.default._parts(h, n)  # the rest, split as the default splits it

    @classmethod
    def _read(cls, data: Mapping, depth: int) -> TauSpec:
        if not isinstance(data["overrides"], Mapping):
            raise ValueError("piecewise 'overrides' must be an object")
        overrides = {}
        for p, sub in data["overrides"].items():
            # keys are decimal strings as to_json writes them: no sign, space,
            # leading zero, point or non-ASCII digit
            if not (isinstance(p, str) and p.isascii() and p.isdigit() and p == str(int(p))):
                raise ValueError(f"piecewise override key {p!r} must be an integer in decimal")
            overrides[int(p)] = _tau_from_json(sub, depth + 1)
        return cls(overrides, _tau_from_json(data["default"], depth + 1))


class ProgressionTau(_SplitTau):
    """tau_p is the when spec's at the primes p with p mod modulus among the
    residues, and the otherwise spec's at the rest.  By Dirichlet's theorem
    a class coprime to the modulus holds infinitely many primes."""

    kind = "progression"
    _fields = ("modulus", "residues", "when", "otherwise")

    def __init__(
        self, modulus: int, residues: Iterable[int], when: TauSpec, otherwise: TauSpec
    ) -> None:
        self.modulus = m = _exact_int("modulus", modulus)
        self.residues = rs = tuple(_exact_int("residue", r) for r in residues)
        if m < 1:
            raise ValueError(f"progression 'modulus' must be at least 1, got {m}")
        if len(set(rs)) < len(rs) or not all(0 <= r < m for r in rs):
            raise ValueError(f"progression residues {list(rs)} must be distinct and in [0, {m})")
        self.when, self.otherwise = when, otherwise

    def _pick(self, p: int) -> TauSpec:
        return self.when if p % self.modulus in self.residues else self.otherwise

    @classmethod
    def _read(cls, data: Mapping, depth: int) -> TauSpec:
        if not isinstance(data["residues"], list):
            raise ValueError("progression 'residues' must be a list of integers")
        when, otherwise = (_tau_from_json(data[f], depth + 1) for f in ("when", "otherwise"))
        return cls(data["modulus"], data["residues"], when, otherwise)


constant = ConstantTau
zero = ZeroTau
stream = StreamTau
hensel = HenselTau
log_generic = LogGenericTau
piecewise = PiecewiseTau
progression = ProgressionTau

# Every kind, by name
_KINDS = {c.kind: c for c in (constant, zero, stream, log_generic, hensel, piecewise, progression)}
_TAU_MAX_DEPTH = 64


def tau_from_json(data: Mapping) -> TauSpec:
    """Rebuild a spec from its JSON description.

    Raises ValueError for an unknown kind or field, an integer field that
    is not an exact int, an override key that is not a decimal string, or
    specs nested more than _TAU_MAX_DEPTH deep."""
    return _tau_from_json(data, 1)


def _tau_from_json(data: Mapping, depth: int) -> TauSpec:
    if depth > _TAU_MAX_DEPTH:
        raise ValueError(f"tau spec is nested more than {_TAU_MAX_DEPTH} levels deep")
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ValueError("tau spec JSON must be an object with a 'kind' field")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown tau spec kind {kind!r}")
    unknown = set(data) - set(cls._fields) - {"kind"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} in a {kind!r} tau spec")
    return cls._read(data, depth)


# --------------------------------------------------------------------------
# Operations.


def poly_eval_mod(h: Sequence[int], spec: TauSpec, p: int, k: int) -> ResidueClass:
    """h(tau_p) mod p^k by Horner's rule, entirely in Z/p^k Z."""
    _check_prime_power(p, k)
    return ResidueClass(p, k, spec._eval_at(h, p, k))


class HenselLiftError(ValueError):
    """The starting residue is not a simple root of f mod p."""


def hensel_lift(f: Sequence[int], p: int, root1: int, k: int) -> ResidueClass:
    """Lift a simple root of f mod p to the unique root mod p^k above it.

    root1 must satisfy f(root1) = 0 and f'(root1) != 0 mod p; violations
    raise HenselLiftError.  Uses Newton iteration with doubling precision.
    """
    _check_prime_power(p, k)
    if not 0 <= root1 < p:
        raise ValueError(f"root {root1} out of range for modulus {p}")
    deriv = _derivative(f)
    if _eval_mod(f, root1, p) != 0:
        raise HenselLiftError(f"{root1} is not a root of the polynomial mod {p}")
    if _eval_mod(deriv, root1, p) == 0:
        raise HenselLiftError(f"root {root1} is not simple mod {p} (derivative vanishes)")
    return ResidueClass(p, k, _newton(f, deriv, p, root1, k))


def _newton(f: Sequence[int], deriv: Sequence[int], p: int, x: int, k: int) -> int:
    """The root of f mod p^k above the simple root x of f mod p, by Newton
    iteration with doubling precision; deriv is f'.  Unchecked.

    One modular inverse, y = 1/f'(x) mod p, is computed.  Each doubling
    to p^prec steps x <- x - f(x) y, then refines y <- y (2 - f'(x) y),
    which is 1/f'(x) mod p^prec again, ready for the next doubling (von
    zur Gathen and Gerhard, Modern Computer Algebra, Alg. 9.22).
    """
    if k <= 1:  # a scan asks every prime for one digit: no inverse for it
        return x % p**k
    y = pow(_eval_mod(deriv, x, p), -1, p)
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        x = (x - _eval_mod(f, x, mod) * y) % mod
        if prec < k:  # the last step needs no inverse after it
            y = y * (2 - _eval_mod(deriv, x, mod) * y) % mod
    return x  # the last doubling reduced it mod p^k
