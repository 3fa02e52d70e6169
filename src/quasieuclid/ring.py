"""The ring of fractions h/n in Q[x] licensed by p-adic residue conditions.

Fixing one p-adic integer tau_p per prime, the element h/n (in lowest
terms) belongs to the ring exactly when h(tau_p) is divisible by p^v for
every prime power p^v dividing n.  The ring is discretely ordered, closed
under a division with remainder whose remainder lies in [0, |r|), and
therefore carries terminating division chains and Bezout GCDs.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .chains import DivisionChain
from .padic import TauSpec, factorize
from .poly import ONE, ZERO, RingElement, _const, _lincomb, _pdiv, _submul, as_element, qdiv


class NotMemberError(ValueError):
    """An element fails the residue condition at a prime of its denominator."""

    def __init__(self, element: RingElement, prime: int, precision: int, residue: int):
        self.element = element
        self.prime = prime
        self.precision = precision
        self.residue = residue
        super().__init__(
            f"{element} is not in the ring: numerator evaluates to "
            f"{residue} mod {prime}^{precision}, expected 0"
        )


class StepBudgetExceeded(RuntimeError):
    """A division chain failed to terminate; this indicates a library bug,
    not bad input."""


class NormTuple(NamedTuple):
    """Value of the termination norm on a pair, ordered lexicographically."""

    delta: int        # 1 when |q| <= |r|, else 0
    deg_q: int        # deg q + 1
    deg_r: int        # deg r
    denom: int        # least common denominator of q and r
    scaled_lc: int    # denom * |lc(q)|, an integer by construction


def phi(q: RingElement, r: RingElement) -> NormTuple:
    """The five-component norm of the pair (q, r); all-zero when r = 0.

    Strictly decreases from (q, r) to (r, s) under division with remainder,
    which is what forces chains to terminate.  Depends only on |q|, |r|.
    """
    q, r = as_element(q), as_element(r)
    if r.is_zero:
        return NormTuple(0, 0, 0, 0, 0)
    delta = 1 if abs(q) <= abs(r) else 0
    denom = q.den // math.gcd(q.den, r.den) * r.den
    scaled = abs(q.num[-1]) * (denom // q.den) if q.num else 0
    return NormTuple(delta, q.degree + 1, r.degree, denom, scaled)


_Matrix = tuple[int, int, int, int]


def _run(A: int, B: int) -> tuple[tuple[int, ...], _Matrix]:
    """Integer Euclid on A, B > 0 up to its first exact division: the
    quotients c_1..c_k (none when A/B is an integer) and the matrix
    (m00, m01, m10, m11) taking (x_0, x_1) to (x_k, x_{k+1}), where
    x_{i+1} = x_{i-1} - c_i*x_i."""
    quots = []
    m00, m01, m10, m11 = 1, 0, 0, 1
    c, r = divmod(A, B)
    while r:
        quots.append(c)
        m00, m01, m10, m11 = m10, m11, m00 - c * m10, m01 - c * m11
        A, B = B, r
        c, r = divmod(A, B)
    return tuple(quots), (m00, m01, m10, m11)


def _combine(m: _Matrix, w: RingElement, u: RingElement) -> tuple[RingElement, RingElement]:
    """(m00*w + m01*u, m10*w + m11*u) for a run's matrix m, one _lincomb each;
    m00 = 0 only after a one-quotient run, whose first row is (0, 1)."""
    m00, m01, m10, m11 = m
    first = u if m00 == 0 else _lincomb(m00, w, m01, u)
    return first, _lincomb(m10, w, m11, u)


_Step = tuple[RingElement | tuple[int, ...], _Matrix | None, RingElement]


class _Chained(NamedTuple):
    """A context's last chained pair: the steps of _steps from (a, b), the
    number of quotients they hold, and the DivisionChain once qe_chain has
    built one.  Equal normal forms under one tau determine all of it."""

    tau: TauSpec
    a: RingElement
    b: RingElement
    steps: tuple[_Step, ...]
    length: int
    chain: DivisionChain | None


def _over_budget(a: RingElement, b: RingElement, max_steps: int) -> StepBudgetExceeded:
    return StepBudgetExceeded(f"division chain from ({a}, {b}) exceeded {max_steps} steps")


class RingContext:
    """A choice of tau; membership of h/n is tau.eval_mod(h, n) == 0.

    A context keeps only the last pair's chain, swapped in as one immutable
    tuple, so it is as safe to share between threads as its tau: every
    operation is deterministic in (tau, inputs), and a thread reads the
    memo once and either replays a whole entry or computes its own.
    """

    def __init__(self, tau: TauSpec):
        self.tau = tau
        self._last: _Chained | None = None

    # -- membership -------------------------------------------------------

    def membership_witness(self, e: RingElement) -> tuple[int, int, int] | None:
        """None when e belongs to the ring, else (p, v, residue) showing
        the failed congruence at the prime p of the denominator; only a
        failure factors it (h(tau) mod n reduced mod p^v is h(tau_p) mod p^v).
        """
        t = self.tau.eval_mod(e.num, e.den)
        if t == 0:
            return None
        return next((p, v, t % p**v) for p, v in factorize(e.den) if t % p**v)

    def is_member(self, e) -> bool:
        e = as_element(e)
        return self.tau.eval_mod(e.num, e.den) == 0

    def make_element(self, coeffs, den: int = 1) -> RingElement:
        """Validated constructor: normalize, then require membership."""
        e = coeffs if isinstance(coeffs, RingElement) else RingElement(coeffs, den)
        w = self.membership_witness(e)
        if w is not None:
            raise NotMemberError(e, *w)
        return e

    # -- division with remainder ---------------------------------------------

    def divmod(self, q: RingElement, r: RingElement) -> tuple[RingElement, RingElement]:
        """The unique (p, s) in the ring with q = p*r + s and 0 <= s < |r|.

        Both inputs must be ring members with r != 0 (not checked); the
        outputs are then members as well, matching integer div/mod
        semantics.  A step only chooses p; s = q - p*r is then one fused
        pass for every step.  When deg q = deg r the quotient is a constant,
        the integer c = floor(lc q / lc r), tau plays no part, and s = q -
        c*r is one poly._lincomb.  Otherwise one pseudo-division gives the
        Q[x] quotient P/m in lowest terms, p = (P - k)/m for k = P(tau) mod
        m in [0, m), and s is one poly._submul.  s < 0 can
        happen only when k = 0 (at equal degree: lc q / lc r an integer),
        and then (p - 1, s + r) is the answer.  A negative r divides by -r
        and negates the quotient.
        """
        q, r = as_element(q), as_element(r)
        if r.is_zero:
            raise ZeroDivisionError("division by zero in the ring")
        return self._divmod(q, r)

    def _divmod(self, q: RingElement, r: RingElement) -> tuple[RingElement, RingElement]:
        # divmod on elements q and r != 0, unchecked: the chain loop's step
        qn, rn = q._num, r._num
        if rn[-1] < 0:
            p, s = self._divmod(q, -r)
            return -p, s
        if len(qn) == len(rn):
            c = qn[-1] * r._den // (q._den * rn[-1])
            p, s = _const(c), _lincomb(1, q, -c, r)
        else:
            quo, _, den = _pdiv(qn, rn)
            if r._den != 1:
                quo = [r._den * c for c in quo]
            p = RingElement._from_normal(quo, den * q._den)  # P/m
            m = p._den
            k = self.tau.eval_mod(p._num, m) if m > 1 else 0
            if k:
                shifted = list(p._num)
                shifted[0] -= k
                p = RingElement._from_normal(shifted, m)
            s = _submul(q, p, r)
        if s._num and s._num[-1] < 0:
            return p - ONE, s + r
        return p, s

    # -- chains, gcd, divisibility -----------------------------------------

    def _steps(self, a: RingElement, b: RingElement, max_steps: int) -> Iterator[_Step]:
        """The division chain from (a, b), through the first zero remainder,
        as runs (quotients, m, s) and division steps (p, None, s), each with
        its last remainder s; a and b are validated once, and max_steps
        bounds the number of quotients.

        While prev and cur have equal degrees and positive leading
        coefficients, a step's quotient is the integer c = floor(lc prev /
        lc cur) and its remainder has leading coefficient lc prev - c*lc
        cur, so a run of such steps is integer Euclid on the two leading
        coefficients (Lehmer; Knuth, TAOCP vol. 2, 4.5.2, Algorithm L, here
        with exact leading coefficients).  The run stops before the first
        exact ratio, where the lower terms decide the sign of the remainder,
        and builds the new (prev, cur) from its integer matrix m with one
        combination each.  That step and every step that drops the degree
        are division steps.
        """
        self.make_element(a)
        self.make_element(b)
        if b.is_zero:
            raise ZeroDivisionError("chain requires b != 0")
        prev, cur, n = a, b, 0
        while True:
            pn, cn = prev._num, cur._num
            if len(pn) == len(cn) and pn[-1] > 0 and cn[-1] > 0:
                quots, m = _run(pn[-1] * cur._den, cn[-1] * prev._den)
                if quots:
                    # a run ends before an exact ratio, so a step follows it
                    n += len(quots)
                    if n >= max_steps:
                        break
                    prev, cur = _combine(m, prev, cur)
                    yield quots, m, cur
            p, s = self._divmod(prev, cur)
            yield p, None, s
            if s.is_zero:
                return
            n += 1
            if n >= max_steps:
                break
            prev, cur = cur, s
        raise _over_budget(a, b, max_steps)

    def _chained(self, a, b, max_steps: int) -> _Chained:
        """The chain from (a, b) as _steps yields it.  The context keeps the
        last pair it chained: equal a and b under the same tau replay its
        steps, with no division, membership check or tau query, and raise
        StepBudgetExceeded exactly where a fresh pass would.  Any other pair
        runs _steps and, when the pass completes, takes its place."""
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        a, b = as_element(a), as_element(b)
        last = self._last
        if last is None or last.tau is not self.tau or last.a != a or last.b != b:
            steps = tuple(self._steps(a, b, max_steps))
            length = sum(1 if m is None else len(p) for p, m, _ in steps)
            last = self._last = _Chained(self.tau, a, b, steps, length, None)
        elif last.length > max_steps:
            raise _over_budget(a, b, max_steps)
        return last

    def qe_chain(self, a, b, max_steps: int = 10_000) -> DivisionChain:
        """Iterate division with remainder from (a, b) until remainder 0.

        Termination is guaranteed by the norm descent; max_steps is a
        safety valve whose breach signals a defect, not a usage error.
        Asked again for the context's last pair, it returns the same chain,
        whose remainders are then derived once.
        """
        last = self._chained(a, b, max_steps)
        if last.chain is None:
            quots = []
            for p, m, _ in last.steps:
                if m is None:
                    quots.append(p)
                else:
                    quots += [_const(c) for c in p]
            last = last._replace(chain=DivisionChain(last.a, last.b, tuple(quots)))
            self._last = last
        return last.chain

    def gcd_bezout(self, a, b) -> tuple[RingElement, RingElement, RingElement]:
        """(g, u, v) with g = u*a + v*b, g > 0, and g dividing both a and b.

        Half-extended: the division chain carries only the cofactor of a
        beside the remainders, u <- u_prev - p*u for a division step and
        the run's integer matrix on (u_prev, u) for a run, and v =
        (g - u*a)/b is one exact division at the end (Knuth, TAOCP vol. 2,
        4.5.2, the remark after Algorithm X).  On integers this reproduces
        the extended Euclidean algorithm exactly.  After qe_chain on the
        same pair it replays that chain's steps.  A non-member a or b
        raises NotMemberError, b = 0 included.
        """
        a, b = as_element(a), as_element(b)
        if a.is_zero and b.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        if b.is_zero:
            g, u, v = self.make_element(a), ONE, ZERO
        else:
            g, u_prev, u = b, ONE, ZERO
            for p, m, s in self._chained(a, b, 10_000).steps:
                if s.is_zero:
                    break
                if m is None:
                    u_prev, u = u, _submul(u_prev, p, u)
                else:
                    u_prev, u = _combine(m, u_prev, u)
                g = s
            v, rem = qdiv(_submul(g, u, a), b)
            if not rem.is_zero:
                raise RuntimeError("Bezout cofactor v is not exact (bug)")
        if g < ZERO:
            g, u, v = -g, -u, -v
        return g, u, v

    def divides(self, a, b) -> bool:
        """Whether a divides b in the ring: b/a exact in Q[x] and a member.
        A non-member a or b raises NotMemberError."""
        a, b = self.make_element(as_element(a)), self.make_element(as_element(b))
        if a.is_zero:
            raise ZeroDivisionError("divisibility by zero is undefined")
        t, rem = qdiv(b, a)
        return rem.is_zero and self.is_member(t)
