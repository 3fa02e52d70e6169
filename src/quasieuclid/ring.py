"""The ring of fractions h/n in Q[x] licensed by p-adic residue conditions.

Fixing one p-adic integer tau_p per prime, the element h/n (in lowest
terms) belongs to the ring exactly when h(tau_p) is divisible by p^v for
every prime power p^v dividing n.  The ring is discretely ordered, closed
under a division with remainder whose remainder lies in [0, |r|), and
therefore carries terminating division chains and Bezout GCDs.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .chains import DivisionChain
from .padic import BudgetExceeded, TauSpec, _valuation, is_prime
from .poly import ONE, ZERO, RingElement, _const, _lincomb, _pdiv, _submul, as_element, qdiv

# The step budget of gcd_bezout and the default one of qe_chain.  Chains
# terminate but can be long: F_5010*x + 1 over F_5009*x takes more than
# 10,000 quotients.
CHAIN_STEPS_MAX = 10_000

# membership_witness seeks the least failing prime of a part left whole by
# trial division below this and below every failing prime found so far, its
# only search: at most about 2^15 divisions, a few ms.  A part with no
# failing prime below it is named whole.
_WITNESS_TRIAL_MAX = 2**16


def _shown(x, what: str) -> str:
    """str(x), or, when x holds an integer past the interpreter's limit for
    printing one, what it is in its place."""
    try:
        return str(x)
    except ValueError:
        return f"{what} of more than {sys.get_int_max_str_digits()} decimal digits"


class NotMemberError(ValueError):
    """An element fails the residue condition: its numerator h has h(tau)
    mod prime^precision = residue != 0, prime^precision exactly dividing the
    denominator, or, when no failing prime lies below the witness's trial
    bound, prime a composite part, precision 1."""

    def __init__(self, element: RingElement, prime: int, precision: int, residue: int):
        self.element = element
        self.prime = prime
        self.precision = precision
        self.residue = residue
        super().__init__(
            f"{_shown(element, 'an element with an integer')} is not in the ring: numerator "
            f"evaluates to {_shown(residue, 'an integer')} mod {prime}^{precision}, expected 0"
        )


class StepBudgetExceeded(BudgetExceeded, RuntimeError):
    """A division chain ran past its step budget (CHAIN_STEPS_MAX unless
    given).  Every chain terminates, so this is a long chain, not a defect;
    it stays a RuntimeError for callers that catch one."""


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


def _run(A: int, B: int) -> list[int]:
    """Integer Euclid on A, B > 0 up to its first exact division: the
    quotients c_1..c_k, none when A/B is an integer."""
    quots = []
    c, r = divmod(A, B)
    while r:
        quots.append(c)
        A, B = B, r
        c, r = divmod(A, B)
    return quots


def _combine(quots: list[int], w: RingElement, u: RingElement) -> tuple[RingElement, RingElement]:
    """(x_k, x_{k+1}) from (x_0, x_1) = (w, u) under x_{i+1} = x_{i-1} -
    c_i*x_i for the integer quotients c_1..c_k: their 2x2 matrix, then one
    _lincomb per row.  The matrix has determinant +-1, so a first row
    (0, m01) is (0, +-1) and gives +-u."""
    m00, m01, m10, m11 = 1, 0, 0, 1
    for c in quots:
        m00, m01, m10, m11 = m10, m11, m00 - c * m10, m01 - c * m11
    if m00 == 0:
        first = u if m01 == 1 else -u
    else:
        first = _lincomb(m00, w, m01, u)
    return first, _lincomb(m10, w, m11, u)


def _over_budget(max_steps: int) -> StepBudgetExceeded:
    return StepBudgetExceeded(f"division chain exceeded {max_steps} steps")


class RingContext:
    """A choice of tau; membership of h/n is tau.eval_mod(h, n) == 0.

    A context keeps its last DivisionChain and that chain's last nonzero
    remainder g, swapped in as one immutable tuple (tau, chain, g), so it is
    as safe to share between threads as its tau: every operation is
    deterministic in (tau, inputs), and a thread reads the memo once and
    either uses a whole entry or computes its own.
    """

    def __init__(self, tau: TauSpec):
        self.tau = tau
        self._last: tuple[TauSpec, DivisionChain, RingElement] | None = None

    # -- membership -------------------------------------------------------

    def membership_witness(self, e: RingElement) -> tuple[int, int, int] | None:
        """None when e belongs to the ring, else (p, v, residue) for the
        smallest failing prime p, p^v exactly dividing e's denominator, read
        off the parts eval_mod combines in one pass.  Of the part m left
        whole, always the last, it seeks the least prime of m / gcd(r, m),
        r = h(tau) mod m, by trial division below every failing prime found
        so far and below _WITNESS_TRIAL_MAX; with none there, (m, 1, r),
        named only if no prime fails."""
        failed = []
        for q, v, r in self.tau._parts(e.num, e.den):
            if r and is_prime(q):
                failed.append((q, v, r))
            elif r:  # the part left whole
                n = q // math.gcd(r, q)  # its primes are the failing primes of q
                bound = min([_WITNESS_TRIAL_MAX] + [p for p, _, _ in failed])
                # 2 (below bound when it divides n: the parts are coprime), then
                # the odd numbers, so the least divisor found is prime
                p = 2 if n % 2 == 0 else next((d for d in range(3, bound, 2) if n % d == 0), 0)
                if not p:
                    return min(failed, default=(q, 1, r))
                v = _valuation(q, p)[0]
                return p, v, r % p**v  # below every failing prime
        return min(failed, default=None)

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
        semantics.  Up to deg r the quotient is an integer, c = floor(lc q /
        lc r) at equal degree and 0 below it, tau plays no part, and s = q -
        c*r is one poly._lincomb; when s < 0 (c exact, or q < 0 below deg
        r) the answer is (c - 1, q - (c - 1)*r).  Past deg r, one
        pseudo-division gives the Q[x] quotient P/m, put in lowest terms by
        hand, p = (P - k)/m for k = P(tau) mod m in [0, m) is built once, s
        is one poly._submul, and when s < 0 (only if k = 0) the answer is
        (p - 1, s + r).  A negative r divides by -r and negates p.
        """
        q, r = as_element(q), as_element(r)
        if r.is_zero:
            raise ZeroDivisionError("division by zero in the ring")
        return self._divmod(q, r)

    def _divmod(self, q: RingElement, r: RingElement) -> tuple[RingElement, RingElement]:
        # divmod on elements q and r != 0, unchecked: the chain loop's step (see divmod)
        qn, rn = q._num, r._num
        if rn[-1] < 0:
            p, s = self._divmod(q, -r)
            return -p, s
        if len(qn) <= len(rn):
            c = qn[-1] * r._den // (q._den * rn[-1]) if len(qn) == len(rn) else 0
            s = _lincomb(1, q, -c, r) if c else q
            if s._num and s._num[-1] < 0:
                c, s = c - 1, _lincomb(1, q, 1 - c, r)
            return _const(c), s
        quo, _, m = _pdiv(qn, rn)
        m *= q._den
        if r._den != 1:
            quo = [r._den * c for c in quo]
        g = math.gcd(m, *quo)
        if g > 1:
            quo, m = [c // g for c in quo], m // g
        quo[0] -= self.tau.eval_mod(quo, m)
        p = RingElement._from_normal(quo, m)
        s = _submul(q, p, r)
        if s._num and s._num[-1] < 0:
            return p - ONE, s + r
        return p, s

    # -- chains, gcd, divisibility -----------------------------------------

    def _chain(self, a, b, max_steps: int) -> tuple[DivisionChain, RingElement]:
        """The division chain from (a, b), through the first zero remainder,
        and its last nonzero remainder g; a and b are validated once, and
        max_steps bounds the number of quotients.

        While prev and cur have equal degrees and positive leading
        coefficients, a step's quotient is the integer c = floor(lc prev /
        lc cur) and its remainder has leading coefficient lc prev - c*lc
        cur, so a run of such steps is integer Euclid on the two leading
        coefficients (Lehmer; Knuth, TAOCP vol. 2, 4.5.2, Algorithm L, here
        with exact leading coefficients).  The run stops before the first
        exact ratio, where the lower terms decide the sign of the remainder,
        and _combine builds the new (prev, cur) from its quotients with one
        combination each.  That step and every step that drops the degree
        go through _divmod.

        The context keeps the last pair it chained: equal a and b under the
        same tau return the same chain and g, with no division, membership
        check or tau query, and raise StepBudgetExceeded exactly where a
        fresh pass would.  Any other pair runs the loop and, when it
        completes, takes its place.
        """
        if max_steps < 1:
            raise ValueError("max_steps must be positive")
        a, b = as_element(a), as_element(b)
        last = self._last
        if last is not None:
            tau, chain, g = last
            if tau is self.tau and chain.a == a and chain.b == b:
                if chain.length > max_steps:
                    raise _over_budget(max_steps)
                return chain, g
        self.make_element(a)
        self.make_element(b)
        if b.is_zero:
            raise ZeroDivisionError("chain requires b != 0")
        quots, prev, cur = [], a, b
        while True:
            pn, cn = prev._num, cur._num
            if len(pn) == len(cn) and pn[-1] > 0 and cn[-1] > 0:
                run = _run(pn[-1] * cur._den, cn[-1] * prev._den)
                if run:
                    prev, cur = _combine(run, prev, cur)
                    quots += map(_const, run)
            # a run ends before an exact ratio, so a division step follows
            if len(quots) >= max_steps:
                raise _over_budget(max_steps)
            p, s = self._divmod(prev, cur)
            quots.append(p)
            if s.is_zero:
                break
            prev, cur = cur, s
        chain = DivisionChain(a, b, tuple(quots))
        self._last = (self.tau, chain, cur)
        return chain, cur

    def qe_chain(self, a, b, max_steps: int = CHAIN_STEPS_MAX) -> DivisionChain:
        """Iterate division with remainder from (a, b) until remainder 0.

        Termination is guaranteed by the norm descent; a chain longer than
        max_steps raises StepBudgetExceeded.  Asked again for the context's
        last pair, it returns the same chain, whose remainders are then
        derived once.
        """
        return self._chain(a, b, max_steps)[0]

    def gcd_bezout(self, a, b) -> tuple[RingElement, RingElement, RingElement]:
        """(g, u, v) with g = u*a + v*b, g > 0, and g dividing both a and b.

        Half-extended: g is the last nonzero remainder of the chain from
        (a, b), whose quotients but the last carry only the cofactor of a,
        u <- u_prev - p*u: one walk gathers each stretch of integer
        quotients into a list that _combine folds into one 2x2 matrix, and
        takes each polynomial quotient with one poly._submul.  v = (g -
        u*a)/b is one exact division at the end (Knuth, TAOCP vol. 2, 4.5.2,
        the remark after Algorithm X).  On integers this reproduces the
        extended Euclidean algorithm exactly.  The chain is the context's
        last one when the pair was just chained; one past CHAIN_STEPS_MAX
        quotients raises StepBudgetExceeded.  A non-member a or b raises
        NotMemberError, b = 0 included.
        """
        a, b = as_element(a), as_element(b)
        if a.is_zero and b.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        if b.is_zero:
            g, u, v = self.make_element(a), ONE, ZERO
        else:
            chain, g = self._chain(a, b, CHAIN_STEPS_MAX)
            u_prev, u, ints = ONE, ZERO, []
            for p in chain.quotients[:-1]:
                if p._den == 1 and len(p._num) < 2:
                    ints.append(p._num[0] if p._num else 0)
                    continue
                if ints:
                    u_prev, u = _combine(ints, u_prev, u)
                    ints = []
                u_prev, u = u, _submul(u_prev, p, u)
            if ints:
                u_prev, u = _combine(ints, u_prev, u)
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
