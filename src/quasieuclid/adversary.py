"""Degree-retaining starting pairs: given a stage budget k and a positive
b of degree >= 1, produce a so that no division chain of length <= k from
(a, b) can push the remainder's degree below deg b.

The construction scales b - beta by a Fibonacci ratio c/d chosen so that no
integer chain of length <= k from (c, d) terminates; beta is the unique
offset in [0, d) making d divide b - beta in the ring.  The guarantee is
verified through the canonical chain: by the two-for-one bound, remainders
of the canonical chain through index 2k dominate the remainders of every
chain of length <= k.

An AdversaryReport's JSON form is the object of its fields (poly._Record).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import fib_pair_for
from .padic import BudgetExceeded
from .poly import ZERO, RingElement, _Record, as_element
from .ring import RingContext

# The largest stage budget k.  The canonical chain from an adversarial pair
# has 4k + O(1) quotients under the zero tau.  Over b with coefficients in
# [-9, 9] it was at most 4k + 7: every b of degree <= 2 at k = 50 and 200,
# random b of degree 3 and 4 (20,000 at k = 50, 5,000 at k = 200) and 150
# random b of degree 1 to 4 at k = 2000.  So k = 2000 keeps it within
# qe_chain's budget of ring.CHAIN_STEPS_MAX = 10,000 steps with a fifth to
# spare, and such a pair takes under a second.  A tau that needs factoring
# may stop earlier, on the rho budget: stream(42) with b = 2x^2+x+3 passes
# every k <= 75 and log_generic(7) with b = x every k <= 95 (see the
# comment above padic._TRIAL_BOUND).  A constant tau factors nothing, nor
# does a piecewise spec over a constant default: {2: constant(1)} over
# zero() passes every k up to the limit with b = x.
ADVERSARY_K_MAX = 2000


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if k > ADVERSARY_K_MAX:
        raise BudgetExceeded(f"stage budget k = {k} is past the limit k <= {ADVERSARY_K_MAX}")


@dataclass(frozen=True)
class AdversaryReport(_Record):
    """Outcome of the degree-retention check for one constructed pair."""

    k: int
    b: RingElement
    c: int
    d: int
    beta: int
    a: RingElement
    degrees: tuple[int, ...]
    verdict: bool


def integer_mod(ctx: RingContext, b: RingElement, d: int) -> int:
    """The unique beta in [0, d) such that d divides b - beta in the ring.

    With b = h/n, (b - beta)/d = (h - beta*n)/(n*d) is a member exactly
    when h(tau) = beta*n mod n*d.  Membership of b makes h(tau) mod n*d a
    multiple t*n of n with 0 <= t < d, so beta = t.
    """
    if d < 1:
        raise ValueError("modulus must be positive")
    return _member_mod(ctx, ctx.make_element(as_element(b)), d)


def _member_mod(ctx: RingContext, b: RingElement, d: int) -> int:
    """integer_mod for a b already checked to be a member and d >= 1."""
    t = ctx.tau.eval_mod(b.num, b.den * d)
    if t % b.den:
        raise RuntimeError("membership of b contradicts its residue (bug)")
    return t // b.den


def adversarial_pair(ctx: RingContext, k: int, b: RingElement) -> RingElement:
    """a = (c/d)(b - beta) for the stage budget k.  b is checked to be a
    ring member; a is one without a check, since beta makes (b - beta)/d a
    member and c is an integer.  Negative b is handled by negating,
    constructing, and negating back.  k below 1 raises ValueError and k
    past ADVERSARY_K_MAX BudgetExceeded, both before b is read."""
    _check_k(k)
    b = as_element(b)
    if b.degree < 1:
        raise ValueError("b must have degree at least 1")
    if b < ZERO:
        return -adversarial_pair(ctx, k, -b)
    ctx.make_element(b)
    c, d = fib_pair_for(k)
    beta = _member_mod(ctx, b, d)
    return RingElement((c,), d) * (b - beta)


def degree_retention_check(ctx: RingContext, k: int, a: RingElement, b: RingElement) -> AdversaryReport:
    """Run the canonical chain from (a, b) and record the degrees of its
    first 2k remainders; the verdict is True when all of them reach deg b.

    (a, b) must come from adversarial_pair with b > 0.  The chain validates
    a and b, once each; beta is then read off the pair as b - (d/c)a, which
    must be an integer in [0, d), so the reported (c, d, beta) always
    describe the given pair.  No residue is computed here.
    k below 1 raises ValueError and k past ADVERSARY_K_MAX BudgetExceeded.
    """
    _check_k(k)
    a, b = as_element(a), as_element(b)
    if not b > ZERO:
        raise ValueError("b must be positive; negate the pair first")
    c, d = fib_pair_for(k)
    qe = ctx.qe_chain(a, b)
    # With a and b members and beta an integer, (b - beta)/d = a/c is a
    # member: at a prime of d, c is a unit (consecutive Fibonacci numbers are
    # coprime) and a is a member; at any other prime d is a unit and b is a
    # member.  The ring meets Q in Z, so such a beta in [0, d) is unique: it
    # is integer_mod(ctx, b, d), and a = (c/d)(b - beta) as adversarial_pair
    # builds it.
    beta = b - RingElement((d,), c) * a
    if not beta.is_integer or not 0 <= int(beta) < d:
        raise ValueError("pair (a, b) was not produced by adversarial_pair")
    need = 2 * k
    degrees = tuple(r.degree for r in qe.remainders[:need])
    verdict = len(degrees) == need and all(dg >= b.degree for dg in degrees)
    return AdversaryReport(k, b, c, d, int(beta), a, degrees, verdict)


def hat(d: int, b: RingElement, r: RingElement) -> Fraction:
    """lc(d*r)/lc(b): projects ring chains with degree pinned at deg b down
    to integer chains."""
    b, r = as_element(b), as_element(r)
    if b.is_zero:
        raise ZeroDivisionError("projection requires b != 0")
    if d < 1:
        raise ValueError("scale d must be positive")
    lc_r = r.num[-1] if r.num else 0
    return Fraction(d * lc_r * b.den, r.den * b.num[-1])
