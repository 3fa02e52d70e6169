"""Bounded residue-zero scans and non-UFD divisibility witnesses.

For a nonzero integer polynomial h, the pairs (p, k) with h(tau_p) = 0
mod p^k decide how far h can be divided inside the ring.  A bounded scan
can refute unique factorization (by exhibiting an infinite-looking descent)
but can never confirm it, so absence of a witness is always reported as
inconclusive rather than as a classification.

The JSON form of each record here is the object of its fields (poly._Record).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .padic import (
    BudgetExceeded,
    TauSpec,
    _eval_mod,
    _valuation,
    piecewise,
    primes_upto,
    zero,
)
from .poly import RingElement, _Record, as_element
from .ring import RingContext


@dataclass(frozen=True)
class PrimeHit(_Record):
    """One prime with a residue zero: the deepest k <= k_max with
    h(tau_p) = 0 mod p^k, whether that depth hit the scan ceiling, and
    whether the spec certifies the zero as exact (all precisions)."""

    prime: int
    depth: int
    saturated: bool
    exact: bool


@dataclass(frozen=True)
class ShScan(_Record):
    """Residue zeros of h within the box p <= p_max, k <= k_max."""

    h: RingElement
    p_max: int
    k_max: int
    hits: tuple[PrimeHit, ...]

    def hit_primes(self) -> tuple[int, ...]:
        return tuple(hit.prime for hit in self.hits)

    def saturated_primes(self) -> tuple[int, ...]:
        return tuple(hit.prime for hit in self.hits if hit.saturated)

    def exact_primes(self) -> tuple[int, ...]:
        return tuple(hit.prime for hit in self.hits if hit.exact)


# The largest scan box: the sieve to SCAN_P_MAX peaks at 37 MB under tracemalloc
# (a byte per integer, 10 MB, then a list of its 664,579 primes), and SCAN_K_MAX
# bounds the digits of tau_p asked for at each hit prime.
SCAN_P_MAX = 10**7
SCAN_K_MAX = 1000
# The deepest witness chain.  It guards the output, not the work: building a
# chain of depth 1000 factors nothing and takes 3 ms at p = 2, 5 ms at
# p = 100,003.  Its denominators grow to p^depth, so the printed chain grows
# quadratically in depth (156 KB of text at depth 1000 and p = 2), and past
# the interpreter's 4300-digit limit it cannot be printed: at depth 1000 that
# limit is first met at p > 19,952, where the CLI exits 1 with one line.
WITNESS_DEPTH_MAX = 1000


def scan_sh(ctx: RingContext, h: RingElement, p_max: int, k_max: int) -> ShScan:
    """Enumerate residue zeros of h over all primes p <= p_max, reporting
    the maximal depth per prime up to k_max.

    h must be a nonzero integer polynomial, and the box must satisfy
    2 <= p_max <= SCAN_P_MAX and 1 <= k_max <= SCAN_K_MAX; a larger box
    raises BudgetExceeded before any work.  Depth k_max (saturation) is
    evidence of an exact zero only when the spec certifies it; pseudorandom
    digit streams never do.

    The scan pays three costs.  Every prime costs one digit of tau and
    h(tau_p) mod p; the digit comes from the spec's _residue(p, 1), not
    the residue memo, since the scan reads each prime once.  A hit (where
    h(tau_p) = 0 mod p) that the spec certifies exact costs nothing more,
    since an exact zero has depth k_max.  Any other hit costs tau_p mod
    p^k_max through the memo (a Newton lift under a Hensel spec) and h
    evaluated mod p^k_max.  Reading the depth from one deeper residue is
    exact because a spec's answers at different precisions agree, so a
    stream spec hashes one digit, not k_max, at a prime that is not a hit.
    """
    h = as_element(h)
    if h.is_zero:
        raise ValueError("scan requires h != 0")
    if h.den != 1:
        raise ValueError("scan requires an integer polynomial")
    if p_max < 2 or k_max < 1:
        raise ValueError("scan box must satisfy p_max >= 2, k_max >= 1")
    if p_max > SCAN_P_MAX or k_max > SCAN_K_MAX:
        raise BudgetExceeded(
            f"scan box p <= {p_max}, k <= {k_max} is past the limit"
            f" p <= {SCAN_P_MAX}, k <= {SCAN_K_MAX}"
        )
    tau, num = ctx.tau, h.num
    hits = []
    for p in primes_upto(p_max):
        if _eval_mod(num, tau._residue(p, 1), p):
            continue
        if tau.is_exact_root(num, p):
            hits.append(PrimeHit(p, k_max, True, True))
            continue
        val = tau._eval_at(num, p, k_max)
        depth = _valuation(val, p)[0] if val else k_max
        hits.append(PrimeHit(p, depth, depth == k_max, False))
    return ShScan(h, p_max, k_max, tuple(hits))


@dataclass(frozen=True)
class NonUfdWitness(_Record):
    """A strictly descending divisibility chain below h, refuting unique
    factorization.  kind is "prime_power" (h/p, h/p^2, ...) or
    "distinct_primes" (h/p1, h/(p1 p2), ...)."""

    h: RingElement
    kind: str
    primes: tuple[int, ...]
    chain: tuple[RingElement, ...]


def non_ufd_witness(
    ctx: RingContext,
    h: RingElement,
    depth: int,
    p_max: int = 50,
    k_max: int = 8,
) -> NonUfdWitness | None:
    """Search the scan box for a descending divisibility chain of the given
    depth below h, a nonzero integer polynomial (scan_sh checks it).

    A certified exact zero at some prime yields the prime-power chain at
    the smallest such prime; failing that, depth-many distinct hit primes
    yield the distinct-primes chain.  Returns None when neither pattern is
    present, which is inconclusive by design.  A depth past
    WITNESS_DEPTH_MAX raises BudgetExceeded before the scan.

    Membership of each element comes from the scan, not from factoring its
    denominator: an exact zero h(tau_p) = 0 in Z_p puts every h/p^j in the
    ring, and a hit at each of distinct primes puts h over their product
    in it by CRT.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if depth > WITNESS_DEPTH_MAX:
        raise BudgetExceeded(f"witness depth {depth} is past the limit {WITNESS_DEPTH_MAX}")
    scan = scan_sh(ctx, h, p_max, k_max)
    exact = scan.exact_primes()
    if exact:
        kind, primes, steps = "prime_power", exact[:1], exact[:1] * depth
    else:
        kind = "distinct_primes"
        primes = steps = scan.hit_primes()[:depth]
    if len(steps) < depth:
        return None
    chain, n = [], 1
    for p in steps:
        n *= p
        chain.append(RingElement(scan.h.num, n))
    return NonUfdWitness(scan.h, kind, primes, tuple(chain))


def make_zero_on(primes: Iterable[int], base: TauSpec) -> TauSpec:
    """tau_p = 0 at the given primes, base elsewhere: a piecewise spec.  A
    class of primes is a progression: progression(m, residues, zero(), base)."""
    return piecewise({p: zero() for p in primes}, base)
