"""Division chains: construction, quotient-sign normalization, and the
comparison of arbitrary chains against the canonical div/mod chain.

A chain from (a, b) is determined by its quotient sequence; remainders
follow from r_1 = a - q_1 b and r_{i+1} = r_{i-1} - q_{i+1} r_i.  DivisionChain
takes only (a, b, quotients) and derives the remainders on first read, then
caches them, so the recurrence holds by construction and every
transformation below is a rewrite of the quotient tuple alone.

A record's JSON form is the object of its fields (poly._Record); a
DivisionChain adds its derived remainders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .poly import ZERO, ONE, RingElement, _fields_json, _json, _Record, _submul, as_element

if TYPE_CHECKING:  # pragma: no cover
    from .ring import RingContext


@dataclass(frozen=True)
class DivisionChain:
    """The chain from (a, b) with the given quotients; b must be nonzero.

    The remainders are not passed in: they are derived on first read from
    r_1 = a - q_1 b and r_{i+1} = r_{i-1} - q_{i+1} r_i, then cached.
    Equality and hashing use (a, b, quotients), which determine them.  A
    zero-length chain (no quotients) is allowed; its last remainder is b
    itself.  The chain is terminating when the last remainder is zero.
    """

    a: RingElement
    b: RingElement
    quotients: tuple[RingElement, ...]

    def __post_init__(self) -> None:
        if self.b.is_zero:
            raise ValueError("chain requires b != 0")

    @cached_property
    def remainders(self) -> tuple[RingElement, ...]:
        rems = []
        prev, cur = self.a, self.b
        for q in self.quotients:
            prev, cur = cur, _submul(prev, q, cur)
            rems.append(cur)
        return tuple(rems)

    @property
    def length(self) -> int:
        return len(self.quotients)

    @property
    def last_remainder(self) -> RingElement:
        return self.remainders[-1] if self.remainders else self.b

    @property
    def terminating(self) -> bool:
        return self.length > 0 and self.remainders[-1].is_zero

    @property
    def positive_tail(self) -> bool:
        """All quotients beyond the first are positive."""
        return all(q > ZERO for q in self.quotients[1:])

    def to_json(self) -> dict:
        return {**_fields_json(self), "remainders": _json(self.remainders)}

    def __str__(self) -> str:
        qs = ", ".join(str(q) for q in self.quotients)
        rs = ", ".join(str(r) for r in self.remainders)
        return f"chain from ({self.a}, {self.b}): quotients [{qs}], remainders [{rs}]"


def build_chain(a, b, quotients: Iterable, ctx: "RingContext | None" = None) -> DivisionChain:
    """Derive the chain from (a, b) with the given quotients.

    When a context is supplied, a, b, and every quotient must belong to its
    ring (remainders then belong automatically, by closure).
    """
    a, b = as_element(a), as_element(b)
    qs = tuple(as_element(q) for q in quotients)
    if ctx is not None:
        for e in (a, b, *qs):
            ctx.make_element(e)
    return DivisionChain(a, b, qs)


# --------------------------------------------------------------------------
# Quotient-sign rewrites.


def t1(c: DivisionChain) -> DivisionChain:
    """Rewrite away the first negative quotient beyond position one.

    The offending segment (..., q_i, q_{i+1} < 0, q_{i+2}, ...) becomes
    (..., q_i - 1, 1, -(q_{i+1} + 1), -q_{i+2}, ...); the chain grows by one
    step and the absolute value of the last remainder is unchanged.
    Identity when no quotient beyond the first is negative.  A quotient
    strictly between -1 and 0 raises ValueError: -(q + 1) would be negative
    again, so the rewrite measure would not drop.  Ring quotients never lie
    there, because the ring meets Q in Z.
    """
    qs = c.quotients
    idx = next((j for j in range(1, len(qs)) if qs[j] < ZERO), None)
    if idx is None:
        return c
    if qs[idx] > -ONE:
        raise ValueError(f"quotient {qs[idx]} lies strictly between -1 and 0")
    new_q = (
        qs[: idx - 1]
        + (qs[idx - 1] - ONE, ONE, -(qs[idx] + ONE))
        + tuple(-q for q in qs[idx + 1 :])
    )
    return DivisionChain(c.a, c.b, new_q)


def t2(c: DivisionChain) -> DivisionChain:
    """Remove the first zero quotient beyond position one.

    Interior zeros merge the surrounding quotients and drop two steps; a
    trailing zero truncates the chain by two.  The absolute value of the
    last remainder is unchanged.  Identity when no such quotient exists.
    """
    qs = c.quotients
    idx = next((j for j in range(1, len(qs)) if qs[j].is_zero), None)
    if idx is None:
        return c
    if idx + 1 == len(qs):
        new_q = qs[: idx - 1]
    else:
        new_q = qs[: idx - 1] + (qs[idx - 1] + qs[idx + 1],) + qs[idx + 2 :]
    return DivisionChain(c.a, c.b, new_q)


def rewrite_measure(c: DivisionChain) -> tuple[int, int]:
    """The termination measure (n, k) driving normalize_positive.

    n is the distance from the last position to the earliest negative
    quotient beyond the first (0 when there is none); k is the length.
    The pair strictly decreases lexicographically at every rewrite step.
    """
    qs = c.quotients
    k = len(qs)
    n = max((k - j for j in range(1, k) if qs[j] < ZERO), default=0)
    return n, k


def normalize_steps(c: DivisionChain) -> Iterator[tuple[str, DivisionChain]]:
    """Yield ("t1"|"t2", chain) rewrite steps until the tail is positive.

    Zero quotients are removed before negative ones: t2 is tried before t1,
    and the walk stops when both return the chain unchanged.  Each t1 lowers
    n and each t2 drops two quotients without raising n, (n, k) the rewrite
    measure of c, so at most n + (k + n)/2 <= n + k rewrites come first.
    """
    n, k = rewrite_measure(c)
    for _ in range(n + k + 1):
        for op, rewrite in (("t2", t2), ("t1", t1)):
            out = rewrite(c)
            if out is not c:
                break
        else:
            return
        c = out
        yield op, c
    raise RuntimeError("chain normalization failed to terminate (bug)")


def normalize_positive(c: DivisionChain) -> DivisionChain:
    """Rewrite a chain from a positive pair until all quotients beyond the
    first are positive, preserving |last remainder|.

    The result has length at most 2k - 1, and at most k + n where (n, k) is
    the initial rewrite measure.
    """
    if not (c.a > ZERO and c.b > ZERO):
        raise ValueError("normalization requires a, b > 0")
    if c.length == 0:
        raise ValueError("normalization requires a nonempty chain")
    out = c
    for _op, out in normalize_steps(c):
        pass
    return out


# --------------------------------------------------------------------------
# Comparison against the canonical chain.


class ComparisonRow(NamedTuple):
    index: int
    remainder_abs: RingElement
    bound: RingElement
    ok: bool


@dataclass(frozen=True)
class ChainComparison(_Record):
    """Per-index lower bounds on |r_l| in terms of the canonical remainders.

    rows holds the two-for-one bound |r_l| >= f_{2l} for l up to
    min(k, n/2).  When every quotient beyond the first is positive, final
    additionally records |r_k| >= f_{k+1} (with f extended by zeros past
    the canonical chain's end).
    """

    chain: DivisionChain
    canonical: DivisionChain
    rows: tuple[ComparisonRow, ...]
    final: ComparisonRow | None
    ok: bool


def compare_to_qe(ctx: "RingContext", c: DivisionChain) -> ChainComparison:
    """Check a chain from a positive pair against the div/mod chain."""
    if not (c.a > ZERO and c.b > ZERO):
        raise ValueError("comparison requires a, b > 0")
    qe = ctx.qe_chain(c.a, c.b)
    f = (c.b,) + qe.remainders
    n = qe.length
    rows = []
    for l in range(1, min(c.length, n // 2) + 1):
        val = abs(c.remainders[l - 1])
        bound = f[2 * l]
        rows.append(ComparisonRow(l, val, bound, val >= bound))
    final = None
    if c.length >= 1 and c.positive_tail:
        k = c.length
        bound = f[k + 1] if k + 1 <= n else ZERO
        val = abs(c.remainders[-1])
        final = ComparisonRow(k, val, bound, val >= bound)
    ok = all(r.ok for r in rows) and (final is None or final.ok)
    return ChainComparison(c, qe, tuple(rows), final, ok)


# --------------------------------------------------------------------------
# Fibonacci extremality.


def fibonacci(n: int) -> int:
    """F_n with F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError("index must be positive")
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
    return b if n > 1 else a


def _euclid_trace(a: int, b: int) -> list[int]:
    # remainder sequence of ordinary integer division, ending in 0
    out = []
    while b:
        a, b = b, a % b
        out.append(b)
    return out


def fib_pair_for(k: int) -> tuple[int, int]:
    """(F_{2k+3}, F_{2k+2}), whose Euclid chain has 2k + 1 > 2k steps, so no
    integer chain of length <= k from it terminates; a shorter one is a bug."""
    if k < 1:
        raise ValueError("k must be positive")
    c, d = fibonacci(2 * k + 3), fibonacci(2 * k + 2)
    if len(_euclid_trace(c, d)) <= 2 * k:
        raise RuntimeError(f"the Fibonacci pair for k = {k} is too short (bug)")
    return c, d


def fibonacci_witness(
    k: int, pair: tuple[int, int] | None = None
) -> tuple[tuple[int, int], DivisionChain]:
    """A consecutive-Fibonacci pair and a length-k chain meeting the
    two-for-one bound with equality: |r_l| = f_{2l} for every l <= k.

    The default pair is fib_pair_for(k); the chain divides to the nearest
    multiple, with quotients 2, -3, 3, -3, ...  A supplied pair is rejected
    when its division chain is too short to cover index 2k, or when the
    standard chain misses the bound on it.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if pair is None:
        pair = fib_pair_for(k)
    big, small = pair
    if not (big > small > 0):
        raise ValueError(f"pair {pair} is not a decreasing positive pair")
    f = [small] + _euclid_trace(big, small)
    n = len(f) - 1
    if n < 2 * k + 1:
        raise ValueError(
            f"pair {pair} has a division chain of length {n}, too short to witness k={k}"
        )
    quots = [2] + [(-3 if t % 2 == 0 else 3) for t in range(k - 1)]
    chain = build_chain(big, small, quots)
    for l in range(1, k + 1):
        if abs(chain.remainders[l - 1]) != f[2 * l]:
            raise ValueError(f"pair {pair} does not meet the bound at index {l}")
    return pair, chain
