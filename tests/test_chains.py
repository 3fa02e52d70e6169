import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasieuclid import (
    ONE,
    X,
    ZERO,
    DivisionChain,
    NotMemberError,
    RingContext,
    RingElement,
    as_element,
    build_chain,
    compare_to_qe,
    constant,
    fibonacci,
    fibonacci_witness,
    normalize_positive,
    normalize_steps,
    rewrite_measure,
    t1,
    t2,
)
from quasieuclid import chains

CTX = RingContext(constant(0))


def ints(values):
    return [int(v) for v in values]


def random_int_chain(rng, max_k=6):
    b = rng.randint(1, 987)
    a = rng.randint(1, 1597)
    k = rng.randint(1, max_k)
    quotients = [rng.randint(-4, 4) for _ in range(k)]
    return build_chain(a, b, quotients)


# -- construction ------------------------------------------------------------


def test_build_chain_examples():
    assert ints(build_chain(7, 3, [1, 0, 1]).remainders) == [4, 3, 1]
    assert ints(build_chain(7, 3, [2]).remainders) == [1]
    assert ints(build_chain(13, 8, [2]).remainders) == [-3]


def test_build_chain_rejects_zero_b():
    with pytest.raises(ValueError):
        build_chain(7, 0, [1])


def test_build_chain_checks_membership_with_context():
    ctx = RingContext(constant(1))
    half_x = RingElement((0, 1), 2)
    with pytest.raises(NotMemberError):
        build_chain(X, as_element(2), [half_x], ctx=ctx)
    # same quotient is fine when tau is even
    chain = build_chain(X, as_element(2), [half_x], ctx=CTX)
    assert chain.remainders == (ZERO,)
    # membership is checked before the chain itself rejects b = 0
    with pytest.raises(NotMemberError):
        build_chain(half_x, 0, [], ctx=ctx)


def test_remainders_are_derived_on_first_read_and_cached():
    # a context hands its last chain back, so the unread twin comes from a
    # second context
    chain, unread = CTX.qe_chain(13, 8), RingContext(constant(0)).qe_chain(13, 8)
    assert CTX.qe_chain(13, 8) is chain
    assert "remainders" not in vars(chain)
    rems = chain.remainders
    assert ints(rems) == [5, 3, 2, 1, 0]
    assert chain.remainders is rems
    assert "remainders" not in vars(unread)
    assert chain == unread and hash(chain) == hash(unread)
    with pytest.raises(FrozenInstanceError):
        chain.remainders = ()


def test_last_remainder_of_empty_chain_is_b():
    chain = build_chain(7, 3, [])
    assert chain.last_remainder == as_element(3)
    assert not chain.terminating


# -- rewrites -----------------------------------------------------------------


def test_t1_examples():
    c = build_chain(7, 3, [3, -1])
    assert ints(c.remainders) == [-2, 1]
    rewritten = t1(c)
    assert ints(rewritten.quotients) == [2, 1, 0]
    assert ints(rewritten.remainders) == [1, 2, 1]

    c = build_chain(5, 3, [2, -1])
    assert ints(c.remainders) == [-1, 2]
    rewritten = t1(c)
    assert ints(rewritten.quotients) == [1, 1, 0]
    assert ints(rewritten.remainders) == [2, 1, 2]


def test_t1_identity_when_tail_positive():
    c = build_chain(7, 3, [-2, 2, 1])  # leading quotient is exempt
    assert t1(c) is c


def test_t1_rejects_quotient_between_minus_one_and_zero():
    # -(q + 1) = -1/2 is negative again, so t1 and t2 would cycle forever
    c = build_chain(X * X + 1, X, [X, -RingElement((1,), 2), 1])
    with pytest.raises(ValueError, match="strictly between -1 and 0"):
        t1(c)
    with pytest.raises(ValueError, match="strictly between -1 and 0"):
        normalize_positive(c)


def test_t2_examples():
    c = build_chain(7, 3, [1, 0, 1])
    rewritten = t2(c)
    assert ints(rewritten.quotients) == [2]
    assert ints(rewritten.remainders) == [1]

    c = build_chain(7, 3, [2, 1, 0])  # trailing zero truncates
    rewritten = t2(c)
    assert ints(rewritten.quotients) == [2]
    assert ints(rewritten.remainders) == [1]


def test_t2_identity_without_zeros():
    c = build_chain(7, 3, [1, 1])
    assert t2(c) is c


def test_t2_can_empty_a_chain():
    c = build_chain(7, 3, [2, 0])
    rewritten = t2(c)
    assert rewritten.length == 0
    assert rewritten.last_remainder == as_element(3)


def test_rewrites_preserve_last_remainder_magnitude():
    rng = random.Random(5)
    for _ in range(300):
        c = random_int_chain(rng)
        for op in (t1, t2):
            assert abs(op(c).last_remainder) == abs(c.last_remainder)


# -- normalization ----------------------------------------------------------------


def test_normalize_composite_example():
    c = build_chain(7, 3, [3, -1])
    result = normalize_positive(c)
    assert ints(result.quotients) == [2]
    assert ints(result.remainders) == [1]


def test_normalize_identity_on_positive_chain():
    c = build_chain(13, 8, [1, 1, 1])
    assert normalize_positive(c) == c


def test_normalize_longer_example():
    c = build_chain(13, 8, [2, -2, -2])
    assert ints(c.remainders) == [-3, 2, 1]
    result = normalize_positive(c)
    assert result.positive_tail
    assert abs(result.last_remainder) == ONE
    n, k = rewrite_measure(c)
    assert result.length <= 2 * c.length - 1
    assert result.length <= c.length + n


def test_normalize_rejects_bad_starts():
    with pytest.raises(ValueError):
        normalize_positive(build_chain(-7, 3, [1]))
    with pytest.raises(ValueError):
        normalize_positive(build_chain(7, 3, []))


def test_normalize_bounds_and_measure_on_random_chains():
    rng = random.Random(6)
    for _ in range(300):
        c = random_int_chain(rng)
        n0, k0 = rewrite_measure(c)
        measure = (n0, k0)
        steps = 0
        final = c
        for _op, nxt in normalize_steps(c):
            new_measure = rewrite_measure(nxt)
            assert new_measure < measure
            measure = new_measure
            final = nxt
            steps += 1
        assert final.positive_tail
        assert abs(final.last_remainder) == abs(c.last_remainder)
        assert final.length <= 2 * c.length - 1
        assert final.length <= c.length + n0


@pytest.mark.parametrize("k", [200, 400])
def test_normalize_alternating_chains_stay_within_the_rewrite_bound(k):
    # (1, 2, -2, 2, -2, ...): a t1 at every second quotient, and the
    # t2 merges it leaves behind
    c = build_chain(10**6, 1, [1] + [2 if i % 2 == 0 else -2 for i in range(k - 1)])
    n, length = rewrite_measure(c)
    steps = list(normalize_steps(c))
    assert 0 < len(steps) <= n + length
    assert steps[-1][1].positive_tail


def test_normalize_steps_reports_a_rewrite_loop_after_the_bound(monkeypatch):
    # a t2 that never settles: the walk stops after n + k + 1 rewrites,
    # n + k derived from the chain, not from a fixed constant
    monkeypatch.setattr(chains, "t2", lambda c: DivisionChain(c.a, c.b, c.quotients))
    c = build_chain(7, 3, [2, 1, -1, 1])
    n, k = rewrite_measure(c)
    steps = []
    with pytest.raises(RuntimeError, match="failed to terminate"):
        for step in normalize_steps(c):
            steps.append(step)
    assert len(steps) == n + k + 1 == 7


def reference_normalize_steps(c):
    # the selection loop that scans the quotients itself before rewriting
    while True:
        qs = c.quotients
        if any(qs[j].is_zero for j in range(1, len(qs))):
            c = t2(c)
            yield "t2", c
        elif any(qs[j] < ZERO for j in range(1, len(qs))):
            c = t1(c)
            yield "t1", c
        else:
            return


@given(
    a=st.integers(-50, 50),
    b=st.integers(-50, 50).filter(bool),
    quotients=st.lists(st.integers(-3, 3), max_size=12),
)
@example(a=X * X + 1, b=X, quotients=[X, 0, -X, 3, 0, 2 - X * X, RingElement((0, -1), 2), -1])
def test_normalize_steps_matches_reference_selection(a, b, quotients):
    c = build_chain(a, b, quotients)
    assert list(normalize_steps(c)) == list(reference_normalize_steps(c))


# -- comparison against the canonical chain -----------------------------------------


def test_compare_fibonacci_tightness():
    c = build_chain(13, 8, [2])
    report = compare_to_qe(CTX, c)
    assert ints(r.remainder_abs for r in report.rows) == [3]
    assert ints(r.bound for r in report.rows) == [3]
    assert report.ok


def test_compare_chain_with_itself():
    chain = CTX.qe_chain(8, 5)
    report = compare_to_qe(CTX, chain)
    assert report.ok
    assert all(row.ok for row in report.rows)
    assert report.final is not None and report.final.ok


def test_compare_random_integer_chains():
    rng = random.Random(9)
    for _ in range(300):
        c = random_int_chain(rng)
        assert compare_to_qe(CTX, c).ok


def test_compare_random_chains_from_fixed_pair():
    rng = random.Random(10)
    for _ in range(500):
        k = rng.randint(1, 5)
        c = build_chain(13, 8, [rng.randint(-3, 3) for _ in range(k)])
        report = compare_to_qe(CTX, c)
        assert all(row.ok for row in report.rows)


def test_compare_requires_positive_start():
    with pytest.raises(ValueError):
        compare_to_qe(CTX, build_chain(-13, 8, [2]))


def test_compare_handles_mid_chain_zero_remainder():
    c = build_chain(8, 4, [2, 0, 1])  # terminates immediately, then idles
    assert ints(c.remainders) == [0, 4, -4]
    report = compare_to_qe(CTX, c)
    assert report.ok


def test_normalize_terminal_zero_to_empty_chain():
    c = build_chain(7, 3, [1, 0])
    result = normalize_positive(c)
    assert result.length == 0
    assert abs(result.last_remainder) == abs(c.last_remainder) == as_element(3)


# -- fibonacci witness ----------------------------------------------------------------


def test_fibonacci_sequence():
    assert [fibonacci(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fibonacci(0), "index must be positive"),
        (lambda: fibonacci_witness(0), "k must be positive"),
        (lambda: fibonacci_witness(1, pair=(8, 13)), "pair (8, 13) is not a decreasing positive pair"),
        (lambda: fibonacci_witness(1, pair=(5, 0)), "pair (5, 0) is not a decreasing positive pair"),
    ],
    ids=["fibonacci_0", "witness_0", "increasing_pair", "zero_pair"],
)
def test_fibonacci_helpers_reject_bad_arguments(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_witness_values():
    pair, chain = fibonacci_witness(1)
    assert pair == (5, 3)
    assert ints(chain.quotients) == [2]
    pair, chain = fibonacci_witness(2)
    assert pair == (13, 8)
    assert ints(chain.quotients) == [2, -3]
    pair, chain = fibonacci_witness(3)
    assert pair == (34, 21)
    assert ints(chain.quotients) == [2, -3, 3]


def test_witness_achieves_equality():
    for k in (1, 2, 3, 4, 5, 6):
        pair, chain = fibonacci_witness(k)
        report = compare_to_qe(CTX, chain)
        f = (chain.b,) + report.canonical.remainders
        for l in range(1, k + 1):
            assert abs(chain.remainders[l - 1]) == f[2 * l]


def test_witness_rejects_short_pairs():
    with pytest.raises(ValueError):
        fibonacci_witness(1, pair=(2, 1))
    with pytest.raises(ValueError):
        fibonacci_witness(1, pair=(10, 7))  # not a bound-tight pair
    pair, chain = fibonacci_witness(1, pair=(13, 8))  # larger pair still works
    assert ints(chain.remainders) == [-3]
