import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasieuclid import (
    X,
    ZERO,
    BudgetExceeded,
    RingContext,
    RingElement,
    adversarial_pair,
    as_element,
    build_chain,
    constant,
    degree_retention_check,
    fib_pair_for,
    hat,
    integer_mod,
    log_generic,
    make_zero_on,
    piecewise,
    stream,
    zero,
)
from quasieuclid import adversary

from _corpus import random_member
from test_ring import ALL_TAU_KINDS

TAUS = [constant(0), constant(1), constant(5), stream(42), log_generic(7)]


def test_k_at_the_limit_completes_and_past_it_is_refused(monkeypatch):
    # at the limit the canonical chain has about 4k quotients, within
    # qe_chain's budget of 10,000; past it no work starts
    ctx = RingContext(zero())
    k, b = adversary.ADVERSARY_K_MAX, RingElement((3, 1, 2))
    a = adversarial_pair(ctx, k, b)
    assert degree_retention_check(ctx, k, a, b).verdict

    def no_work(*args):
        raise AssertionError("work started past the limit")

    monkeypatch.setattr(adversary, "fib_pair_for", no_work)
    for big in (k + 1, 10**5):
        with pytest.raises(BudgetExceeded, match="past the limit"):
            adversarial_pair(ctx, big, b)
        with pytest.raises(BudgetExceeded, match="past the limit"):
            degree_retention_check(ctx, big, a, b)


def _euclid_length(c, d):
    steps = 0
    while d:
        c, d = d, c % d
        steps += 1
    return steps


# -- fibonacci pairs ------------------------------------------------------------


def test_fib_pair_values():
    assert fib_pair_for(1) == (5, 3)
    assert fib_pair_for(2) == (13, 8)
    assert fib_pair_for(3) == (34, 21)


def test_fib_pair_chain_length_guarantee():
    for k in range(1, 8):
        c, d = fib_pair_for(k)
        assert _euclid_length(c, d) > 2 * k


def test_fib_pair_is_f_2k_plus_3_over_f_2k_plus_2():
    fib = [0, 1]
    while len(fib) < 2 * 300 + 4:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 301):
        assert fib_pair_for(k) == (fib[2 * k + 3], fib[2 * k + 2]), k


def test_fib_pair_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        fib_pair_for(0)


# -- integer offsets ---------------------------------------------------------------


def test_integer_mod_examples():
    assert integer_mod(RingContext(constant(0)), X, 3) == 0
    assert integer_mod(RingContext(constant(1)), X, 3) == 1
    assert integer_mod(RingContext(stream(42)), as_element(7), 4) == 3


def test_integer_mod_trivial_modulus():
    assert integer_mod(RingContext(constant(5)), X, 1) == 0


def test_integer_mod_divides_in_ring():
    # the defining property: (b - beta)/d is a member, and beta in [0, d)
    cases = [
        (constant(0), X, 6),
        (constant(1), X + 2, 15),
        (constant(5), RingElement((0, 1, 1), 2), 21),
        (stream(42), RingElement((0, 1, 1), 2), 8),
        (log_generic(7), X, 12),
    ]
    for tau, b, d in cases:
        ctx = RingContext(tau)
        beta = integer_mod(ctx, b, d)
        assert 0 <= beta < d
        shifted = b - beta
        assert ctx.is_member(RingElement(shifted.num, shifted.den * d))


def test_integer_mod_uniqueness_by_enumeration():
    # rational b whose denominator shares a prime p with d: p | den(b), p | d
    half = RingElement((0, 1, 1), 2)     # (x^2 + x)/2, a member for every tau
    sixth = RingElement((0, -1, 0, 1), 6)  # (x^3 - x)/6, likewise
    cases = [
        (constant(5), X + 2, 12),
        (constant(1), half, 12),
        (constant(0), half, 8),
        (stream(42), half, 8),
        (stream(42), sixth, 18),
        (log_generic(7), sixth, 36),
        (constant(5), sixth, 21),
        (make_zero_on([2], stream(3)), RingElement((0, 1), 4), 24),
    ]
    for tau, b, d in cases:
        ctx = RingContext(tau)
        beta = integer_mod(ctx, b, d)
        hits = []
        for t in range(d):
            shifted = b - t
            if ctx.is_member(RingElement(shifted.num, shifted.den * d)):
                hits.append(t)
        assert hits == [beta], (tau, b, d)


# -- adversarial pairs ----------------------------------------------------------------


def test_adversarial_pair_examples():
    assert adversarial_pair(RingContext(constant(0)), 1, X) == RingElement((0, 5), 3)
    assert adversarial_pair(RingContext(constant(1)), 1, X) == RingElement((-5, 5), 3)


def test_adversarial_pair_rejects_constants():
    with pytest.raises(ValueError):
        adversarial_pair(RingContext(constant(0)), 1, as_element(5))


def test_adversarial_pair_validates_b_alone(monkeypatch):
    seen = []
    witness = RingContext.membership_witness

    def counting(self, e):
        seen.append(e)
        return witness(self, e)

    monkeypatch.setattr(RingContext, "membership_witness", counting)
    b = RingElement((3, 1, 2))
    adversarial_pair(RingContext(stream(42)), 3, b)
    assert seen == [b]


def test_degree_retention_validates_a_and_b_once(monkeypatch):
    seen = []
    witness = RingContext.membership_witness

    def counting(self, e):
        seen.append(e)
        return witness(self, e)

    ctx = RingContext(stream(42))
    b = RingElement((3, 1, 2))
    a = adversarial_pair(ctx, 3, b)
    monkeypatch.setattr(RingContext, "membership_witness", counting)
    assert degree_retention_check(ctx, 3, a, b).verdict
    assert seen == [a, b]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TAU_KINDS), st.integers(0, 2**32), st.integers(1, 6))
def test_adversarial_pair_is_a_member_without_a_check(tau, seed, k):
    # the membership that adversarial_pair no longer checks: (b - beta)/d
    # is a member by the choice of beta, and c is an integer
    ctx = RingContext(tau)
    b = random_member(ctx, random.Random(seed), max_deg=3, max_den=60)
    assume(b.degree >= 1)
    c, d = fib_pair_for(k)
    a = adversarial_pair(ctx, k, b)
    assert ctx.is_member(a)
    assert a == RingElement((c,), d) * (b - integer_mod(ctx, b, d))


def test_k_below_one_is_refused_before_any_ring_work():
    # b is not read: x/2 is no member under constant(1), and under stream(42)
    # the denominator of the last b takes seconds of rho, then its budget
    cases = [
        (constant(1), RingElement((0, 1), 2)),
        (constant(0), RingElement((0, 1), 2)),
        (stream(42), RingElement((0, 1), 4183542477244270516926559302647)),
    ]
    for tau, b in cases:
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be positive"):
                adversarial_pair(RingContext(tau), k, b)


def test_adversarial_pair_negates_cleanly():
    ctx = RingContext(constant(0))
    assert adversarial_pair(ctx, 1, -X) == -adversarial_pair(ctx, 1, X)


def test_degree_retention_frozen_case():
    ctx = RingContext(constant(0))
    a = adversarial_pair(ctx, 1, X)
    report = degree_retention_check(ctx, 1, a, X)
    assert (report.c, report.d, report.beta) == (5, 3, 0)
    assert report.degrees == (1, 1)
    assert report.verdict


def test_degree_retention_grid():
    bs = [X, X + 2, RingElement((0, 1, 1), 2)]
    for tau in TAUS:
        ctx = RingContext(tau)
        for k in (1, 2, 3):
            for b in bs:
                a = adversarial_pair(ctx, k, b)
                report = degree_retention_check(ctx, k, a, b)
                assert report.verdict, (tau.to_json(), k, str(b))
                assert all(dg >= b.degree for dg in report.degrees)
                assert len(report.degrees) == 2 * k


B2 = RingElement((3, 1, 2))  # 2x^2 + x + 3


@pytest.mark.parametrize(
    "tau, k, b",
    [
        (stream(42), 60, B2),
        (stream(42), 100, B2),
        (log_generic(7), 100, X),
        (log_generic(7), 100, B2),
        (piecewise({2: constant(1)}, zero()), 1000, X),
    ],
    ids=["stream-60", "stream-100", "log_generic-100-x", "log_generic-100-b2", "piecewise-1000"],
)
def test_degree_retention_past_the_old_factoring_cliff(tau, k, b):
    # the chain denominators hold products of Fibonacci numbers F_j, j <= 2k + 3,
    # past rho's budget as a whole
    ctx = RingContext(tau)
    a = adversarial_pair(ctx, k, b)
    assert degree_retention_check(ctx, k, a, b).verdict


def test_degree_retention_rejects_foreign_pairs():
    ctx = RingContext(constant(0))
    with pytest.raises(ValueError):
        degree_retention_check(ctx, 1, X + 1, X)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_TAU_KINDS), st.integers(0, 2**32), st.integers(1, 6))
def test_degree_retention_reads_beta_off_the_pair(tau, seed, k):
    # beta = b - (d/c)a computes no residue, yet it is integer_mod's beta
    ctx = RingContext(tau)
    b = random_member(ctx, random.Random(seed), max_deg=3, max_den=60)
    assume(b.degree >= 1 and b > ZERO)
    a = adversarial_pair(ctx, k, b)

    def no_residue(*args):
        raise AssertionError("degree_retention_check computed a residue")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversary, "_member_mod", no_residue)
        report = degree_retention_check(ctx, k, a, b)
    assert report.beta == integer_mod(ctx, b, report.d)


@pytest.mark.parametrize(
    "foreign",
    [
        lambda a, c, d: a - RingElement((c,), d),  # not a member
        lambda a, c, d: a - c,  # beta + d, past [0, d)
        lambda a, c, d: a + c,  # beta - d, below [0, d)
        lambda a, c, d: 2 * a,  # beta not an integer
    ],
    ids=["a-c/d", "a-c", "a+c", "2a"],
)
def test_degree_retention_rejects_pairs_off_by_a_multiple(foreign):
    ctx = RingContext(constant(0))
    c, d = fib_pair_for(1)
    a = adversarial_pair(ctx, 1, X)
    with pytest.raises(ValueError):
        degree_retention_check(ctx, 1, foreign(a, c, d), X)


def test_report_json_shape():
    ctx = RingContext(constant(0))
    a = adversarial_pair(ctx, 1, X)
    data = degree_retention_check(ctx, 1, a, X).to_json()
    assert set(data) == {"k", "b", "c", "d", "beta", "a", "degrees", "verdict"}
    assert data["verdict"] is True


# -- hat projection -----------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: integer_mod(RingContext(zero()), X, 0), "modulus must be positive"),
        (lambda: integer_mod(RingContext(zero()), X, -3), "modulus must be positive"),
        (
            lambda: degree_retention_check(RingContext(zero()), 1, RingElement((0, -5), 3), -X),
            "b must be positive; negate the pair first",
        ),
        (lambda: hat(0, X, X), "scale d must be positive"),
    ],
    ids=["integer_mod_0", "integer_mod_negative", "retention_negative_b", "hat_0"],
)
def test_adversary_rejects_arguments_out_of_range(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_hat_examples():
    assert hat(3, X, RingElement((0, 5), 3)) == 5
    assert hat(3, X, ZERO) == 0
    assert hat(3, X, RingElement((0, 2), 3)) == 2
    with pytest.raises(ZeroDivisionError):
        hat(3, ZERO, X)


nonzero_elements = st.builds(
    RingElement,
    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
    st.integers(1, 10**6),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), nonzero_elements, st.one_of(st.just(ZERO), nonzero_elements))
def test_hat_is_the_leading_coefficient_ratio(d, b, r):
    h = hat(d, b, r)
    assert type(h) is Fraction
    assert h == d * r.lc / b.lc


def test_hat_projects_canonical_chain_to_integer_chain():
    for tau in TAUS:
        ctx = RingContext(tau)
        for k in (1, 2):
            for b in (X, RingElement((0, 1, 1), 2)):
                a = adversarial_pair(ctx, k, b)
                report = degree_retention_check(ctx, k, a, b)
                assert report.verdict
                qe = ctx.qe_chain(a, b)
                quots = qe.quotients[: 2 * k]
                rems = qe.remainders[: 2 * k]
                assert hat(report.d, b, a) == report.c
                assert hat(report.d, b, b) == report.d
                hats = [hat(report.d, b, r) for r in rems]
                assert all(h.denominator == 1 for h in hats)
                int_quots = [int(q) for q in quots]
                projected = build_chain(report.c, report.d, int_quots)
                assert [int(h) for h in hats] == [int(r) for r in projected.remainders]
                assert all(h != 0 for h in hats)
