import math
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieuclid import (
    ONE,
    BudgetExceeded,
    DivisionChain,
    StepBudgetExceeded,
    X,
    ZERO,
    NormTuple,
    NotMemberError,
    RingContext,
    RingElement,
    as_element,
    constant,
    crt_combine,
    factorize,
    hensel,
    log_generic,
    padic,
    phi,
    piecewise,
    poly_eval_mod,
    progression,
    qdiv,
    scan_sh,
    stream,
    zero,
)
from quasieuclid.adversary import integer_mod
from quasieuclid.ring import _combine

from _corpus import TAU_SPECS, member_pair

TAUS = [constant(0), constant(1), constant(5), stream(42), log_generic(7)]


def random_member(ctx, rng, max_deg=4, max_den=60):
    """A random nonzero positive ring member with bounded degree and
    denominator: adjust the constant term so every prime-power condition
    of the denominator is met."""
    deg = rng.randint(0, max_deg)
    n = rng.randint(1, max_den)
    g = [rng.randint(-9, 9) for _ in range(deg + 1)]
    parts = [(p**e, poly_eval_mod(g, ctx.tau, p, e).value) for p, e in factorize(n)]
    c, _ = crt_combine(parts)
    g[0] -= c
    e = RingElement(g, n)
    if e.is_zero:
        return random_member(ctx, rng, max_deg, max_den)
    return abs(e)


# -- membership ---------------------------------------------------------------


def test_half_x_squared_plus_x_is_always_a_member():
    e = RingElement((0, 1, 1), 2)
    for tau in TAUS:
        assert RingContext(tau).is_member(e)


def test_unit_fractions_are_never_members():
    for tau in TAUS:
        ctx = RingContext(tau)
        for n in (2, 3, 4, 30):
            assert not ctx.is_member(RingElement((1,), n))


def test_half_x_membership_matches_parity_of_tau():
    half_x = RingElement((0, 1), 2)
    assert RingContext(constant(0)).is_member(half_x)
    assert not RingContext(constant(1)).is_member(half_x)


def test_integers_are_always_members():
    ctx = RingContext(stream(3))
    for v in (-7, 0, 5):
        assert ctx.is_member(as_element(v))
    assert ctx.make_element((5,)) == as_element(5)


def test_make_element_error_payload():
    ctx = RingContext(constant(1))
    with pytest.raises(NotMemberError) as info:
        ctx.make_element((0, 1), 3)
    err = info.value
    assert (err.prime, err.precision, err.residue) == (3, 1, 1)


def test_membership_is_stable():
    ctx = RingContext(constant(0))
    e = RingElement((0, 1), 2)
    assert ctx.is_member(e) and ctx.is_member(e)


# the product of the primes 2^31 - 1 and 2147483629: trial division would
# take minutes, so a constant tau must answer without factoring it
SEMIPRIME = 2147483647 * 2147483629


@pytest.mark.parametrize("tau, z", [(constant(1), 1), (constant(5), 5), (zero(), 0)])
def test_constant_tau_never_factors(monkeypatch, tau, z):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr("quasieuclid.padic.factorize", refuse)
    ctx = RingContext(tau)
    assert ctx.is_member(RingElement((0, 1), SEMIPRIME)) == (z == 0)
    n = as_element(SEMIPRIME)
    p, s = ctx.divmod(X, n)
    assert p == RingElement((-z, 1), SEMIPRIME) and s == as_element(z)
    assert integer_mod(ctx, X + 3, SEMIPRIME) == z + 3


# -- a non-member's witness reads the parts eval_mod combines --------------------

# (2^61 - 1)(10^18 + 9): past the rho budget, and coprime to every s <= 5000
HARD = (2**61 - 1) * (10**18 + 9)


def _smallest_failing_prime(e, spec, s):
    """(p, v, r) for the smallest prime p of s at which e fails, p^v exactly
    dividing e.den, or None; no factoring of e.den."""
    for p, _ in factorize(s):
        v = 0
        while e.den % p ** (v + 1) == 0:
            v += 1
        r = poly_eval_mod(e.num, spec, p, v).value if v else 0
        if r:
            return p, v, r
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-20, 20),
    st.sampled_from(["constant", "zero", "piecewise"]),
    st.dictionaries(
        st.sampled_from((2, 3, 5, 7, 4999)),
        st.one_of(st.integers(-9, 9).map(constant), st.integers(0, 10**6).map(stream)),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(-9, 9), max_size=3),
    st.integers(-9, 9),
    st.integers(1, 5000),
)
def test_witness_factors_only_the_failing_primes(c, kind, overrides, g, u, s):
    # h = (x - c)*g + HARD*u, so HARD divides h(c): only primes of s can fail
    if kind == "zero":
        c = 0
    default = zero() if kind == "zero" else constant(c)
    spec = piecewise(overrides, default) if kind == "piecewise" else default
    h = (X - c) * RingElement(tuple(g) or (0,)) + as_element(HARD * u)
    e = RingElement(h.num, s * HARD)
    ctx = RingContext(spec)
    want = _smallest_failing_prime(e, spec, s)

    def refuse(n, budget):
        raise AssertionError(f"rho ran on {n}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(padic, "_brent_rho", refuse)
        assert ctx.membership_witness(e) == want
        if want is not None:
            with pytest.raises(NotMemberError, match=rf"mod {want[0]}\^{want[1]}, expected 0$") as info:
                ctx.make_element(e)
            assert (info.value.prime, info.value.precision, info.value.residue) == want


@pytest.mark.parametrize(
    "tau",
    [stream(42), hensel((-2, 0, 1), stream(3)), piecewise({2: constant(1), 7: zero()}, stream(3))],
    ids=repr,
)
def test_witness_factors_nothing_beyond_eval_mod(monkeypatch, tau):
    calls = []
    real = factorize

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr("quasieuclid.padic.factorize", counting)
    ctx = RingContext(tau)
    e = RingElement((1, 2, 3), 2**3 * 3**2 * 5 * 7 * 101 * 10007)
    assert ctx.tau.eval_mod(e.num, e.den) != 0
    made = len(calls)
    assert made == 1
    calls.clear()
    assert ctx.membership_witness(e) is not None
    assert len(calls) == made


def test_witness_names_a_whole_part_it_does_not_split(monkeypatch):
    # neither spec factors HARD, so no rho runs; a small budget would end it fast if one did
    monkeypatch.setattr(padic, "RHO_BUDGET", 1000)
    padic.factorize.cache_clear()
    try:
        ctx = RingContext(zero())
        # h(0) = HARD mod HARD^2: the failing primes are those of HARD, which
        # divides the residue, so the witness is the whole part HARD^2
        e = RingElement((HARD, 1), HARD**2)
        assert ctx.membership_witness(e) == (HARD**2, 1, HARD)
        with pytest.raises(NotMemberError, match="is not in the ring") as info:
            ctx.make_element(e)
        assert (info.value.prime, info.value.precision, info.value.residue) == (HARD**2, 1, HARD)
        assert "rho" not in str(info.value)
        # a failing prime elsewhere is named before the unfactored part
        piece = RingContext(piecewise({3: constant(1)}, zero()))
        assert piece.membership_witness(RingElement((HARD, 1), 3 * HARD**2)) == (3, 1, (HARD + 1) % 3)
    finally:
        padic.factorize.cache_clear()


def test_witness_under_a_factoring_spec_ends_on_the_rho_budget(monkeypatch):
    # a small budget stands in for the default one, which would take seconds
    monkeypatch.setattr(padic, "RHO_BUDGET", 1000)
    padic.factorize.cache_clear()
    try:
        # under a spec that factors the whole denominator, the budget still ends it
        with pytest.raises(padic.FactorBudgetExceeded):
            RingContext(stream(42)).membership_witness(RingElement((0, 1), HARD))
    finally:
        padic.factorize.cache_clear()


@pytest.mark.parametrize(
    "overrides, num, den, want",
    [
        # x/6N: the override fails at 2, and the default's part 3N has no smaller prime
        ({2: constant(1)}, (0, 1), 6 * HARD, (2, 1, 1)),
        # (x + 1)/40N: the override fails at 5, the default's part 8N already at 2
        ({5: constant(1)}, (1, 1), 40 * HARD, (2, 3, 2)),
        # x/3027N: the override fails at 1009, past the trial primes; the default's part 3N at 3
        ({1009: constant(1)}, (0, 1), 3 * 1009 * HARD, (3, 1, 1)),
        # x/10007N: the override fails at 10007, past the trial primes; the
        # default's part N has no prime below it
        ({10007: constant(1)}, (0, 1), 10007 * HARD, (10007, 1, 1)),
        # x/70001N: the override fails at 70001, past _WITNESS_TRIAL_MAX; N
        # is trial-divided below that bound, not factored
        ({70001: constant(1)}, (0, 1), 70001 * HARD, (70001, 1, 1)),
    ],
    ids=[
        "override-2-part-3N",
        "override-5-part-8N",
        "override-1009-part-3N",
        "override-10007-part-N",
        "override-70001-part-N",
    ],
)
def test_a_failed_prime_bounds_the_search_of_a_whole_part(monkeypatch, overrides, num, den, want):
    # N = HARD is past the rho budget: no part of the answer may need rho
    calls = []

    def spy(n, budget):
        calls.append(n)
        raise padic.FactorBudgetExceeded(f"rho ran on {n}")

    monkeypatch.setattr(padic, "_brent_rho", spy)
    ctx = RingContext(piecewise(overrides, constant(1)))
    e = RingElement(num, den)
    assert ctx.membership_witness(e) == want
    with pytest.raises(NotMemberError, match=rf"mod {want[0]}\^{want[1]}, expected 0$"):
        ctx.make_element(e)
    assert calls == []


@pytest.mark.parametrize(
    "tau, num",
    [(constant(1), (0, 1)), (zero(), (1, 1)), (piecewise({3: constant(1)}, constant(1)), (0, 1))],
    ids=["constant", "zero", "piecewise-over-constant"],
)
@pytest.mark.parametrize(
    "den, want",
    [
        (3 * 65537, (3, 1, 1)),
        # no failing prime below the trial bound 2^16: the part is named whole
        (65537 * 1000003, (65537 * 1000003, 1, 1)),
        (65537**2, (65537**2, 1, 1)),
        (HARD, (HARD, 1, 1)),
    ],
    ids=["3-65537", "65537-1000003", "65537-squared", "N"],
)
def test_a_whole_part_is_never_factored(monkeypatch, tau, num, den, want):
    # num evaluates to 1 at tau, so every prime of den fails
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(padic, "factorize", refuse)
    assert RingContext(tau).membership_witness(RingElement(num, den)) == want


# -- phi ------------------------------------------------------------------------


def test_phi_examples():
    assert phi(as_element(5), ZERO) == NormTuple(0, 0, 0, 0, 0)
    assert phi(X, as_element(2)) == NormTuple(0, 2, 0, 1, 1)
    assert phi(as_element(2), X) == NormTuple(1, 1, 1, 1, 2)


def test_phi_ignores_signs():
    a, b = RingElement((1, -3), 2), RingElement((4,), 3)
    assert phi(a, b) == phi(abs(a), abs(b))
    assert phi(-a, b) == phi(a, -b)


def test_phi_zero_dividend():
    assert phi(ZERO, X) == NormTuple(1, 0, 1, 1, 0)
    assert phi(ZERO, ZERO) == NormTuple(0, 0, 0, 0, 0)


# -- divmod -------------------------------------------------------------------


def test_divmod_integer_case():
    ctx = RingContext(constant(0))
    p, s = ctx.divmod(as_element(7), as_element(3))
    assert (p, s) == (as_element(2), as_element(1))


def test_divmod_depends_on_tau():
    p, s = RingContext(constant(1)).divmod(X, as_element(2))
    assert (p, s) == (RingElement((-1, 1), 2), ONE)
    p, s = RingContext(constant(0)).divmod(X, as_element(2))
    assert (p, s) == (RingElement((0, 1), 2), ZERO)


def test_divmod_negative_remainder_branch():
    # exact rational quotient already in the ring, remainder pushed negative
    ctx = RingContext(constant(0))
    q = RingElement((-1, 0, 1))  # x^2 - 1
    p, s = ctx.divmod(q, X)
    assert (p, s) == (RingElement((-1, 1)), RingElement((-1, 1)))
    assert p * X + s == q


def test_divmod_sign_cases():
    ctx = RingContext(constant(0))
    for a, b in [(7, 3), (-7, 3), (7, -3), (-7, -3), (6, 3), (-6, 3), (0, 4)]:
        p, s = ctx.divmod(as_element(a), as_element(b))
        assert int(p) * b + int(s) == a
        assert 0 <= int(s) < abs(b)


def test_divmod_rejects_zero_divisor():
    ctx = RingContext(constant(0))
    with pytest.raises(ZeroDivisionError):
        ctx.divmod(X, ZERO)


def test_divmod_contract_on_random_members():
    rng = random.Random(7)
    for tau in TAUS:
        ctx = RingContext(tau)
        for _ in range(60):
            q = random_member(ctx, rng)
            r = random_member(ctx, rng)
            p, s = ctx.divmod(q, r)
            assert p * r + s == q
            assert ZERO <= s < abs(r)
            assert ctx.is_member(p) and ctx.is_member(s)
            # neighbouring candidates break the remainder range
            assert not (ZERO <= s - r) and not (s + r < abs(r))


ALL_TAU_KINDS = TAUS + [
    hensel((-2, 0, 1), constant(1)),
    piecewise({2: zero(), 3: constant(1)}, stream(3)),
    progression(4, [1], hensel((1, 0, 1), constant(1)), stream(3)),
]


@pytest.mark.parametrize("tau", ALL_TAU_KINDS, ids=repr)
def test_answers_do_not_depend_on_the_residue_memo(tau):
    h, n = (3, -1, 0, 2), 2**3 * 3**2 * 5 * 7**3 * 101 * 10007

    def answers():
        return tau.eval_mod(h, n), scan_sh(RingContext(tau), RingElement((1, 0, 1)), 500, 6).hits

    def clear():
        padic.TauSpec._tau.cache_clear()
        padic.HenselTau._simple_root.cache_clear()

    clear()
    cold = answers()
    warm = answers()
    clear()
    assert answers() == cold == warm


def _flip_divmod(ctx, q, r):
    # The earlier two-path divmod, kept as the reference: a negative
    # dividend divides -q, then maps (p, s) to (-p - 1, r - s).
    if r < ZERO:
        p, s = _flip_divmod(ctx, q, -r)
        return -p, s
    if q >= ZERO:
        return ctx.divmod(q, r)
    p, s = ctx.divmod(-q, r)
    if s.is_zero:
        return -p, s
    return -p - ONE, r - s


@given(
    st.sampled_from(ALL_TAU_KINDS),
    st.integers(0, 2**32),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_divmod_negative_dividends_match_flip_formula(tau, seed, neg_q, neg_r, int_r):
    ctx = RingContext(tau)
    rng = random.Random(seed)
    q = random_member(ctx, rng)
    r = as_element(rng.randint(1, 60)) if int_r else random_member(ctx, rng)
    q, r = (-q if neg_q else q), (-r if neg_r else r)
    p, s = ctx.divmod(q, r)
    assert (p, s) == _flip_divmod(ctx, q, r)
    assert p * r + s == q
    assert ZERO <= s < abs(r)
    assert ctx.is_member(p) and ctx.is_member(s)


def _two_stage_divmod(ctx, q, r):
    # The earlier divmod, kept as the reference: qdiv, then the correction
    # k = p'(tau) mod m as a shift element, then the shift arithmetic.
    if r < ZERO:
        p, s = _two_stage_divmod(ctx, q, -r)
        return -p, s
    pt, st = qdiv(q, r)
    k = ctx.tau.eval_mod(pt.num, pt.den)
    if k == 0:
        if st < ZERO:
            return pt - ONE, st + r
        return pt, st
    shift = RingElement((k,), pt.den)
    return pt - shift, st + shift * r


def _divisor(ctx, rng, shape):
    # "integer", "fraction" (a member with a denominator) or "poly" (any
    # member of degree >= 1)
    if shape == "integer":
        return as_element(rng.randint(1, 60))
    while True:
        r = random_member(ctx, rng)
        if r.degree >= 1 and (shape == "poly" or r.den > 1):
            return r


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_TAU_KINDS),
    st.integers(0, 2**32),
    st.sampled_from(["integer", "fraction", "poly"]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_divmod_matches_two_stage_formula(tau, seed, r_shape, low_q, neg_q, neg_r):
    ctx = RingContext(tau)
    rng = random.Random(seed)
    r = _divisor(ctx, rng, r_shape)
    if low_q and r.degree >= 1:
        q = random_member(ctx, rng, max_deg=r.degree - 1)
    else:
        q = random_member(ctx, rng)
    q, r = (-q if neg_q else q), (-r if neg_r else r)
    p, s = ctx.divmod(q, r)
    assert (p, s) == _two_stage_divmod(ctx, q, r)
    assert p * r + s == q
    assert ZERO <= s < abs(r)


# Equal-degree steps: the quotient is the integer floor(lc q / lc r).  Each
# case is (q, r, p): an integer ratio with q - c*r < 0, a rational ratio,
# negative q, negative r, then r with a denominator under an integer ratio,
# a rational ratio and a negative q.  (x^2 + x)/2 and (3x^2 + x)/2 are
# members under every tau, since tau(tau + 1) and tau(3tau + 1) are even.
EQUAL_DEGREE_CASES = [
    (RingElement((1, 2)), RingElement((1, 1)), ONE),
    (RingElement((0, 3)), RingElement((1, 2)), ONE),
    (RingElement((5, -3)), RingElement((1, 2)), as_element(-2)),
    (RingElement((0, 3)), RingElement((-1, -2)), -ONE),
    (RingElement((0, 1, 3), 2), RingElement((0, 1, 1), 2), as_element(2)),
    (RingElement((1, 0, 2)), RingElement((0, 1, 3), 2), ONE),
    (-RingElement((0, 1, 1), 2), RingElement((0, 1, 1), 2), -ONE),
]


@pytest.mark.parametrize("tau", ALL_TAU_KINDS)
@pytest.mark.parametrize("q, r, p", EQUAL_DEGREE_CASES)
def test_divmod_equal_degree_cases_match_two_stage_formula(tau, q, r, p):
    ctx = RingContext(tau)
    assert ctx.is_member(q) and ctx.is_member(r)
    got = ctx.divmod(q, r)
    assert got == _two_stage_divmod(ctx, q, r)
    assert got == (p, q - p * r)
    assert ZERO <= got[1] < abs(r)


def test_divmod_equal_degree_never_asks_tau(monkeypatch):
    ctx = RingContext(stream(42))

    def refuse(h, n):
        raise AssertionError("an equal-degree step evaluated tau")

    monkeypatch.setattr(ctx.tau, "eval_mod", refuse)
    for q, r, p in EQUAL_DEGREE_CASES:
        assert ctx.divmod(q, r)[0] == p


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_TAU_KINDS),
    st.integers(0, 2**32),
    st.sampled_from(["integer", "fraction", "poly"]),
    st.integers(-3, 3),
    st.booleans(),
)
def test_divmod_equal_degree_matches_two_stage_formula(tau, seed, r_shape, c, neg_r):
    # q = c*r + t with deg t <= deg r: an integer ratio when deg t < deg r
    # (and then t of either sign), a rational one otherwise
    ctx = RingContext(tau)
    rng = random.Random(seed)
    r = _divisor(ctx, rng, r_shape)
    t = random_member(ctx, rng, max_deg=r.degree)
    t = -t if rng.random() < 0.5 else t
    q = c * r + t
    r = -r if neg_r else r
    if q.degree != r.degree:
        return
    p, s = ctx.divmod(q, r)
    assert p.degree <= 0 and p.den == 1
    assert (p, s) == _two_stage_divmod(ctx, q, r)


def test_norm_descent_on_random_chains():
    rng = random.Random(11)
    for tau in TAUS:
        ctx = RingContext(tau)
        for _ in range(25):
            a = random_member(ctx, rng)
            b = random_member(ctx, rng)
            chain = ctx.qe_chain(a, b)
            pairs = [(a, b)]
            prev, cur = a, b
            for r in chain.remainders:
                pairs.append((cur, r))
                prev, cur = cur, r
            norms = [phi(x, y) for x, y in pairs]
            for before, after in zip(norms, norms[1:]):
                assert after < before


def test_members_are_closed_under_ring_ops():
    rng = random.Random(13)
    for tau in TAUS:
        ctx = RingContext(tau)
        for _ in range(25):
            a = random_member(ctx, rng)
            b = random_member(ctx, rng)
            assert ctx.is_member(a + b)
            assert ctx.is_member(a * b)
            assert ctx.is_member(a - b)


# -- chains --------------------------------------------------------------------


def test_qe_chain_classic_euclid():
    ctx = RingContext(constant(0))
    chain = ctx.qe_chain(8, 5)
    assert [int(q) for q in chain.quotients] == [1, 1, 1, 2]
    assert [int(r) for r in chain.remainders] == [3, 2, 1, 0]


def test_qe_chain_on_equal_inputs():
    ctx = RingContext(stream(2))
    chain = ctx.qe_chain(X + 1, X + 1)
    assert [q for q in chain.quotients] == [ONE]
    assert chain.remainders == (ZERO,)


def test_qe_chain_polynomial_example():
    ctx = RingContext(constant(0))
    chain = ctx.qe_chain(RingElement((0, 5), 3), X)
    assert list(chain.quotients) == [ONE, ONE, as_element(2)]
    assert list(chain.remainders) == [
        RingElement((0, 2), 3),
        RingElement((0, 1), 3),
        ZERO,
    ]


def test_qe_chain_rejects_non_members():
    ctx = RingContext(constant(1))
    with pytest.raises(NotMemberError):
        ctx.qe_chain(RingElement((0, 1), 2), X)


def test_qe_chain_step_budget_is_loud():
    from quasieuclid import StepBudgetExceeded

    ctx = RingContext(constant(0))
    with pytest.raises(StepBudgetExceeded):
        ctx.qe_chain(8, 5, max_steps=1)


def test_step_budget_message_is_short_for_huge_inputs():
    # the message names the budget, not the pair, so it needs no printing
    # of an integer past the interpreter's digit limit
    ctx = RingContext(constant(0))
    a = RingElement((1, 2**20000))
    with pytest.raises(StepBudgetExceeded, match="exceeded 1 steps") as info:
        ctx.qe_chain(a, 3 * X, max_steps=1)
    assert len(str(info.value)) < 200
    assert isinstance(info.value, BudgetExceeded) and isinstance(info.value, RuntimeError)


def test_non_member_past_the_digit_limit_raises_not_member_error():
    ctx = RingContext(constant(1))
    with pytest.raises(NotMemberError, match="is not in the ring") as info:
        ctx.make_element(RingElement((0, 1), 2**20000))
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in str(info.value)
    with pytest.raises(NotMemberError, match=r"^x/2 is not in the ring: numerator evaluates to 1 mod 2\^1, expected 0$"):
        ctx.make_element(RingElement((0, 1), 2))


def test_qe_chain_rejects_nonpositive_step_budget():
    ctx = RingContext(constant(0))
    for max_steps in (0, -1):
        with pytest.raises(ValueError, match="max_steps must be positive"):
            ctx.qe_chain(8, 5, max_steps=max_steps)


def test_qe_chain_rejects_zero_divisor():
    ctx = RingContext(constant(0))
    with pytest.raises(ZeroDivisionError, match="^chain requires b != 0$"):
        ctx.qe_chain(X, ZERO)


def test_qe_chain_zero_dividend():
    ctx = RingContext(constant(0))
    chain = ctx.qe_chain(ZERO, as_element(4))
    assert chain.quotients == (ZERO,)
    assert chain.remainders == (ZERO,)


def test_qe_chain_and_gcd_handle_negative_inputs():
    ctx = RingContext(constant(0))
    chain = ctx.qe_chain(-8, 5)
    assert chain.terminating
    for r in chain.remainders[:-1]:
        assert ZERO < r
    for a, b in [(-8, 5), (8, -5), (-8, -5)]:
        g, u, v = ctx.gcd_bezout(a, b)
        assert int(g) == 1
        assert int(u) * a + int(v) * b == 1


def test_chain_consistency_invariants():
    rng = random.Random(17)
    ctx = RingContext(stream(42))
    for _ in range(40):
        a = random_member(ctx, rng)
        b = random_member(ctx, rng)
        chain = ctx.qe_chain(a, b)
        assert chain.terminating
        rems = [b, *chain.remainders]
        for before, after in zip(rems, rems[1:]):
            if not after.is_zero:
                assert ZERO < after < abs(before)


# -- gcd -------------------------------------------------------------------------


def _egcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def test_gcd_examples():
    ctx = RingContext(constant(0))
    g, u, v = ctx.gcd_bezout(8, 5)
    assert (int(g), int(u), int(v)) == (1, 2, -3)
    g, u, v = ctx.gcd_bezout(X, 2)
    assert (g, u, v) == (as_element(2), ZERO, ONE)
    g, u, v = ctx.gcd_bezout(as_element(7), ZERO)
    assert (g, u, v) == (as_element(7), ONE, ZERO)
    g, u, v = ctx.gcd_bezout(as_element(-7), ZERO)
    assert (g, u, v) == (as_element(7), -ONE, ZERO)


def test_gcd_matches_integer_oracle():
    rng = random.Random(23)
    ctx = RingContext(stream(5))
    for _ in range(100):
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        g, u, v = ctx.gcd_bezout(a, b)
        og, ou, ov = _egcd(a, b)
        assert int(g) == og == math.gcd(a, b)
        assert (int(u), int(v)) == (ou, ov)
        assert int(u) * a + int(v) * b == int(g)


def test_gcd_divides_both_in_ring():
    rng = random.Random(29)
    for tau in (constant(0), constant(1), stream(42)):
        ctx = RingContext(tau)
        for _ in range(15):
            a = random_member(ctx, rng, max_deg=2, max_den=12)
            b = random_member(ctx, rng, max_deg=2, max_den=12)
            g, u, v = ctx.gcd_bezout(a, b)
            assert g > ZERO
            assert u * a + v * b == g
            assert ctx.divides(g, a) and ctx.divides(g, b)


def test_gcd_with_zero_checks_membership():
    ctx = RingContext(constant(1))
    third_x = RingElement((0, 1), 3)
    with pytest.raises(NotMemberError):
        ctx.gcd_bezout(third_x, ZERO)
    with pytest.raises(NotMemberError):
        ctx.gcd_bezout(ZERO, third_x)


def test_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        RingContext(constant(0)).gcd_bezout(ZERO, ZERO)


def _matrix_bezout(ctx, a, b):
    # The earlier gcd_bezout, kept as the reference: accumulate the 2x2
    # elementary step matrices along the canonical chain.
    a, b = as_element(a), as_element(b)
    if b.is_zero:
        g, u, v = ctx.make_element(a), ONE, ZERO
    else:
        m00, m01, m10, m11 = ONE, ZERO, ZERO, ONE
        for q in ctx.qe_chain(a, b).quotients:
            m00, m01, m10, m11 = m10, m11, m00 - q * m10, m01 - q * m11
        g, u, v = m00 * a + m01 * b, m00, m01
    if g < ZERO:
        g, u, v = -g, -u, -v
    return g, u, v


def test_gcd_matches_matrix_form_on_corpus_pairs():
    rng = random.Random(20240811)
    for make in TAU_SPECS.values():
        ctx = RingContext(make())
        for _ in range(1000):
            a, b = member_pair(ctx, rng)
            assert ctx.gcd_bezout(a, b) == _matrix_bezout(ctx, a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_TAU_KINDS),
    st.integers(0, 2**32),
    st.sampled_from(["random", "b_divides_a", "a_zero", "low_degree_a"]),
    st.booleans(),
    st.booleans(),
)
def test_gcd_matches_matrix_form(tau, seed, shape, neg_a, neg_b):
    ctx = RingContext(tau)
    rng = random.Random(seed)
    b = random_member(ctx, rng)
    if shape == "b_divides_a":
        a = b * random_member(ctx, rng, max_deg=2, max_den=12)
    elif shape == "a_zero":
        a = ZERO
    elif shape == "low_degree_a":
        b = _divisor(ctx, rng, "poly")
        a = random_member(ctx, rng, max_deg=b.degree - 1)
    else:
        a = random_member(ctx, rng)
    a, b = (-a if neg_a else a), (-b if neg_b else b)
    g, u, v = ctx.gcd_bezout(a, b)
    assert (g, u, v) == _matrix_bezout(ctx, a, b)
    assert g > ZERO and u * a + v * b == g


def test_gcd_checks_its_cofactor_exactly(monkeypatch):
    # a quotient sequence that is not the chain of (a, b) leaves g - u*a
    # outside b's multiples; the check is a raise, so it holds under -O
    ctx = RingContext(constant(0))
    monkeypatch.setattr(ctx, "_chain", lambda a, b, n: (DivisionChain(a, b, (ZERO, ONE)), as_element(3)))
    with pytest.raises(RuntimeError, match="not exact"):
        ctx.gcd_bezout(X * X, X + 1)


def _stepwise_pair(quots, w, u):
    # x_{i+1} = x_{i-1} - c_i*x_i one quotient at a time, from (x_0, x_1) = (w, u)
    for c in quots:
        w, u = u, w - as_element(c) * u
    return w, u


@pytest.mark.parametrize(
    "quots, first_row",
    [((7,), (0, 1)), ((-3,), (0, 1)), ((0,), (0, 1)), ((5, -1, 1, 4), (0, -1)), ((-2, -1, 1, 0), (0, -1))],
)
def test_combine_first_row_zero_gives_plus_or_minus_u(quots, first_row):
    m, n = (1, 0), (0, 1)  # the rows of the quotients' matrix
    for c in quots:
        m, n = n, (m[0] - c * n[0], m[1] - c * n[1])
    assert m == first_row
    w, u = RingElement((1, 2, 3), 5), RingElement((-4, 0, 1), 7)
    assert _combine(list(quots), w, u) == _stepwise_pair(quots, w, u)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8), st.integers(0, 2**32))
def test_combine_matches_stepwise_recurrence(quots, seed):
    rng = random.Random(seed)
    ctx = RingContext(constant(0))
    w, u = random_member(ctx, rng), random_member(ctx, rng)
    assert _combine(quots, w, u) == _stepwise_pair(quots, w, u)


# -- runs of equal-degree steps -------------------------------------------------


def _stepwise(ctx, a, b):
    # The step-at-a-time reference for the run loop: one ctx.divmod per
    # quotient, with the cofactor of a carried beside the remainders.
    # Returns the chain's quotients and (g, u, v).
    a, b = as_element(a), as_element(b)
    quots, prev, cur = [], a, b
    g, u_prev, u = b, ONE, ZERO
    while True:
        p, s = ctx.divmod(prev, cur)
        quots.append(p)
        if s.is_zero:
            break
        g, u_prev, u = s, u, u_prev - p * u
        prev, cur = cur, s
    v, rem = qdiv(g - u * a, b)
    assert rem.is_zero
    if g < ZERO:
        g, u, v = -g, -u, -v
    return quots, (g, u, v)


def _chain_from_quotients(ctx, rng, kinds):
    # (a, b, quotients) for the chain whose quotients are drawn by kind,
    # built backwards from a random gcd: x_{i-1} = q_i*x_i + x_{i+1} with
    # 0 <= x_{i+1} < x_i, so by the uniqueness of division q_i is the
    # chain's i-th quotient.  An integer quotient is exact in lc exactly when
    # x_{i+1} has lower degree than x_i, or the same degree and the same
    # leading coefficient (then divmod takes its s < 0 branch); so integer
    # kinds around "poly" put exact ratios at the first, middle and last
    # position of an equal-degree stretch.  "zero" is a first quotient 0
    # (a < b).
    x, nxt = random_member(ctx, rng, max_deg=2, max_den=12), ZERO
    quots = []
    for i, kind in enumerate(reversed(kinds)):
        if kind == "poly":
            q = random_member(ctx, rng, max_deg=2, max_den=12)
            q = q if q.degree >= 1 else q + X
        elif kind == "zero" and i == len(kinds) - 1 and not nxt.is_zero:
            q = ZERO
        else:
            q = as_element(int(kind) if kind.isdigit() else 1)
            if nxt.is_zero and q == ONE:
                q = as_element(2)
        x, nxt = q * x + nxt, x
        quots.append(q)
    return x, nxt, quots[::-1]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_TAU_KINDS),
    st.integers(0, 2**32),
    st.lists(st.sampled_from(["1", "2", "3", "5", "poly", "zero"]), min_size=1, max_size=12),
    st.booleans(),
    st.booleans(),
)
def test_runs_match_stepwise_divmod(tau, seed, kinds, neg_a, neg_b):
    ctx = RingContext(tau)
    rng = random.Random(seed)
    a, b, quots = _chain_from_quotients(ctx, rng, kinds)
    if not (neg_a or neg_b):
        assert list(ctx.qe_chain(a, b).quotients) == quots
    a, b = (-a if neg_a else a), (-b if neg_b else b)
    ref_quots, ref_bezout = _stepwise(ctx, a, b)
    assert list(ctx.qe_chain(a, b).quotients) == ref_quots
    assert ctx.gcd_bezout(a, b) == ref_bezout


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(ALL_TAU_KINDS),
    st.integers(0, 2**32),
    st.booleans(),
    st.booleans(),
)
def test_runs_match_stepwise_divmod_on_random_pairs(tau, seed, neg_a, neg_b):
    ctx = RingContext(tau)
    rng = random.Random(seed)
    a, b = random_member(ctx, rng), random_member(ctx, rng)
    a, b = (-a if neg_a else a), (-b if neg_b else b)
    ref_quots, ref_bezout = _stepwise(ctx, a, b)
    assert list(ctx.qe_chain(a, b).quotients) == ref_quots
    assert ctx.gcd_bezout(a, b) == ref_bezout


def test_step_budget_counts_every_quotient_of_a_run():
    # F_30*x + 1 over F_29*x: one run of 27 quotients 1, the exact ratio
    # F_3/F_2 = 2, then integer Euclid on the constants; the budget is met
    # exactly by the chain's length and broken at every smaller value,
    # inside the run included
    from quasieuclid import StepBudgetExceeded, fibonacci

    ctx = RingContext(constant(0))
    a, b = RingElement((1, fibonacci(30))), RingElement((0, fibonacci(29)))
    quots, _ = _stepwise(ctx, a, b)
    assert ctx.qe_chain(a, b, max_steps=len(quots)).quotients == tuple(quots)
    for max_steps in (1, 5, 27, 28, len(quots) - 1):
        with pytest.raises(StepBudgetExceeded, match=f"exceeded {max_steps} steps"):
            ctx.qe_chain(a, b, max_steps=max_steps)


# -- the context's last chain ------------------------------------------------------

MEMO_TAUS = [constant(0), constant(5), stream(42), log_generic(7), hensel((-2, 0, 1), constant(1))]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MEMO_TAUS), st.integers(0, 2**32), st.booleans(), st.booleans())
def test_replayed_chains_match_fresh_contexts(tau, seed, neg_a, same):
    # qe_chain(A), gcd_bezout(A), qe_chain(B), gcd_bezout(A), qe_chain(A) on
    # one context, against a fresh context per call; B shares A's dividend
    # (or is A itself), so the memo must key on both elements
    rng = random.Random(seed)
    ctx = RingContext(tau)
    a, b, c = (random_member(ctx, rng) for _ in range(3))
    A = (-a if neg_a else a, b)
    B = A if same else (A[0], c)
    calls = [("qe_chain", A), ("gcd_bezout", A), ("qe_chain", B), ("gcd_bezout", A), ("qe_chain", A)]
    got = [getattr(ctx, name)(*pair) for name, pair in calls]
    want = [getattr(RingContext(tau), name)(*pair) for name, pair in calls]
    assert got == want
    assert [ch.remainders for ch in got[::2]] == [ch.remainders for ch in want[::2]]
    assert ctx.qe_chain(*A) is got[4]


def test_a_repeated_pair_runs_no_division_membership_or_tau_query(monkeypatch):
    tau = stream(42)
    rng = random.Random(5)
    ctx = RingContext(tau)
    a, b = random_member(ctx, rng), random_member(ctx, rng)
    chain = ctx.qe_chain(a, b)
    want = RingContext(tau).gcd_bezout(a, b)

    def recomputed(*args):
        raise AssertionError("the chain was computed again")

    monkeypatch.setattr(RingContext, "_divmod", recomputed)
    monkeypatch.setattr(RingContext, "make_element", recomputed)
    monkeypatch.setattr(type(tau), "eval_mod", recomputed)
    assert ctx.gcd_bezout(a, b) == want
    assert ctx.qe_chain(a, b) is chain
    assert ctx.gcd_bezout(a, b) == want


def test_a_non_member_pair_raises_right_after_a_hit():
    ctx = RingContext(constant(1))
    a, b = X + 1, as_element(2)
    half_x = RingElement((0, 1), 2)  # not a member under tau = 1
    ctx.qe_chain(a, b)
    for call in (ctx.qe_chain, ctx.gcd_bezout):
        for pair in ((half_x, b), (a, half_x)):
            ctx.gcd_bezout(a, b)
            with pytest.raises(NotMemberError):
                call(*pair)


def test_a_new_tau_on_the_context_is_a_new_chain():
    ctx = RingContext(constant(0))
    assert ctx.qe_chain(X, 2).quotients == (RingElement((0, 1), 2),)
    ctx.tau = constant(1)
    assert ctx.qe_chain(X, 2) == RingContext(constant(1)).qe_chain(X, 2)
    assert ctx.gcd_bezout(X, 2) == RingContext(constant(1)).gcd_bezout(X, 2)


def test_a_hit_keeps_every_step_budget():
    # F_5010*x + 1 over F_5009*x: past gcd_bezout's budget of 10,000
    # quotients, within a qe_chain budget of 20,000; a miss that raises
    # leaves the last chain in place
    from quasieuclid import fibonacci

    ctx = RingContext(constant(0))
    a, b = RingElement((1, fibonacci(5010))), RingElement((0, fibonacci(5009)))
    chain = ctx.qe_chain(a, b, max_steps=20_000)
    assert 10_000 < chain.length <= 20_000
    for context in (ctx, RingContext(constant(0))):
        with pytest.raises(StepBudgetExceeded, match="exceeded 10000 steps"):
            context.gcd_bezout(a, b)
        with pytest.raises(StepBudgetExceeded, match=f"exceeded {chain.length - 1} steps"):
            context.qe_chain(a, b, max_steps=chain.length - 1)
    with pytest.raises(StepBudgetExceeded):
        ctx.qe_chain(8, 5, max_steps=1)
    assert ctx.qe_chain(a, b, max_steps=chain.length) is chain


def test_a_shared_context_matches_one_thread_under_many():
    # more threads than cores, each alternating over the pairs from its
    # own offset, with the interpreter switching threads every few
    # microseconds; every result must equal the single-thread reference
    tau = stream(42)
    rng = random.Random(11)
    pairs = [(random_member(RingContext(tau), rng), random_member(RingContext(tau), rng)) for _ in range(5)]
    want = [(RingContext(tau).qe_chain(a, b), RingContext(tau).gcd_bezout(a, b)) for a, b in pairs]
    ctx = RingContext(tau)
    results, errors = [], []

    def work(offset):
        try:
            for i in range(100):
                j = (offset + i) % len(pairs)
                chain, bezout = ctx.qe_chain(*pairs[j]), ctx.gcd_bezout(*pairs[j])
                results.append((j, chain, chain.remainders, bezout))
        except BaseException as exc:  # reported below, in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + 60
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not t.is_alive(), "a thread did not finish within 60 s"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(results) == 8 * 100
    for j, chain, remainders, bezout in results:
        assert (chain, bezout) == want[j]
        assert remainders == want[j][0].remainders


# -- divisibility ----------------------------------------------------------------


def test_divides_examples():
    ctx0 = RingContext(constant(0))
    assert ctx0.divides(as_element(2), X)
    assert not ctx0.divides(X, RingElement((1, 0, 1)))
    assert not RingContext(constant(1)).divides(as_element(3), X)
    with pytest.raises(ZeroDivisionError):
        ctx0.divides(ZERO, X)
    # x/3 is not a member under tau = 1, whichever side it is on
    third_x = RingElement((0, 1), 3)
    for a, b in ((third_x, X), (ONE, third_x)):
        with pytest.raises(NotMemberError):
            RingContext(constant(1)).divides(a, b)
