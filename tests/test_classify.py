import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasieuclid import (
    X,
    BudgetExceeded,
    RingContext,
    RingElement,
    TauSpec,
    as_element,
    classify,
    constant,
    hensel,
    log_generic,
    make_zero_on,
    non_ufd_witness,
    padic,
    piecewise,
    poly_eval_mod,
    primes_upto,
    progression,
    qdiv,
    scan_sh,
    stream,
    tau_from_json,
    zero,
)

X2_MINUS_2 = RingElement((-2, 0, 1))


# -- scans ---------------------------------------------------------------------


def test_scan_universal_root_saturates_every_prime():
    ctx = RingContext(constant(0))
    scan = scan_sh(ctx, X, 50, 8)
    assert scan.hit_primes() == tuple(primes_upto(50))
    assert all(hit.depth == 8 and hit.saturated and hit.exact for hit in scan.hits)


def test_scan_unit_value_hits_nothing():
    ctx = RingContext(constant(0))
    assert scan_sh(ctx, X + 1, 50, 8).hits == ()


def test_scan_hensel_quadratic_residues():
    ctx = RingContext(hensel((-2, 0, 1), constant(1)))
    scan = scan_sh(ctx, X2_MINUS_2, 50, 8)
    assert scan.saturated_primes() == (7, 17, 23, 31, 41, 47)
    assert scan.exact_primes() == (7, 17, 23, 31, 41, 47)
    assert scan.hit_primes() == scan.saturated_primes()


def test_scan_soundness_reverified():
    ctx = RingContext(stream(12))
    h = RingElement((0, 1, 1))  # x^2 + x hits at 2 always
    scan = scan_sh(ctx, h, 50, 6)
    assert 2 in scan.hit_primes()
    for hit in scan.hits:
        assert poly_eval_mod(h.num, ctx.tau, hit.prime, hit.depth).value == 0
        if not hit.saturated:
            assert poly_eval_mod(h.num, ctx.tau, hit.prime, hit.depth + 1).value != 0
        assert not hit.exact  # streams never certify exact zeros


def test_scan_validates_inputs():
    ctx = RingContext(zero())
    with pytest.raises(ValueError):
        scan_sh(ctx, as_element(0), 50, 8)
    with pytest.raises(ValueError):
        scan_sh(ctx, RingElement((0, 1), 2), 50, 8)
    with pytest.raises(ValueError):
        scan_sh(ctx, X, 50, 0)


def test_scan_box_past_the_limit_raises_before_sieving(monkeypatch):
    ctx = RingContext(zero())

    def no_sieve(limit):
        raise AssertionError("sieved past the limit")

    monkeypatch.setattr(classify, "primes_upto", no_sieve)
    for p_max, k_max in [(classify.SCAN_P_MAX + 1, 8), (10**11, 8), (50, classify.SCAN_K_MAX + 1)]:
        with pytest.raises(BudgetExceeded, match="past the limit"):
            scan_sh(ctx, X, p_max, k_max)
        with pytest.raises(BudgetExceeded):
            non_ufd_witness(ctx, X, 2, p_max=p_max, k_max=k_max)
    assert issubclass(BudgetExceeded, ValueError)
    monkeypatch.setattr(classify, "primes_upto", lambda limit: [2])
    assert scan_sh(ctx, X, classify.SCAN_P_MAX, 8).hit_primes() == (2,)


def test_witness_depth_past_the_limit_is_refused_before_the_scan(monkeypatch):
    ctx = RingContext(zero())
    deepest = non_ufd_witness(ctx, X, classify.WITNESS_DEPTH_MAX)
    assert deepest.primes == (2,) and deepest.chain[-1] == RingElement((0, 1), 2**classify.WITNESS_DEPTH_MAX)

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned past the depth limit")

    monkeypatch.setattr(classify, "scan_sh", no_scan)
    for depth in (classify.WITNESS_DEPTH_MAX + 1, 10**6):
        with pytest.raises(BudgetExceeded, match="past the limit"):
            non_ufd_witness(ctx, X, depth)


def test_scan_at_the_k_limit():
    scan = scan_sh(RingContext(zero()), X, 20, classify.SCAN_K_MAX)
    assert scan.hit_primes() == tuple(primes_upto(20))
    assert all(hit.saturated and hit.depth == classify.SCAN_K_MAX for hit in scan.hits)


# -- one digit per prime ------------------------------------------------------------


class CountingTau(TauSpec):
    """Another spec's residues, with a record of every (p, k) asked for,
    through the memo or (a scan's first digit) straight from _residue."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.asked = []

    def _tau(self, p, k):
        self.asked.append((p, k))
        return self.inner._tau(p, k)

    def _residue(self, p, k):
        self.asked.append((p, k))
        return self.inner._tau(p, k)

    def is_exact_root(self, h, p):
        return self.inner.is_exact_root(h, p)


def _eager_scan(spec, h, p_max, k_max):
    """The scan as it ran before: tau_p mod p^k_max at every prime."""
    hits = []
    for p in primes_upto(p_max):
        val = poly_eval_mod(h, spec, p, k_max).value
        depth = k_max
        if val:
            depth = 0
            while val % p == 0:
                val //= p
                depth += 1
        if depth:
            hits.append((p, depth, depth == k_max, spec.is_exact_root(h, p)))
    return hits


SCAN_SPECS = {
    "constant": lambda: constant(4),
    "zero": lambda: zero(),
    "stream": lambda: stream(5),
    "log_generic": lambda: log_generic(7),
    "hensel": lambda: hensel((-2, 0, 1), stream(1)),
    "piecewise": lambda: piecewise({2: zero(), 3: constant(1), 7: stream(9)}, log_generic(3)),
    "progression": lambda: progression(4, [1], constant(2), hensel((-7, 0, 1), zero())),
}


@pytest.mark.parametrize("k_max", [1, 2, 8, 16])
@pytest.mark.parametrize("make", SCAN_SPECS.values(), ids=SCAN_SPECS.keys())
def test_scan_asks_for_k_max_digits_only_at_hits(make, k_max):
    h = (-6, 11, -6, 1)  # (x - 1)(x - 2)(x - 3): a hit wherever tau_p = 1, 2, 3 mod p
    spec = CountingTau(make())
    scan = scan_sh(RingContext(spec), RingElement(h), 300, k_max)
    asked = {}
    for p, k in spec.asked:
        asked.setdefault(p, []).append(k)
    primes = primes_upto(300)
    zeros = [p for p in primes if poly_eval_mod(h, spec.inner, p, 1).value == 0]
    assert zeros and len(zeros) < len(primes)
    assert list(asked) == primes
    exact = [p for p in zeros if spec.inner.is_exact_root(h, p)]
    for p in primes:  # one digit first; k_max digits only at a hit not certified exact
        assert asked[p] == ([1, k_max] if p in zeros and p not in exact else [1]), p
    assert list(scan.hit_primes()) == zeros
    assert [(hit.prime, hit.depth, hit.saturated, hit.exact) for hit in scan.hits] == _eager_scan(
        make(), h, 300, k_max
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SCAN_SPECS)),
    st.lists(st.integers(-12, 12), min_size=2, max_size=4).filter(lambda h: h[-1] != 0),
    st.integers(2, 200),
    st.sampled_from([1, 2, 8, 16]),
)
def test_lazy_scan_matches_the_eager_reference(kind, h, p_max, k_max):
    scan = scan_sh(RingContext(SCAN_SPECS[kind]()), RingElement(h), p_max, k_max)
    got = [(hit.prime, hit.depth, hit.saturated, hit.exact) for hit in scan.hits]
    assert got == _eager_scan(SCAN_SPECS[kind](), tuple(h), p_max, k_max)


# -- zeros a spec decides by algebra ------------------------------------------------

# 3x^2 + x - 5 has no root mod 2, 3 divides its leading coefficient and its
# discriminant is 61; the cubics take the root finder's path
NON_MONIC = (-5, 1, 3)
HOOK_POLYS = [(-2, 0, 1), NON_MONIC, (1, 0, 1), (-1, -1, 0, 1), (-2, 0, 0, 1)]


@st.composite
def hook_cases(draw):
    """A spec with a constant or Hensel part, and an h that its Hensel poly
    f divides, that vanishes at its constant c, or neither."""
    f = draw(st.sampled_from(HOOK_POLYS))
    c = draw(st.integers(-3, 3))
    fallback = draw(
        st.sampled_from([constant(c), stream(c % 5), hensel((-7, 0, 1), constant(c))])
    )
    part = hensel(f, fallback)
    spec = draw(
        st.sampled_from(
            [
                part,
                hensel(f, constant(c)),
                constant(c),
                piecewise({2: zero(), 3: constant(c)}, part),
                progression(3, [1], part, constant(c)),
            ]
        )
    )
    g = RingElement(tuple(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3).filter(lambda g: g[-1]))))
    factor = draw(st.sampled_from([RingElement(f), RingElement((-c, 1)), RingElement((1,))]))
    return spec, (factor * g).num


@settings(max_examples=120, deadline=None)
@given(hook_cases(), st.integers(2, 3000), st.sampled_from([1, 2, 8]))
@example((hensel(NON_MONIC, constant(1)), (-5, -4, 4, 3)), 3000, 8)  # f·(x + 1)
@example((hensel((-2, 0, 1), constant(1)), (-4, -2, 2, 1)), 3000, 8)  # f·(x + 2): 3 from h(1) = -3
@example((constant(2), (-2, 1)), 3000, 8)  # h(c) = 0
@example((constant(1), (3, 0, 1)), 3000, 8)  # h(c) = 4
def test_a_specs_zeros_match_the_eager_reference(case, p_max, k_max):
    spec, h = case
    scan = scan_sh(RingContext(spec), RingElement(h), p_max, k_max)
    got = [(hit.prime, hit.depth, hit.saturated, hit.exact) for hit in scan.hits]
    assert got == _eager_scan(spec, h, p_max, k_max)


@pytest.mark.parametrize("poly", [(), (0,), (0, 0, 0)])
def test_a_zero_hensel_poly_scans_as_its_fallback(poly):
    # no root to lift anywhere, and no division by the zero poly
    for fallback, h in [(constant(3), (-3, 1)), (constant(3), (0, 1)), (zero(), (0, 1))]:
        got = scan_sh(RingContext(hensel(poly, fallback)), RingElement(h), 200, 8)
        assert got.hits == scan_sh(RingContext(fallback), RingElement(h), 200, 8).hits


def test_a_non_monic_quadratic_decides_its_odd_primes_by_euler():
    # 3x^3 + 4x^2 - 4x - 5 = (3x^2 + x - 5)(x + 1): exact wherever the
    # quadratic has a simple root; elsewhere tau_p = 1 and h(1) = -2
    spec = hensel(NON_MONIC, constant(1))
    scan = scan_sh(RingContext(spec), RingElement((-5, -4, 4, 3)), 3000, 8)
    hits = {hit.prime: hit for hit in scan.hits}
    assert len(hits) == 208
    assert (hits[2].depth, hits[2].saturated, hits[2].exact) == (1, False, False)
    assert hits[3].exact and hits[3].saturated  # 3 | lc: the root of x - 5 mod 3
    assert 61 not in hits  # a double root mod 61 is not simple, and 61 does not divide -2


def test_certified_exact_hits_ask_for_one_digit_only():
    # x^2 - 2 under its own Hensel spec: tau_p is a root of it wherever 2 is
    # a square mod an odd p, that is at p = +-1 mod 8, so no lift is needed
    spec = CountingTau(hensel((-2, 0, 1), constant(1)))
    scan = scan_sh(RingContext(spec), X2_MINUS_2, 20000, classify.SCAN_K_MAX)
    assert {k for _, k in spec.asked} == {1}
    roots = tuple(p for p in primes_upto(20000) if p % 8 in (1, 7))
    assert scan.saturated_primes() == scan.exact_primes() == scan.hit_primes() == roots
    assert all(hit.depth == classify.SCAN_K_MAX for hit in scan.hits)


# Factors that some spec of SCAN_SPECS has as an exact root at some prime.
EXACT_FACTORS = [(1,), (0, 1), (-4, 1), (-2, 1), (-1, 1), (-3, 1), (-2, 0, 1), (-7, 0, 1)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SCAN_SPECS)),
    st.sampled_from(EXACT_FACTORS),
    st.lists(st.integers(-12, 12), min_size=1, max_size=3).filter(lambda g: g[-1] != 0),
)
def test_exact_root_is_a_zero_at_every_precision(kind, factor, g):
    spec = SCAN_SPECS[kind]()
    h = (RingElement(factor) * RingElement(tuple(g))).num
    for p in primes_upto(60):
        if spec.is_exact_root(h, p):
            assert poly_eval_mod(h, spec, p, 64).value == 0, p


# -- exact flags from one divisibility test per h -------------------------------------


def _exact_reference(spec, h, p):
    """HenselTau.is_exact_root as it was, with a qdiv at every prime."""
    if padic._least_simple_root(spec.poly, padic._derivative(spec.poly), p) is None:
        return spec.fallback.is_exact_root(h, p)
    return qdiv(RingElement(h), RingElement(spec.poly))[1].is_zero


@pytest.mark.parametrize(
    "h",
    [
        (-2, 0, 1),  # f itself: exact at every root prime
        (2, -2, -1, 1),  # (x - 1)(x^2 - 2): hits everywhere, exact everywhere
        (-2, -2, 1, 1),  # (x + 1)(x^2 - 2)
        (-1, 1),  # x - 1: hits where the fallback constant 1 is, exact there
        (-3, 1),  # x - 3: a hit at 7 that is not exact
        (4, 0, -1),  # 4 - x^2 = 2 - f: one hit, at 3 from the fallback, not exact
    ],
)
def test_exact_flags_unchanged_under_the_memo(h):
    spec = hensel((-2, 0, 1), constant(1))
    scan = scan_sh(RingContext(spec), RingElement(h), 400, 6)
    assert scan.hits
    for hit in scan.hits:
        assert hit.exact == _exact_reference(spec, h, hit.prime), hit


# x^2 - 2 under its own Hensel spec, alone and as the Hensel part of a split spec
HENSEL_X2_MINUS_2 = {
    "hensel": lambda: hensel((-2, 0, 1), constant(1)),
    "piecewise": lambda: piecewise({2: zero()}, hensel((-2, 0, 1), constant(1))),
    "progression": lambda: progression(8, [1, 7], hensel((-2, 0, 1), constant(1)), constant(1)),
}


def test_exact_root_runs_one_division_per_h(monkeypatch):
    calls = []

    def counting_qdiv(a, b):
        calls.append((a, b))
        return qdiv(a, b)

    monkeypatch.setattr(padic, "qdiv", counting_qdiv)
    for make in HENSEL_X2_MINUS_2.values():
        calls.clear()
        scan = scan_sh(RingContext(make()), X2_MINUS_2, 2000, 8)
        assert len(scan.exact_primes()) > 100
        assert len(calls) == 1


@pytest.mark.parametrize("kind", ["piecewise", "progression"])
def test_a_hensel_part_decides_its_primes_by_euler(monkeypatch, kind):
    # every odd prime the Hensel part answers takes one Euler power, and the
    # split spec gives p = 2 (no simple root of x^2 - 2) to its constant part
    calls, least_simple_root = [], padic._least_simple_root

    def counting_root(f, deriv, p):
        calls.append(p)
        return least_simple_root(f, deriv, p)

    monkeypatch.setattr(padic, "_least_simple_root", counting_root)
    scan = scan_sh(RingContext(HENSEL_X2_MINUS_2[kind]()), X2_MINUS_2, 20000, 8)
    assert len(scan.exact_primes()) > 1000
    assert calls == []


# -- witnesses ------------------------------------------------------------------


def test_prime_power_witness():
    ctx = RingContext(constant(0))
    witness = non_ufd_witness(ctx, X, 4)
    assert witness is not None
    assert witness.kind == "prime_power"
    assert witness.primes == (2,)
    assert list(witness.chain) == [
        RingElement((0, 1), 2),
        RingElement((0, 1), 4),
        RingElement((0, 1), 8),
        RingElement((0, 1), 16),
    ]


def test_distinct_primes_witness():
    # tau = 30 zeroes x at 2, 3, 5 but certifies no exact root
    ctx = RingContext(constant(30))
    witness = non_ufd_witness(ctx, X, 3)
    assert witness is not None
    assert witness.kind == "distinct_primes"
    assert witness.primes == (2, 3, 5)
    assert list(witness.chain) == [
        RingElement((0, 1), 2),
        RingElement((0, 1), 6),
        RingElement((0, 1), 30),
    ]


def test_hensel_witness_descends_at_certified_prime():
    ctx = RingContext(hensel((-2, 0, 1), constant(1)))
    witness = non_ufd_witness(ctx, X2_MINUS_2, 3)
    assert witness is not None
    assert witness.kind == "prime_power"
    assert set(witness.primes) <= {7, 17, 23, 31, 41, 47}
    assert list(witness.chain) == [
        RingElement((-2, 0, 1), 7),
        RingElement((-2, 0, 1), 49),
        RingElement((-2, 0, 1), 343),
    ]


def test_log_generic_gives_no_witness():
    ctx = RingContext(log_generic(7))
    for h in (X, X + 1, RingElement((1, 0, 1))):
        assert non_ufd_witness(ctx, h, 2) is None
        assert non_ufd_witness(ctx, h, 3) is None


def test_witness_chain_descends_strictly():
    for tau, h, depth in [
        (constant(0), X, 4),
        (constant(30), X, 3),
        (hensel((-2, 0, 1), constant(1)), X2_MINUS_2, 3),
    ]:
        ctx = RingContext(tau)
        witness = non_ufd_witness(ctx, h, depth)
        assert witness is not None
        seq = [h, *witness.chain]
        for bigger, smaller in zip(seq, seq[1:]):
            assert ctx.is_member(smaller)
            assert ctx.divides(smaller, bigger)
            assert not ctx.divides(bigger, smaller)


def test_witness_validates_inputs():
    ctx = RingContext(constant(0))
    with pytest.raises(ValueError):
        non_ufd_witness(ctx, X, 1)
    with pytest.raises(ValueError):
        non_ufd_witness(ctx, as_element(0), 3)


def test_witness_for_negative_leading_coefficient():
    ctx = RingContext(constant(0))
    witness = non_ufd_witness(ctx, -X, 3)
    assert witness is not None
    seq = [-X, *witness.chain]
    for bigger, smaller in zip(seq, seq[1:]):
        assert ctx.divides(smaller, bigger)
        assert not ctx.divides(bigger, smaller)


def _count_factorize(monkeypatch):
    """Record every padic.factorize call; make_element must not be reached."""
    calls = []
    real = padic.factorize
    monkeypatch.setattr(padic, "factorize", lambda n: calls.append(n) or real(n))

    def no_make_element(*args, **kwargs):
        raise AssertionError("a witness element was validated again")

    monkeypatch.setattr(RingContext, "make_element", no_make_element)
    return calls


def test_prime_power_witness_at_a_large_prime_factors_nothing(monkeypatch):
    spec = piecewise({100003: zero()}, stream(1))
    ctx = RingContext(spec)
    calls = _count_factorize(monkeypatch)
    witness = non_ufd_witness(ctx, X, 200, p_max=100003, k_max=2)
    assert calls == []
    assert witness.kind == "prime_power" and witness.primes == (100003,)
    assert [e.den for e in witness.chain] == [100003**j for j in range(1, 201)]
    assert all(e.num == X.num for e in witness.chain)
    # x/p^200 is a member exactly when tau_p = 0 mod p^200; the rest follow
    assert poly_eval_mod(X.num, spec, 100003, 200).value == 0


def test_distinct_primes_witness_over_large_primes_factors_nothing(monkeypatch):
    # tau_p = p puts x/p in the ring at each override, but certifies no exact root
    primes = [p for p in primes_upto(110000) if p > 10**5][:200]
    spec = piecewise({p: constant(p) for p in primes}, constant(1))
    ctx = RingContext(spec)
    calls = _count_factorize(monkeypatch)
    witness = non_ufd_witness(ctx, X, 100, p_max=primes[-1], k_max=2)
    assert calls == []
    assert witness.kind == "distinct_primes" and witness.primes == tuple(primes[:100])
    assert witness.chain[-1] == RingElement((0, 1), math.prod(primes[:100]))
    # by CRT, x over the product is a member exactly when tau_p = 0 mod p at each p
    assert all(poly_eval_mod(X.num, spec, p, 1).value == 0 for p in primes[:100])


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(SCAN_SPECS)),
    st.sampled_from(EXACT_FACTORS),
    st.lists(st.integers(-12, 12), min_size=1, max_size=3).filter(lambda g: g[-1] != 0),
    st.integers(2, 200),
    st.sampled_from([1, 2, 8]),
    st.integers(2, 6),
)
def test_witness_is_read_off_its_scan(kind, factor, g, p_max, k_max, depth):
    ctx = RingContext(SCAN_SPECS[kind]())
    h = RingElement(factor) * RingElement(tuple(g))
    witness = non_ufd_witness(ctx, h, depth, p_max=p_max, k_max=k_max)
    scan = scan_sh(RingContext(SCAN_SPECS[kind]()), h, p_max, k_max)
    exact = [hit.prime for hit in scan.hits if hit.exact]
    primes = exact[:1] * depth if exact else [hit.prime for hit in scan.hits][:depth]
    if len(primes) < depth:
        assert witness is None
        return
    dens = [math.prod(primes[:j]) for j in range(1, depth + 1)]
    assert witness.chain == tuple(RingElement(h.num, n) for n in dens)
    assert witness.kind == ("prime_power" if exact else "distinct_primes")
    assert witness.primes == (tuple(exact[:1]) or tuple(primes))
    # the membership the library takes from the scan, checked by factoring
    seq = [h, *witness.chain]
    for bigger, smaller in zip(seq, seq[1:]):
        assert ctx.is_member(smaller)
        assert ctx.divides(smaller, bigger)
        assert not ctx.divides(bigger, smaller)


# -- spec constructors -------------------------------------------------------------


def test_log_generic_first_digits():
    spec = log_generic(7)
    assert spec.query(2, 1).value == 0
    assert spec.query(3, 1).value == 1
    assert spec.query(11, 1).value == 2


def test_log_generic_first_digit_formula():
    spec = log_generic(3)
    ctx = RingContext(spec)
    h = (2, -1, 1)  # x^2 - x + 2
    for p in primes_upto(50):
        if p >= 3:
            t = math.floor(math.log(p))
            expected = (t * t - t + 2) % p
            assert poly_eval_mod(h, spec, p, 1).value == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**64), 2**64), st.sampled_from(primes_upto(10**4)), st.integers(1, 12))
def test_log_generic_is_the_stream_with_digit_zero_replaced(seed, p, k):
    lifted = log_generic(seed).query(p, k).value - math.floor(math.log(p))
    s = stream(seed)
    assert lifted == s.query(p, k).value - s.query(p, 1).value


def test_zero_on_finite_set():
    base = log_generic(7)
    spec = make_zero_on([2], base)
    for k in range(1, 5):
        assert spec.query(2, k).value == 0
    assert spec.query(3, 1).value == 1
    assert spec.to_json()["kind"] == "piecewise"


def test_zero_on_rejects_composites():
    with pytest.raises(ValueError):
        make_zero_on([4], zero())


def test_zero_on_progression_covers_all_primes():
    spec = progression(1, [0], zero(), stream(9))
    reference = constant(0)
    for p in (2, 3, 5, 7, 11):
        for k in range(0, 4):
            assert spec.query(p, k) == reference.query(p, k)
    clone = tau_from_json(spec.to_json())
    assert clone.to_json() == spec.to_json()
    for p in (2, 3, 5, 7, 11):
        assert clone.query(p, 3) == spec.query(p, 3)
