import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieuclid import (
    X,
    RingContext,
    RingElement,
    as_element,
    constant,
    hensel,
    log_generic,
    make_zero_on,
    non_ufd_witness,
    poly_eval_mod,
    primes_upto,
    scan_sh,
    stream,
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


def test_zero_on_predicate_covers_all_primes():
    spec = make_zero_on(lambda p: True, stream(9))
    reference = constant(0)
    for p in (2, 3, 5, 7, 11):
        for k in range(0, 4):
            assert spec.query(p, k) == reference.query(p, k)
    with pytest.raises(TypeError):
        spec.to_json()
