import json
import math
import sys
import time
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieuclid import ONE, X, ZERO, RingElement, as_element, compare, qdiv
from quasieuclid.poly import _const, _lincomb, _submul, format_element
from quasieuclid.syntax import ParseError, parse_element

from record_golden_cli import GOLDEN

elements = st.builds(
    RingElement,
    st.lists(st.integers(-9, 9), max_size=5),
    st.integers(1, 60),
)

# Large coefficients and denominators, degree up to 8: pseudo-division
# scales its running denominator at almost every step on these.
big_elements = st.builds(
    RingElement,
    st.lists(st.integers(-(2**64), 2**64), max_size=9),
    st.integers(1, 10**6),
)


# -- normalization -----------------------------------------------------------


def test_normalize_divides_out_common_content():
    assert RingElement((4, 2), 6) == RingElement((2, 1), 3)


def test_normalize_zero():
    assert RingElement((0,), 5) == ZERO
    assert ZERO.num == () and ZERO.den == 1


def test_normalize_keeps_coprime_form():
    e = RingElement((0, 3), 2)
    assert e.num == (0, 3) and e.den == 2


def test_normalize_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RingElement((1,), 0)


def test_negative_denominator_moves_sign():
    assert RingElement((1, 2), -3) == RingElement((-1, -2), 3)


def test_fraction_coefficients_fold_into_denominator():
    e = RingElement((Fraction(1, 2), 1), 2)
    assert (e.num, e.den) == ((1, 2), 4)


def test_rejects_floats():
    with pytest.raises(TypeError):
        RingElement((1.5,), 2)
    with pytest.raises(TypeError):
        RingElement((1,), Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=6),
    st.integers(0, 3),
    st.one_of(st.just(1), st.integers(1, 10**6)),
    st.one_of(st.just(1), st.integers(2, 30)),
    st.booleans(),
)
def test_from_normal_matches_the_constructor(coeffs, zeros, den, shared, as_tuple):
    # trailing zeros, a content that shares the factor `shared` with den,
    # and den = 1, each from a list or a tuple, which is left as it was
    num = [c * shared for c in coeffs] + [0] * zeros
    den *= shared
    given_num = tuple(num) if as_tuple else list(num)
    e = RingElement._from_normal(given_num, den)
    assert list(given_num) == num
    want = RingElement(num, den)
    assert e == want and (e.num, e.den) == (want.num, want.den)
    assert type(e.num) is tuple and e.den >= 1
    assert not e.num or (e.num[-1] != 0 and math.gcd(e.den, *e.num) == 1)
    assert e.num or e.den == 1
    assert [Fraction(c, e.den) for c in e.num] == [Fraction(c, den) for c in num][: len(e.num)]
    assert all(c == 0 for c in num[len(e.num) :])


# -- conventions ---------------------------------------------------------------


def test_degree_and_lc_conventions():
    assert ZERO.degree == -1
    assert ZERO.lc == 0
    assert X.degree == 1
    assert RingElement((1, 2), 3).lc == Fraction(2, 3)


# -- arithmetic ---------------------------------------------------------------


def test_arith_examples():
    half_x = RingElement((0, 1), 2)
    assert half_x + half_x == X
    assert (X + 1) * (X - 1) == RingElement((-1, 0, 1))
    assert RingElement((0, 1, 1), 2) - half_x == RingElement((0, 0, 1), 2)


def test_int_mixing():
    assert X + 1 == RingElement((1, 1))
    assert 2 * X == RingElement((0, 2))
    assert 1 - X == RingElement((1, -1))
    assert int(RingElement((5,))) == 5
    with pytest.raises(ValueError):
        int(X)


@settings(max_examples=100, deadline=None)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO
    assert a + ZERO == a
    assert a * ONE == a


# -- order ----------------------------------------------------------------------


def test_compare_examples():
    assert compare(X, as_element(2)) == 1  # x exceeds every integer
    assert compare(RingElement((0, 1), 2), RingElement((0, 1), 2)) == 0
    assert compare(as_element(2), as_element(3)) == -1


def test_abs_uses_leading_sign():
    assert abs(RingElement((5, -1))) == RingElement((-5, 1))
    assert abs(ZERO) == ZERO


@settings(max_examples=100, deadline=None)
@given(elements, elements, elements)
def test_order_compatible_with_ring_ops(a, b, c):
    if a > b:
        assert a + c > b + c
        if c > ZERO:
            assert a * c > b * c


def test_integers_are_discrete():
    # no ring integer sits strictly between n and n + 1
    for n in range(-5, 5):
        e, f = as_element(n), as_element(n + 1)
        assert e < f
        for m in range(-10, 10):
            g = as_element(m)
            assert not (e < g < f)


@settings(max_examples=100, deadline=None)
@given(elements, elements)
def test_trichotomy(a, b):
    assert (a < b) + (a == b) + (a > b) == 1


def test_pow_rejects_bool_exponents():
    # bool is an int subclass: X ** True would otherwise read as x
    for exponent in (True, False):
        with pytest.raises(ValueError, match="exponent"):
            X ** exponent


# -- division in Q[x] -------------------------------------------------------------


def test_qdiv_examples():
    q, r = qdiv(RingElement((1, 0, 1)), X)
    assert (q, r) == (X, ONE)
    q, r = qdiv(X, as_element(2))
    assert (q, r) == (RingElement((0, 1), 2), ZERO)
    q, r = qdiv(RingElement((0, 1, 2)), RingElement((1, 1)))
    assert (q, r) == (RingElement((-1, 2)), ONE)


def test_qdiv_by_zero():
    with pytest.raises(ZeroDivisionError):
        qdiv(X, ZERO)


@settings(max_examples=150, deadline=None)
@given(elements, elements)
def test_qdiv_round_trip(q, r):
    if r.is_zero:
        return
    quot, rem = qdiv(q, r)
    assert quot * r + rem == q
    assert rem.degree < r.degree


def test_qdiv_scales_when_the_leading_coefficient_does_not_divide():
    # x^2 = (x/2 - 3/4)(2x + 3) + 9/4
    q, r = qdiv(RingElement((0, 0, 1)), RingElement((3, 2)))
    assert (q, r) == (RingElement((-3, 2), 4), RingElement((9,), 4))
    # (5x^3 + 1)/7 = ((75x + 50)/126)·(6x^2 - 4x)/5 + (20x + 9)/63
    q, r = qdiv(RingElement((1, 0, 0, 5), 7), RingElement((0, -4, 6), 5))
    assert (q, r) == (RingElement((50, 75), 126), RingElement((9, 20), 63))


# -- the integer core against a Fraction reference ---------------------------------


def _fractions(e):
    return [Fraction(c, e.den) for c in e.num]


def _reference_qdiv(q, r):
    """Schoolbook division over Fraction coefficients."""
    rem, rf = _fractions(q), _fractions(r)
    dr = len(rf) - 1
    quot = [Fraction(0)] * max(len(rem) - dr, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + dr] / rf[-1]
        quot[i] = c
        for j, x in enumerate(rf):
            rem[i + j] -= c * x
    return RingElement(quot), RingElement(rem[:dr])


def _reference_sign(a, b):
    """Sign of the leading coefficient of a - b, over Fractions."""
    diff = [x - y for x, y in zip_longest(_fractions(a), _fractions(b), fillvalue=0)]
    while diff and diff[-1] == 0:
        diff.pop()
    return (diff[-1] > 0) - (diff[-1] < 0) if diff else 0


def _assert_normal(e):
    n = RingElement(e.num, e.den)
    assert type(e.num) is tuple and (e.num, e.den) == (n.num, n.den)


@settings(max_examples=200, deadline=None)
@given(big_elements, big_elements)
def test_qdiv_matches_fraction_reference(q, r):
    if r.is_zero:
        return
    assert qdiv(q, r) == _reference_qdiv(q, r)


@settings(max_examples=200, deadline=None)
@given(big_elements, big_elements)
def test_order_matches_fraction_reference(a, b):
    sign = _reference_sign(a, b)
    assert compare(a, b) == sign
    assert (a < b) == (sign < 0) and (a > b) == (sign > 0)
    assert compare(a, a) == 0 and not a < a
    assert (a < 0) == (_reference_sign(a, ZERO) < 0)


def test_order_at_equal_degree_walks_down_from_the_top():
    assert RingElement((1, 2), 3) < RingElement((2, 2), 3)
    assert RingElement((5, 1), 2) > RingElement((7, 1), 3)
    assert compare(RingElement((1, 2, 3)), RingElement((2, 4, 6), 2)) == 0
    assert compare(RingElement((0, -1)), 10**30) == -1


@settings(max_examples=200, deadline=None)
@given(big_elements, big_elements)
def test_results_are_in_normal_form(a, b):
    results = [a + b, a - b, a - a, a * b, -a, abs(a), a + 3, 3 - a, 6 * a, a * 0]
    if not b.is_zero:
        results += qdiv(a, b)
    for e in results:
        _assert_normal(e)


# -- the fused w - p*u kernel ------------------------------------------------------


def _reference_submul(w, p, u):
    """w - p*u over Fraction coefficients."""
    pu = [Fraction(0)] * max(len(p.num) + len(u.num) - 1, 0)
    for i, a in enumerate(_fractions(p)):
        for j, b in enumerate(_fractions(u)):
            pu[i + j] += a * b
    return RingElement([x - y for x, y in zip_longest(_fractions(w), pu, fillvalue=0)])


# Zero, constants of either sign and short polynomials, all over denominators.
multipliers = st.one_of(
    st.builds(RingElement, st.lists(st.integers(-(2**64), 2**64), max_size=1), st.integers(1, 10**6)),
    big_elements,
)


@settings(max_examples=300, deadline=None)
@given(big_elements, multipliers, st.one_of(st.just(ZERO), big_elements))
def test_submul_matches_fraction_reference(w, p, u):
    result = _submul(w, p, u)
    assert result == _reference_submul(w, p, u)
    assert result == w + (-(p * u))
    _assert_normal(result)
    # a product is the same kernel from zero: p*u = -(0 - p*u), in either order
    product = p * u
    assert product == u * p == -_reference_submul(ZERO, p, u)
    _assert_normal(product)


def test_submul_examples():
    half_x = RingElement((0, 1), 2)
    assert _submul(half_x, ZERO, X) == half_x
    assert _submul(half_x, X, ZERO) == half_x
    assert _submul(ZERO, as_element(-3), half_x) == RingElement((0, 3), 2)
    # x/2 - (1/3)(x/2) = x/3, over lcm(2, 6) = 6 before reduction
    assert _submul(half_x, RingElement((1,), 3), half_x) == RingElement((0, 1), 3)
    # (x^2 + 1)/4 - (x/2 - 1)(x/2 + 1) = 5/4: the top terms cancel
    w = RingElement((1, 0, 1), 4)
    assert _submul(w, RingElement((-2, 1), 2), RingElement((2, 1), 2)) == RingElement((5,), 4)


# -- the integer combination kernel x*w + y*u ----------------------------------------


def _reference_lincomb(x, w, y, u):
    """x*w + y*u over Fraction coefficients."""
    return RingElement([x * a + y * b for a, b in zip_longest(_fractions(w), _fractions(u), fillvalue=0)])


# Scales of either sign up to 2^64, zero often; w and u zero or large, each
# over its own denominator up to 10^6.
scales = st.one_of(st.just(0), st.integers(-(2**64), 2**64))
operands = st.one_of(st.just(ZERO), big_elements)


@settings(max_examples=300, deadline=None)
@given(scales, operands, scales, operands)
def test_lincomb_matches_fraction_reference(x, w, y, u):
    result = _lincomb(x, w, y, u)
    assert result == _reference_lincomb(x, w, y, u)
    assert result == x * w + y * u
    _assert_normal(result)


def test_lincomb_examples():
    half_x = RingElement((0, 1), 2)
    assert _lincomb(0, half_x, 0, X) == ZERO
    assert _lincomb(1, half_x, 0, X) == half_x
    assert _lincomb(0, X, -3, half_x) == RingElement((0, -3), 2)
    # 2*(x/2) - 3*((x + 3)/3) = -3: the top terms cancel over lcm(2, 3)
    assert _lincomb(2, half_x, -3, RingElement((3, 1), 3)) == as_element(-3)


@pytest.mark.parametrize("c", [0, 1, -1, 7, -(2**70)])
def test_const_is_the_integer_in_normal_form(c):
    assert _const(c) == as_element(c) == RingElement((c,))
    _assert_normal(_const(c))


@pytest.mark.parametrize("e", [X, 3 * X**4, RingElement((0, 0, -5), 7), as_element(-2), RingElement((3,), 4)])
def test_monomial_powers_match_repeated_products(e):
    power = ONE
    for n in range(8):
        assert e**n == power
        _assert_normal(e**n)
        power = power * e


# -- text form -----------------------------------------------------------------


def test_parse_examples():
    assert parse_element("3/2*x^2 - x + 5") == RingElement((10, -2, 3), 2)
    assert parse_element("x/2") == RingElement((0, 1), 2)
    assert parse_element("(x^2 + x)/2") == RingElement((0, 1, 1), 2)
    assert parse_element("3x") == RingElement((0, 3))
    assert parse_element("-x^2 + 3") == RingElement((3, 0, -1))
    assert parse_element("0") == ZERO
    assert parse_element("2(x+1)") == RingElement((2, 2))


def test_parse_errors():
    for bad in ("", "x +", "y", "x^-1", "x/(x+1)", "1/0", "(x", "3..2", "x)", ")", "x^x"):
        with pytest.raises(ParseError):
            parse_element(bad)


def test_parse_rejects_huge_powers_before_building_them():
    for bad in ("x^100000000", "2^100000000", "x^65536", "2^65537", "(x+1)^256", "(x^1000)^1000", "(1/2)^65537"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="power too large"):
            parse_element(bad)
        assert time.perf_counter() - start < 1, bad


def test_parse_accepts_powers_within_the_budget():
    assert parse_element("x^1000") == X**1000
    assert parse_element("x^65535").degree == 65535
    assert parse_element("2^65536") == RingElement((2**65536,))
    assert parse_element("(x+1)^255") == (X + 1) ** 255
    assert parse_element("(x^3)^10") == X**30
    assert parse_element("0^100000000") == ZERO
    assert parse_element("(-1)^100000001") == -ONE


def _repeat(text, times):
    return "*".join([text] * times)


def test_parse_rejects_huge_products_before_building_them():
    for bad in (
        "(x+1)^255*(x+1)",
        "(x+1)^255(x+1)",
        _repeat("(x+1)^255", 2),
        _repeat("(x+1)^255", 16),
        "2^65536*2",
        "2^65536/3",
        "x^65535*x",
        _repeat("(x+1)^100", 30),
    ):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="product too large"):
            parse_element(bad)
        assert time.perf_counter() - start < 1, bad


def test_parse_accepts_products_within_the_budget():
    assert parse_element("(x+1)^255*1") == (X + 1) ** 255
    assert parse_element("x^65535/2") == RingElement((0,) * 65535 + (1,), 2)
    assert parse_element("2^65535*2") == RingElement((2**65536,))
    assert parse_element("0*" + _repeat("(x+1)^255", 1)) == ZERO
    assert parse_element(_repeat("(x+1)", 255)) == (X + 1) ** 255


def test_parse_multiplies_a_dense_factor_by_a_sparse_one_quickly():
    dense = "(" + "+".join(f"x^{i}" for i in range(500)) + ")"
    expected = RingElement((0,) * 60000 + (1,) * 500)
    for text in (dense + "*x^60000", "x^60000*" + dense):
        start = time.perf_counter()
        assert parse_element(text) == expected
        assert time.perf_counter() - start < 1, text


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-"), elements), min_size=1, max_size=8))
def test_parsed_sum_equals_the_term_by_term_sum(terms):
    text = " ".join(f"{op} ({format_element(e)})" for op, e in terms)
    expected = ZERO
    for op, e in terms:
        expected = expected + e if op == "+" else expected - e
    assert parse_element(text) == expected
    assert parse_element(text.replace(" ", "")) == expected


def test_parse_sums_many_high_degree_terms_quickly():
    # 4,000 terms x^0 + ... + x^3999: each term is read once, so the cost
    # is their total length, not the number of terms times the degree
    start = time.perf_counter()
    assert parse_element("+".join(f"x^{i}" for i in range(4000))) == RingElement((1,) * 4000)
    assert time.perf_counter() - start < 2


def test_parse_rejects_integers_past_the_interpreter_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_element("7" * limit) == as_element(int("7" * limit))
    with pytest.raises(ParseError, match=f"has {limit + 1} digits, more than the limit of {limit}"):
        parse_element("x + " + "7" * (limit + 1))


@settings(max_examples=150, deadline=None)
@given(elements)
def test_format_parse_round_trip(e):
    assert parse_element(format_element(e)) == e


def _sparse(terms, den):
    num = [0] * (max(terms, default=0) + 1)
    for i, c in terms.items():
        num[i] = c
    return RingElement(num, den)


# A few terms of degree below 2^16 with large coefficients over a large
# denominator, such as the 3*x^40000 that divmod('x^40001', 'x/3') prints.
sparse_elements = st.builds(
    _sparse,
    st.dictionaries(st.integers(0, 2**16 - 1), st.integers(-(2**64), 2**64), max_size=4),
    st.integers(1, 2**32),
)


def _golden_elements():
    """Every element the golden CLI set prints, read from its --json output."""
    found = []

    def walk(node):
        if isinstance(node, dict) and node.keys() == {"num", "den"}:
            found.append(RingElement.from_json(node))
        elif isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for entry in json.loads(GOLDEN.read_text(encoding="utf-8")):
        if "--json" in entry["argv"] and entry["stdout"]:
            walk(json.loads(entry["stdout"]))
    return found


GOLDEN_ELEMENTS = _golden_elements()


@settings(max_examples=100, deadline=None)
@given(sparse_elements)
def test_format_parse_round_trip_sparse(e):
    assert parse_element(format_element(e)) == e


def test_every_golden_element_reads_back():
    assert len(GOLDEN_ELEMENTS) > 500
    for e in GOLDEN_ELEMENTS:
        assert parse_element(format_element(e)) == e


def test_parse_accepts_sparse_scaled_powers():
    assert parse_element("3*x^40000") == 3 * X**40000
    assert parse_element("-3/7*x^65535 + 2^60*x^30000") == _sparse(
        {30000: 7 * 2**60, 65535: -3}, 7
    )


def test_json_round_trip():
    e = RingElement((10, -2, 3), 2)
    assert RingElement.from_json(e.to_json()) == e
    assert e.to_json() == {"num": [10, -2, 3], "den": 2}
    assert ZERO.to_json() == {"num": [], "den": 1}


def test_parse_nesting_up_to_64_levels():
    assert parse_element("(" * 64 + "x/2" + ")" * 64) == RingElement((0, 1), 2)
    for depth in (65, 1000):
        with pytest.raises(ParseError, match="parentheses nested more than 64 levels deep"):
            parse_element("(" * depth + "x" + ")" * depth)


def test_parse_sign_runs_in_a_loop():
    assert parse_element("-" * 5000 + "x") == RingElement((0, 1))
    assert parse_element("-+" * 2500 + "-x^2") == RingElement((0, 0, -1))
    assert parse_element("-x^2") == RingElement((0, 0, -1))
    assert parse_element("2*--x - -3") == RingElement((3, 2))
