"""The JSON form of every record and tau spec.

Each record's to_json() is the object of its fields, built by the one
encoder poly._json.  The reference serializers below are the field lists
the records used to spell out by hand; the properties check that the
encoder gives the same objects, in the same key order, on real outputs.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasieuclid import (
    ONE,
    ZERO,
    ComparisonRow,
    RingContext,
    RingElement,
    X,
    adversarial_pair,
    build_chain,
    compare_to_qe,
    constant,
    degree_retention_check,
    hensel,
    log_generic,
    non_ufd_witness,
    piecewise,
    progression,
    scan_sh,
    stream,
    zero,
)
from quasieuclid.padic import HenselTau, PiecewiseTau, ProgressionTau
from quasieuclid.poly import _json

# -- reference serializers ----------------------------------------------------


def ref_chain(c):
    return {
        "a": c.a.to_json(),
        "b": c.b.to_json(),
        "quotients": [q.to_json() for q in c.quotients],
        "remainders": [r.to_json() for r in c.remainders],
    }


def ref_row(row):
    return {
        "index": row.index,
        "remainder_abs": row.remainder_abs.to_json(),
        "bound": row.bound.to_json(),
        "ok": row.ok,
    }


def ref_comparison(report):
    return {
        "chain": ref_chain(report.chain),
        "canonical": ref_chain(report.canonical),
        "rows": [ref_row(r) for r in report.rows],
        "final": ref_row(report.final) if report.final is not None else None,
        "ok": report.ok,
    }


def ref_report(report):
    return {
        "k": report.k,
        "b": report.b.to_json(),
        "c": report.c,
        "d": report.d,
        "beta": report.beta,
        "a": report.a.to_json(),
        "degrees": list(report.degrees),
        "verdict": report.verdict,
    }


def ref_scan(scan):
    return {
        "h": scan.h.to_json(),
        "p_max": scan.p_max,
        "k_max": scan.k_max,
        "hits": [
            {
                "prime": hit.prime,
                "depth": hit.depth,
                "saturated": hit.saturated,
                "exact": hit.exact,
            }
            for hit in scan.hits
        ],
    }


def ref_witness(w):
    return {
        "h": w.h.to_json(),
        "kind": w.kind,
        "primes": list(w.primes),
        "chain": [e.to_json() for e in w.chain],
    }


def ref_tau(spec):
    if isinstance(spec, HenselTau):
        return {"kind": spec.kind, "poly": list(spec.poly), "fallback": ref_tau(spec.fallback)}
    if isinstance(spec, PiecewiseTau):
        return {
            "kind": spec.kind,
            "overrides": {str(p): ref_tau(s) for p, s in sorted(spec.overrides.items())},
            "default": ref_tau(spec.default),
        }
    if isinstance(spec, ProgressionTau):
        return {
            "kind": spec.kind,
            "modulus": spec.modulus,
            "residues": list(spec.residues),
            "when": ref_tau(spec.when),
            "otherwise": ref_tau(spec.otherwise),
        }
    return {"kind": spec.kind, **{f: getattr(spec, f) for f in spec._fields}}


def assert_same(data, ref):
    # == tells a list from a tuple; the unsorted dump compares key order
    assert data == ref
    assert json.dumps(data) == json.dumps(ref)


# -- strategies ---------------------------------------------------------------

TAUS = [constant(0), constant(1), stream(42), hensel((-2, 0, 1), constant(1))]

taus = st.sampled_from(TAUS)
small_ints = st.integers(-9, 9)
int_polys = st.lists(small_ints, min_size=1, max_size=4).filter(lambda c: c[-1] != 0)
positive_polys = st.builds(
    lambda c, lead: RingElement(c + [lead]),
    st.lists(small_ints, min_size=1, max_size=2),
    st.integers(1, 9),
)

leaf_taus = st.one_of(
    st.builds(constant, st.integers(-50, 50)),
    st.just(zero()),
    st.builds(stream, st.integers(0, 10**6)),
    st.builds(log_generic, st.integers(0, 10**6)),
)


def nested(inner):
    primes = st.sampled_from([2, 3, 5, 7, 11, 13, 101])
    return st.one_of(
        inner,
        st.builds(hensel, int_polys.filter(lambda c: len(c) >= 2), inner),
        st.builds(piecewise, st.dictionaries(primes, inner, max_size=4), inner),
        st.integers(1, 12).flatmap(
            lambda m: st.builds(
                progression, st.just(m), st.lists(st.integers(0, m - 1), unique=True), inner, inner
            )
        ),
    )


# every kind nested up to two deep: hensel, piecewise and progression over
# hensel, piecewise and progression over the leaves
two_deep_taus = nested(nested(leaf_taus))


# -- properties on real outputs ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(two_deep_taus)
def test_tau_spec_json_matches_the_reference(spec):
    assert_same(spec.to_json(), ref_tau(spec))


@settings(max_examples=40, deadline=None)
@given(taus, st.integers(1, 4), positive_polys)
def test_adversary_report_json_matches_the_reference(tau, k, b):
    ctx = RingContext(tau)
    a = adversarial_pair(ctx, k, b)
    report = degree_retention_check(ctx, k, a, b)
    assert_same(report.to_json(), ref_report(report))


@settings(max_examples=40, deadline=None)
@given(taus, int_polys, st.integers(2, 80), st.integers(1, 6))
def test_scan_json_matches_the_reference(tau, h, p_max, k_max):
    scan = scan_sh(RingContext(tau), RingElement(h), p_max, k_max)
    assert_same(scan.to_json(), ref_scan(scan))


@settings(max_examples=40, deadline=None)
@given(taus, st.one_of(int_polys, st.just([-2, 0, 1]), st.just([0, 1])), st.integers(2, 4))
@example(constant(0), [0, 1], 3)  # prime_power
@example(constant(30), [0, 1], 3)  # distinct_primes 2, 3, 5
def test_witness_json_matches_the_reference(tau, h, depth):
    witness = non_ufd_witness(RingContext(tau), RingElement(h), depth, p_max=40, k_max=5)
    if witness is not None:
        assert_same(witness.to_json(), ref_witness(witness))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 200),
    st.integers(1, 100),
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
)
@example(13, 8, [2])  # positive tail: final is a row
@example(13, 8, [2, -2, -2])  # a negative quotient: final is None
def test_comparison_json_matches_the_reference(a, b, quots):
    report = compare_to_qe(RingContext(constant(0)), build_chain(a, b, quots))
    assert_same(report.to_json(), ref_comparison(report))


def test_comparison_json_covers_both_final_branches():
    ctx = RingContext(constant(0))
    with_final = compare_to_qe(ctx, build_chain(13, 8, [2]))
    without = compare_to_qe(ctx, build_chain(13, 8, [2, -2, -2]))
    assert with_final.final is not None and without.final is None
    assert with_final.to_json()["final"] == ref_row(with_final.final)
    assert without.to_json()["final"] is None


@settings(max_examples=60, deadline=None)
@given(taus, int_polys, int_polys)
def test_chain_json_matches_the_reference(tau, a, b):
    chain = RingContext(tau).qe_chain(RingElement(a), RingElement(b))
    assert_same(chain.to_json(), ref_chain(chain))


# -- encoder rules ------------------------------------------------------------


def test_plain_values_stay_as_they_are():
    for value in (0, -(10**30), True, False, "t1", None):
        assert _json(value) is value


def test_namedtuple_becomes_an_object_and_a_tuple_a_list():
    row = ComparisonRow(3, ONE, ZERO, True)
    assert _json(row) == {
        "index": 3,
        "remainder_abs": {"num": [1], "den": 1},
        "bound": {"num": [], "den": 1},
        "ok": True,
    }
    assert _json((1, (2, [X]))) == [1, [2, [{"num": [0, 1], "den": 1}]]]


def test_dataclass_without_to_json_becomes_an_object():
    @dataclass(frozen=True)
    class Pair:
        left: int
        right: tuple

    assert _json(Pair(1, (2,))) == {"left": 1, "right": [2]}


def test_dict_keys_are_sorted_decimal_strings():
    assert list(_json({101: 0, 2: 1, 11: 2})) == ["2", "11", "101"]
    spec = piecewise({101: zero(), 2: constant(1), 11: stream(3)}, zero())
    assert list(spec.to_json()["overrides"]) == ["2", "11", "101"]


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {1, 2}, [1, 0.5]], ids=repr)
def test_values_without_a_json_form_raise_type_error(value):
    with pytest.raises(TypeError):
        _json(value)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}], ids=repr)
def test_json_dumps_with_the_encoder_raises_type_error(value):
    # json itself writes floats, so only values it hands to the encoder raise
    with pytest.raises(TypeError):
        json.dumps({"v": [X, value]}, default=_json)
