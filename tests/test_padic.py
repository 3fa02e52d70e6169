import hashlib
import math
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import ROUND_CEILING, Context

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quasieuclid import (
    FactorBudgetExceeded,
    HenselLiftError,
    ResidueClass,
    RingContext,
    RingElement,
    constant,
    crt_combine,
    factorize,
    hensel,
    hensel_lift,
    is_prime,
    log_generic,
    padic,
    piecewise,
    poly_eval_mod,
    primes_upto,
    progression,
    scan_sh,
    stream,
    tau_from_json,
    zero,
)

from _corpus import member_pair

SMALL_PRIMES = primes_upto(50)


def spec_strategy():
    leaves = st.one_of(
        st.integers(-20, 20).map(constant),
        st.just(zero()),
        st.integers(0, 10**6).map(stream),
        st.integers(0, 10**6).map(log_generic),
        st.sampled_from([(-2, 0, 1), (-5, 1), (1, 0, 1), (-1, 1, 1)]).map(
            lambda f: hensel(f, constant(1))
        ),
    )
    return st.one_of(
        leaves,
        st.tuples(leaves, leaves).map(lambda pair: piecewise({2: pair[0]}, pair[1])),
        st.tuples(leaves, leaves).map(lambda pair: progression(3, [2], *pair)),
    )


# -- primes and factoring ---------------------------------------------------


def test_primes_upto_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    reference = [n for n in range(10**4 + 1) if trial(n)]
    for limit in (0, 1, 2, 3, 4, 48, 49, 50, 120, 121, 9973, 10**4):
        assert primes_upto(limit) == [p for p in reference if p <= limit], limit


def test_is_prime_against_sieve():
    sieve = set(primes_upto(500))
    for n in range(500):
        assert is_prime(n) == (n in sieve)


@pytest.mark.parametrize("n, prime", [(1681, False), (1763, False), (1847, True), (1849, False), (1861, True), (2021, False)])
def test_is_prime_around_the_square_of_43(n, prime):
    # below 43^2 = 1849 trial division by the bases up to 41 decides; 1849
    # = 43^2 and 2021 = 43*47 need Miller-Rabin, as does the prime 1861
    assert is_prime(n) == prime


def test_is_prime_rejects_psi_12():
    # psi_12 (Sorenson-Webster 2017) is a strong pseudoprime to the twelve
    # prime bases 2..37, so it needs base 41 to be rejected
    assert not is_prime(318665857834031151167461)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert 399165290221 * 798330580441 == 318665857834031151167461


def test_factorize_multiplies_back():
    for n in (1, 2, 12, 97, 360, 2**10 * 3**4 * 49, 10**6):
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


# Strong Lucas pseudoprimes with Selfridge's parameters (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_strong_lucas_pseudoprimes_pass_lucas_but_not_is_prime(n):
    assert padic._is_strong_lucas_prp(n)
    assert not is_prime(n)


def test_strong_lucas_against_sympy():
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    for n in range(3, 20001, 2):
        assert padic._is_strong_lucas_prp(n) == primetest.is_strong_lucas_prp(n), n


def test_is_prime_above_the_deterministic_range():
    # past 3.3e24 the Miller-Rabin bases are no proof; BPSW adds Lucas
    m89 = 2**89 - 1
    assert m89 > padic._PSI_13 and is_prime(m89)
    assert not is_prime(m89 * (2**61 - 1))
    assert factorize(6 * m89) == ((2, 1), (3, 1), (m89, 1))


def test_is_prime_cache_is_bounded():
    assert is_prime.cache_info().maxsize is not None


def _prime_from(n):
    while not is_prime(n):
        n += 1
    return n


def _bits(lo, hi):
    return st.integers(lo, hi).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b))


# Below the trial bound, in rho's range (20-40 bits, up to cubes), and one
# large prime up to 2^80 that only a primality test can certify.  Two
# 40-bit primes take rho up to half of RHO_BUDGET on an unlucky draw, so the
# examples are derandomized: the same ones run every time.
SMALL_FACTOR = st.tuples(st.sampled_from(primes_upto(padic._TRIAL_BOUND)), st.integers(1, 4))
RHO_FACTOR = st.tuples(_bits(20, 40).map(_prime_from), st.integers(1, 3))
FACTORS = st.tuples(
    st.lists(SMALL_FACTOR, max_size=4),
    st.lists(RHO_FACTOR, max_size=2),
    st.lists(_bits(41, 80).map(_prime_from), max_size=1),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(FACTORS)
@example(([(3, 1), (11, 1), (17, 1)], [], []))  # Carmichael numbers
@example(([(7, 1), (11, 1), (13, 1), (41, 1)], [], []))
@example(([(5, 1), (7, 1), (17, 1), (19, 1), (73, 1)], [], []))
@example(([], [(399165290221, 1), (798330580441, 1)], []))  # psi_12
@example(([], [(1009, 2)], []))
@example(([], [(1000003, 3)], [2**61 - 1]))
def test_factorize_products_of_known_primes(parts):
    small, mid, large = parts
    expected: dict[int, int] = {}
    for p, e in [*small, *mid, *((p, 1) for p in large)]:
        expected[p] = expected.get(p, 0) + e
    n = 1
    for p, e in expected.items():
        n *= p**e
    fac = factorize(n)
    prod = 1
    for p, e in fac:
        assert is_prime(p)
        prod *= p**e
    assert prod == n
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})
    assert fac == tuple(sorted(expected.items()))


def _fibonacci(j):
    a, b = 0, 1
    for _ in range(j):
        a, b = b, a + b
    return a


# F_j as its primes with repetition.  Rho alone runs out of RHO_BUDGET on
# some products of two of them and a few primes, such as the k = 60
# example below.
FIBONACCI_PRIMES = {
    98: (13, 29, 97, 6168709, 599786069),
    100: (3, 5, 5, 11, 41, 101, 151, 401, 3001, 570601),
    107: (1247833, 8242065050061761),
    113: (677, 272602401466814027129),
    122: (4513, 555003497, 5600748293801),
    123: (2, 2789, 59369, 68541957733949701),
    131: (1066340417491710595814572169,),
    151: (5737, 2811666624525811646469915877),
    199: (397, 436782169201002048261171378550055269633),
    202: (809, 7879, 743519377, 770857978613, 201062946718741),
    203: (13, 1217, 514229, 56470541, 2586982700656733994659533),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FIBONACCI_PRIMES)), st.sampled_from(sorted(FIBONACCI_PRIMES)), FACTORS)
# the 248-bit denominator of the stream(42) adversary at k = 60
@example(122, 123, ([], [(319571642447, 1), (2435387365007, 1)], []))
@example(202, 202, ([(5, 2)], [], []))  # every prime of F_202 squared, beside 5^2
def test_factorize_splits_off_fibonacci_parts(i, j, parts):
    assert math.prod(FIBONACCI_PRIMES[i]) == _fibonacci(i)
    assert math.prod(FIBONACCI_PRIMES[j]) == _fibonacci(j)
    small, mid, large = parts
    expected: dict[int, int] = {}
    fibonacci = [(p, 1) for p in FIBONACCI_PRIMES[i] + FIBONACCI_PRIMES[j]]
    for p, e in [*small, *mid, *((p, 1) for p in large), *fibonacci]:
        expected[p] = expected.get(p, 0) + e
    fac = factorize(math.prod(p**e for p, e in expected.items()))
    assert all(is_prime(p) for p, _ in fac)
    assert fac == tuple(sorted(expected.items()))


def test_factorize_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20260)
    numbers = [rng.randrange(1, 2**64) for _ in range(500)]
    numbers += [
        rng.randrange(1, 2**24) * rng.randrange(1, 2**24) * rng.randrange(1, 2**32)
        for _ in range(100)
    ]
    for n in numbers:
        assert dict(factorize(n)) == sympy.factorint(n), n


def test_factorize_budget_raises_typed_error(monkeypatch):
    monkeypatch.setattr(padic, "RHO_BUDGET", 1000)
    n = 1000000007 * 998244353
    with pytest.raises(FactorBudgetExceeded, match="rho iterations"):
        factorize(n)
    assert issubclass(FactorBudgetExceeded, ValueError)


# -- residues -----------------------------------------------------------------


def test_residue_invariants():
    r = ResidueClass(2, 3, 5)
    assert r.reduce(1) == ResidueClass(2, 1, 1)
    assert ResidueClass(5, 2, 7).reduce(2) == ResidueClass(5, 2, 7)
    assert ResidueClass(3, 4, 80).reduce(2) == ResidueClass(3, 2, 80 % 9)


def test_residue_validation():
    with pytest.raises(ValueError):
        ResidueClass(4, 1, 0)  # not prime
    with pytest.raises(ValueError):
        ResidueClass(3, 2, 9)  # out of range
    with pytest.raises(ValueError):
        ResidueClass(3, 0, 1)  # precision 0 forces value 0
    with pytest.raises(ValueError):
        ResidueClass(2, 3, 5).reduce(4)


def test_residue_digits():
    assert ResidueClass(3, 4, 80).digits() == (2, 2, 2, 2)  # 80 = 2 + 2*3 + 2*9 + 2*27


# -- query --------------------------------------------------------------------


def test_query_constant_embedding():
    assert constant(7).query(5, 2).value == 7
    assert constant(-1).query(3, 2).value == 8  # canonical representative


def test_query_precision_zero_is_trivial():
    for spec in (constant(9), zero(), stream(1), log_generic(1)):
        r = spec.query(3, 0)
        assert (r.precision, r.value) == (0, 0)


def test_query_hensel_root_mod_49():
    # oracle: exhaustive search for square roots of 2 mod 49
    roots = {v for v in range(49) if (v * v - 2) % 49 == 0}
    assert roots == {10, 39}
    got = hensel((-2, 0, 1), zero()).query(7, 2).value
    assert got in roots
    assert got == 10  # smallest simple root mod 7 is 3, and 10 = 3 mod 7


def test_query_hensel_fallback():
    spec = hensel((1, 0, 1), constant(6))  # x^2 + 1 has no root mod 3
    assert spec.query(3, 2).value == 6


def test_query_validates_arguments():
    with pytest.raises(ValueError):
        zero().query(6, 1)
    with pytest.raises(ValueError):
        zero().query(5, -1)


# The public residue edge: each function checks its prime and precision
# before any work, with the two messages of ResidueClass's own check.
RESIDUE_EDGE = {
    "ResidueClass": lambda p, k: ResidueClass(p, k, 0),
    "query": lambda p, k: stream(3).query(p, k),
    "poly_eval_mod": lambda p, k: poly_eval_mod((1, 2, 3), stream(3), p, k),
    "hensel_lift": lambda p, k: hensel_lift((-2, 0, 1), p, 3, k),
}


@pytest.mark.parametrize("call", RESIDUE_EDGE.values(), ids=RESIDUE_EDGE.keys())
@pytest.mark.parametrize(
    "p, k, message",
    [(6, 2, "6 is not prime"), (1, 2, "1 is not prime"), (7, -1, "precision must be non-negative")],
    ids=["composite", "one", "negative_k"],
)
def test_residue_edge_messages(call, p, k, message):
    with pytest.raises(ValueError) as err:
        call(p, k)
    assert str(err.value) == message


def test_query_deterministic_and_memoized():
    spec = stream(42)
    first = spec.query(7, 5)
    hits = padic.TauSpec._tau.cache_info().hits
    assert spec.query(7, 5) == first
    assert padic.TauSpec._tau.cache_info().hits == hits + 1


@settings(max_examples=150, deadline=None)
@given(spec_strategy(), st.sampled_from(SMALL_PRIMES), st.integers(0, 6))
def test_tower_coherence(spec, p, k):
    assert spec.query(p, k + 1).reduce(k) == spec.query(p, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.sampled_from(SMALL_PRIMES), st.integers(1, 6))
def test_constant_matches_direct_reduction(z, p, k):
    assert constant(z).query(p, k).value == z % p**k


def _eval_mod_reference(h, spec, n):
    parts = [(p**e, poly_eval_mod(h, spec, p, e).value) for p, e in factorize(n)]
    return crt_combine(parts)[0]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        spec_strategy(),
        st.tuples(spec_strategy(), spec_strategy()).map(
            lambda pair: progression(4, [1], *pair)
        ),
    ),
    st.lists(st.integers(-40, 40), max_size=5),
    st.integers(1, 5000),
)
def test_eval_mod_is_crt_of_prime_power_residues(spec, h, n):
    h = tuple(h)
    t = spec.eval_mod(h, n)
    assert t == _eval_mod_reference(h, spec, n)
    # the witness's one pass relies on this: only the last part may be left whole
    moduli = [q for q, _, _ in spec._parts(h, n)]
    assert all(is_prime(q) for q in moduli[:-1])
    e = RingElement(h, n)
    ctx = RingContext(spec)
    assert (t == 0) == ctx.is_member(e)
    assert ctx.membership_witness(e) == _witness_reference(e, spec)


def _witness_reference(e, spec):
    for p, v in factorize(e.den):
        r = poly_eval_mod(e.num, spec, p, v).value
        if r:
            return p, v, r
    return None


OVERRIDE_PRIMES = (2, 3, 7, 1009, 100003)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.sampled_from(OVERRIDE_PRIMES), spec_strategy(), min_size=1, max_size=3),
    spec_strategy(),
    st.lists(st.integers(-40, 40), max_size=5),
    st.lists(st.integers(0, 6), min_size=len(OVERRIDE_PRIMES), max_size=len(OVERRIDE_PRIMES)),
    st.integers(1, 5000),
)
def test_piecewise_eval_mod_is_crt_of_its_picks(overrides, default, h, exponents, cofactor):
    spec = piecewise(overrides, default)
    n = cofactor * math.prod(p**e for p, e in zip(OVERRIDE_PRIMES, exponents))
    h = tuple(h)
    expected = crt_combine(
        (p**e, padic._eval_mod(h, spec._pick(p)._tau(p, e), p**e)) for p, e in factorize(n)
    )[0]
    assert spec.eval_mod(h, n) == expected


def test_piecewise_eval_mod_factors_nothing_over_a_constant_default(monkeypatch):
    # the cofactor (2^61 - 1)(10^18 + 9) is past the rho budget; the zero
    # default reads it with one Horner pass
    spec, h = piecewise({2: constant(1), 100003: stream(1)}, zero()), (1, 2, 3)
    hard = (2**61 - 1) * (10**18 + 9)
    at_100003 = padic._eval_mod(h, stream(1).query(100003, 3).value, 100003**3)
    expected = crt_combine([(2**50, 6), (100003**3, at_100003), (hard, 1)])[0]

    def refuse(n):
        raise AssertionError(f"factorize({n}) was called")

    monkeypatch.setattr(padic, "factorize", refuse)
    padic.TauSpec._tau.cache_clear()
    assert spec.eval_mod(h, 2**50 * 100003**3 * hard) == expected
    # the override residues are stored under the spec that was asked
    spec.query(2, 50), spec.query(100003, 3)
    info = padic.TauSpec._tau.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


# Fresh specs, one of each kind; the hensel one falls back at the primes
# where x^2 - 2 has no root (3, 5, 11, 13, ...).
FRESH_SPECS = {
    "constant": lambda: constant(5),
    "stream": lambda: stream(42),
    "log_generic": lambda: log_generic(7),
    "hensel": lambda: hensel((-2, 0, 1), stream(3)),
    "piecewise": lambda: piecewise({2: constant(1), 7: hensel((-2, 0, 1), zero())}, log_generic(3)),
}


@pytest.mark.parametrize("make", FRESH_SPECS.values(), ids=FRESH_SPECS.keys())
def test_ring_operations_build_no_residue_class(monkeypatch, make):
    rng = random.Random(5)
    members = RingContext(make())
    pairs = [member_pair(members, rng) for _ in range(20)]
    n = 2**3 * 3**2 * 5 * 7 * 17 * 41
    expected = _eval_mod_reference((1, 2, 3), members.tau, n)
    built = []
    post_init = ResidueClass.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ResidueClass, "__post_init__", counting)
    ctx = RingContext(make())
    assert ctx.tau.eval_mod((1, 2, 3), n) == expected
    assert not ctx.is_member(RingElement((1, 2, 3), n))
    for a, b in pairs:
        assert ctx.is_member(a) and ctx.is_member(b)
        ctx.qe_chain(a, b)
    assert built == []


def test_concurrent_queries_agree():
    spec = stream(99)
    grid = [(p, k) for p in SMALL_PRIMES for k in range(1, 5)]
    expected = {pk: stream(99).query(*pk).value for pk in grid}
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda pk: (pk, spec.query(*pk).value), grid * 4))
    for pk, value in results:
        assert value == expected[pk]


# -- the residue memo ---------------------------------------------------------------


def _picked(spec, p):
    """The leaf spec whose residue spec hands over at p; a leaf picks itself."""
    if isinstance(spec, padic._SplitTau):
        return _picked(spec._pick(p), p)
    if isinstance(spec, padic.HenselTau) and spec._simple_root(p) is None:
        return _picked(spec.fallback, p)
    return spec


@settings(max_examples=150, deadline=None)
@given(spec_strategy(), st.sampled_from(SMALL_PRIMES), st.integers(1, 6))
def test_a_spec_answers_as_its_pick_under_one_memo_entry(spec, p, k):
    padic.TauSpec._tau.cache_clear()
    got = spec.query(p, k)
    assert padic.TauSpec._tau.cache_info().currsize == 1
    assert got == _picked(spec, p).query(p, k)


@pytest.mark.parametrize(
    "spec, p",
    [
        (piecewise({2: zero()}, stream(3)), 11),
        (progression(2, [0], zero(), stream(3)), 11),
        (hensel((1, 0, 1), constant(1)), 3),  # x^2 + 1 has no root mod 3
    ],
    ids=["piecewise", "predicate", "hensel_fallback"],
)
def test_a_composite_spec_stores_its_residue_once(spec, p):
    padic.TauSpec._tau.cache_clear()
    spec.query(p, 4)
    assert padic.TauSpec._tau.cache_info().currsize == 1


def test_residue_memos_stay_bounded_over_a_long_scan():
    tau, root = padic.TauSpec._tau, padic.HenselTau._simple_root
    tau.cache_clear()
    spec = stream(1)
    for p in primes_upto(20000):  # 2,262 primes; a scan's first digits skip the memo
        spec.query(p, 2)
    assert tau.cache_info().maxsize is not None
    assert tau.cache_info().currsize == tau.cache_info().maxsize < tau.cache_info().misses
    root.cache_clear()
    scan_sh(RingContext(hensel((-2, 0, 1), constant(1))), RingElement((1, 0, 1)), 20000, 8)
    assert root.cache_info().maxsize is not None
    assert root.cache_info().currsize == root.cache_info().maxsize < root.cache_info().misses


def test_a_scan_leaves_other_callers_residues_in_the_memo():
    tau = padic.TauSpec._tau
    tau.cache_clear()
    other = log_generic(3)
    other.query(7, 5)
    before = tau.cache_info()
    scan = scan_sh(RingContext(stream(1)), RingElement((1, 0, 1)), 20000, 8)
    after = tau.cache_info()
    deep = [hit for hit in scan.hits if not hit.exact]
    assert deep  # a stream certifies no zero, so each hit asks the memo for p^8
    assert after.misses - before.misses == len(deep)
    other.query(7, 5)
    assert tau.cache_info().hits == after.hits + 1


def _hashed_digit(seed, p, i):
    return int.from_bytes(hashlib.sha256(f"{seed}:{p}:{i}".encode()).digest(), "big") % p


@pytest.mark.parametrize("p", [2, 3, 7, 101, 65537, 1000003])
def test_stream_residues_are_their_hashed_digits_low_first(p):
    seed = 11
    digits = [_hashed_digit(seed, p, i) for i in range(12)]
    log_digits = [math.floor(math.log(p))] + digits[1:]  # floor(ln p) is digit 0
    for k in range(13):
        assert stream(seed).query(p, k).value == sum(d * p**i for i, d in enumerate(digits[:k]))
        assert log_generic(seed).query(p, k).value == sum(
            d * p**i for i, d in enumerate(log_digits[:k])
        )


def test_a_dropped_spec_never_answers_for_a_new_one():
    # the memo is keyed by spec identity; its entry keeps the spec alive, so
    # a new spec never reuses the id of one that answered before
    for z in range(1, 50):
        assert constant(z).query(7, 3).value == z


# -- polynomial evaluation ------------------------------------------------------


@pytest.mark.parametrize("make", FRESH_SPECS.values(), ids=FRESH_SPECS.keys())
def test_poly_eval_mod_builds_one_residue_class(monkeypatch, make):
    built = []
    post_init = ResidueClass.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ResidueClass, "__post_init__", counting)
    spec, calls = make(), [((1, 2, 3), 7, 3), ((0, 1), 2, 5), ((-2, 0, 1), 17, 0), ((5,), 3, 1)]
    results = [poly_eval_mod(h, spec, p, k) for h, p, k in calls]
    assert built == results
    for r, (h, p, k) in zip(results, calls):
        t = spec.query(p, k).value
        assert (r.prime, r.precision, r.value) == (p, k, sum(c * t**i for i, c in enumerate(h)) % p**k)


def test_poly_eval_examples():
    # t^2 + t is even for both residues mod 2
    for spec in (constant(0), constant(1), stream(3)):
        assert poly_eval_mod((0, 1, 1), spec, 2, 1).value == 0
    assert poly_eval_mod((-7, 1), constant(7), 11, 4).value == 0
    assert poly_eval_mod((3,), zero(), 3, 1).value == 0
    assert poly_eval_mod((3,), zero(), 3, 2).value == 3


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-9, 9), max_size=4),
    st.lists(st.integers(-9, 9), max_size=4),
    st.lists(st.integers(-9, 9), max_size=4),
    st.sampled_from(SMALL_PRIMES),
    st.integers(1, 5),
)
def test_eval_is_a_homomorphism(g, h, f, p, k):
    spec = stream(7)
    mod = p**k

    def mul(u, v):
        out = [0] * (len(u) + len(v) - 1 or 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] += a * b
        return out

    def add(u, v):
        n = max(len(u), len(v))
        return [(u[i] if i < len(u) else 0) + (v[i] if i < len(v) else 0) for i in range(n)]

    lhs = poly_eval_mod(add(mul(g, h), f), spec, p, k).value
    rhs = (
        poly_eval_mod(g, spec, p, k).value * poly_eval_mod(h, spec, p, k).value
        + poly_eval_mod(f, spec, p, k).value
    ) % mod
    assert lhs == rhs


# -- hensel lifting ---------------------------------------------------------------


def test_hensel_lift_examples():
    assert hensel_lift((-2, 0, 1), 7, 3, 2).value == 10
    assert hensel_lift((-5, 1), 3, 2, 3).value == 5
    with pytest.raises(HenselLiftError):
        hensel_lift((1, 0, 1), 2, 1, 3)  # derivative vanishes mod 2
    with pytest.raises(HenselLiftError):
        hensel_lift((1, 0, 1), 7, 3, 3)  # not a root at all


@pytest.mark.parametrize(
    "p, root, k, message",
    [
        (7, 7, 2, "root 7 out of range for modulus 7"),
        (7, -4, 2, "root -4 out of range for modulus 7"),
        # both root and k are bad: the (p, k) check comes first
        (7, 10, -1, "precision must be non-negative"),
    ],
    ids=["root_p", "negative_root", "root_and_k"],
)
def test_hensel_lift_rejects_bad_roots(p, root, k, message):
    with pytest.raises(ValueError) as err:
        hensel_lift((-2, 0, 1), p, root, k)
    assert str(err.value) == message
    assert not isinstance(err.value, HenselLiftError)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 8), st.data())
def test_hensel_lift_correctness(p, k, data):
    f = (-2, 0, 1)
    roots = [r for r in range(p) if (r * r - 2) % p == 0 and (2 * r) % p != 0]
    if not roots:
        return
    root = data.draw(st.sampled_from(roots))
    lifted = hensel_lift(f, p, root, k)
    assert (lifted.value**2 - 2) % p**k == 0
    assert lifted.reduce(1).value == root % p


def _newton_reference(f, deriv, p, x, k):
    """Newton's lift as it ran before, with a modular inverse at every doubling."""
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        fx = padic._eval_mod(f, x, mod)
        x = (x - fx * pow(padic._eval_mod(deriv, x, mod), -1, mod)) % mod
    return x % p**k


NEWTON_PRIMES = SMALL_PRIMES + [p for p in primes_upto(20100) if p > 19900]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(NEWTON_PRIMES),
    st.integers(0, 10**6),
    st.lists(st.integers(-50, 50), min_size=2, max_size=4).filter(lambda g: g[-1] != 0),
    st.lists(st.integers(-50, 50), min_size=0, max_size=5),
    st.integers(1, 200),
)
def test_newton_matches_the_inverse_at_every_doubling(p, r, g, c, k):
    # f = (x - r) g + p c has the root r mod p, simple where g(r) != 0 mod p
    r %= p
    assume(padic._eval_mod(g, r, p))
    f = [0] * max(len(g) + 1, len(c))
    for i, a in enumerate(g):
        f[i] -= r * a
        f[i + 1] += a
    for i, a in enumerate(c):
        f[i] += p * a
    while f and f[-1] == 0:
        f.pop()
    assume(3 <= len(f) <= 5)
    deriv = padic._derivative(f)
    got = padic._newton(f, deriv, p, r, k)
    assert got == _newton_reference(f, deriv, p, r, k)
    assert got % p == r and padic._eval_mod(f, got, p**k) == 0


# -- crt ----------------------------------------------------------------------


def test_crt_examples_against_enumeration():
    def brute(parts):
        m = 1
        for mod, _ in parts:
            m *= mod
        hits = [x for x in range(m) if all(x % mod == r % mod for mod, r in parts)]
        assert len(hits) == 1
        return hits[0], m

    for parts in ([(2, 1), (3, 2)], [(4, 3)], [(2, 0), (9, 8)], [(5, 4), (7, 2), (8, 1)]):
        assert crt_combine(parts) == brute(parts)


def test_crt_rejects_common_factors():
    with pytest.raises(ValueError):
        crt_combine([(4, 1), (6, 3)])


@pytest.mark.parametrize("m", [0, -5])
def test_crt_rejects_nonpositive_moduli(m):
    with pytest.raises(ValueError, match=f"^modulus must be positive, got {m}$"):
        crt_combine([(3, 1), (m, 0)])


def test_crt_empty():
    assert crt_combine([]) == (0, 1)


@pytest.mark.parametrize("m, r", [(1, 0), (1, 5), (1, -3), (7, -1), (7, -15), (7, 7), (7, 23), (9, 4)])
def test_crt_single_part_is_its_residue(m, r):
    assert crt_combine([(m, r)]) == (r % m, m)
    # a modulus-1 first part leaves the next part as it is
    assert crt_combine([(1, r), (m, r + 1)]) == ((r + 1) % m, m)


@pytest.mark.parametrize("m", [0, -1, -7])
def test_crt_rejects_a_nonpositive_first_modulus(m):
    for parts in ([(m, 1)], [(m, 0), (5, 2)]):
        with pytest.raises(ValueError, match=f"^modulus must be positive, got {m}$"):
            crt_combine(parts)


# -- floor(ln p) for log_generic ----------------------------------------------------


def test_floor_ln_matches_math_log_below_a_million():
    for p in primes_upto(10**6):
        assert padic._floor_ln(p) == math.floor(math.log(p)), p


def test_floor_ln_either_side_of_exp_n():
    # 60 significant digits leave over 30 after the point of e^60
    ctx = Context(prec=60)
    for n in range(1, 61):
        above = int(ctx.exp(n).to_integral_value(rounding=ROUND_CEILING))
        assert padic._ceil_exp(n) == above
        assert padic._floor_ln(above) == n
        assert padic._floor_ln(above - 1) == n - 1


def test_floor_ln_thresholds_are_not_built_at_import():
    code = "import quasieuclid.padic as p; print(p._EXP_CEIL)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "()\n"


# -- serialization -----------------------------------------------------------------


def test_tau_json_round_trip():
    specs = [
        constant(7),
        zero(),
        stream(42),
        log_generic(7),
        hensel((-2, 0, 1), constant(1)),
        piecewise({2: zero(), 5: constant(3)}, stream(9)),
        progression(4, [1, 3], hensel((-2, 0, 1), zero()), log_generic(7)),
    ]
    for spec in specs:
        clone = tau_from_json(spec.to_json())
        assert clone.to_json() == spec.to_json()
        for p in (2, 3, 5, 7):
            for k in range(0, 4):
                assert clone.query(p, k) == spec.query(p, k)


def test_tau_json_exact_forms():
    assert constant(7).to_json() == {"kind": "constant", "value": 7}
    assert zero().to_json() == {"kind": "zero"}
    assert stream(5).to_json() == {"kind": "stream", "seed": 5}
    assert log_generic(5).to_json() == {"kind": "log_generic", "seed": 5}
    assert hensel((-2, 0, 1), zero()).to_json() == {
        "kind": "hensel",
        "poly": [-2, 0, 1],
        "fallback": {"kind": "zero"},
    }
    assert piecewise({2: zero()}, constant(1)).to_json() == {
        "kind": "piecewise",
        "overrides": {"2": {"kind": "zero"}},
        "default": {"kind": "constant", "value": 1},
    }
    assert progression(4, [1], zero(), stream(9)).to_json() == {
        "kind": "progression",
        "modulus": 4,
        "residues": [1],
        "when": {"kind": "zero"},
        "otherwise": {"kind": "stream", "seed": 9},
    }


@pytest.mark.parametrize("bad", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "make, message",
    [
        (constant, "'value' must be an integer, got {!r}"),
        (stream, "'seed' must be an integer, got {!r}"),
        (log_generic, "'seed' must be an integer, got {!r}"),
        (
            lambda v: hensel([-2, v, 1], zero()),
            "hensel 'poly' must be a list of integers, got [-2, {!r}, 1]",
        ),
        (lambda v: piecewise({v: zero()}, stream(3)), "'override key' must be an integer, got {!r}"),
        (lambda v: progression(v, [0], zero(), stream(3)), "'modulus' must be an integer, got {!r}"),
        (lambda v: progression(4, [1, v], zero(), stream(3)), "'residue' must be an integer, got {!r}"),
    ],
    ids=[
        "constant",
        "stream",
        "log_generic",
        "hensel",
        "piecewise",
        "progression_modulus",
        "progression_residue",
    ],
)
def test_tau_constructors_take_exact_ints(make, message, bad):
    with pytest.raises(ValueError) as err:
        make(bad)
    assert str(err.value) == message.format(bad)


@pytest.mark.parametrize("key", [2.0, "2"], ids=repr)
def test_piecewise_override_keys_are_exact_ints(key):
    # 2.0 once built a spec whose JSON key "2.0" would not read back, and
    # "2" met a TypeError inside is_prime
    with pytest.raises(ValueError) as err:
        piecewise({key: zero()}, stream(3))
    assert str(err.value) == f"'override key' must be an integer, got {key!r}"


def test_tau_json_rejects_unknown():
    with pytest.raises(ValueError):
        tau_from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        tau_from_json("zero")
    with pytest.raises(ValueError, match="unknown field"):
        tau_from_json({"kind": "zero", "bogus": 1})
    with pytest.raises(ValueError, match="unknown tau spec kind"):
        tau_from_json({"kind": ["zero"]})


def _progression_json(modulus, residues):
    return {
        "kind": "progression",
        "modulus": modulus,
        "residues": residues,
        "when": {"kind": "zero"},
        "otherwise": {"kind": "stream", "seed": 3},
    }


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"kind": "hensel", "poly": "x^2-2", "fallback": {"kind": "zero"}},
            "hensel 'poly' must be a list of integers, got 'x^2-2'",
        ),
        (
            {"kind": "hensel", "poly": {"0": -2}, "fallback": {"kind": "zero"}},
            "hensel 'poly' must be a list of integers, got {'0': -2}",
        ),
        (
            {"kind": "piecewise", "overrides": [[2, {"kind": "zero"}]], "default": {"kind": "zero"}},
            "piecewise 'overrides' must be an object",
        ),
        (
            _progression_json(4, 1),
            "progression 'residues' must be a list of integers",
        ),
        (
            _progression_json(0, []),
            "progression 'modulus' must be at least 1, got 0",
        ),
        (
            _progression_json(4, [1, 4]),
            "progression residues [1, 4] must be distinct and in [0, 4)",
        ),
        (
            _progression_json(4, [1, 3, 1]),
            "progression residues [1, 3, 1] must be distinct and in [0, 4)",
        ),
        (
            _progression_json(True, [0]),
            "'modulus' must be an integer, got True",
        ),
    ],
    ids=[
        "poly_str",
        "poly_object",
        "overrides_list",
        "residues_not_a_list",
        "modulus_0",
        "residue_past_modulus",
        "residue_repeated",
        "modulus_bool",
    ],
)
def test_tau_json_rejects_wrong_container_types(data, message):
    with pytest.raises(ValueError) as err:
        tau_from_json(data)
    assert str(err.value) == message


def test_tau_json_depth_cap():
    spec = zero()
    for _ in range(63):
        spec = hensel((1, 0, 1), spec)
    assert tau_from_json(spec.to_json()).to_json() == spec.to_json()
    with pytest.raises(ValueError, match="nested more than 64 levels"):
        tau_from_json(hensel((1, 0, 1), spec).to_json())


def test_tau_json_override_keys_must_be_decimal():
    for key in ("2.0", " 7", "07", "+7", 7):
        data = {"kind": "piecewise", "overrides": {key: {"kind": "zero"}}, "default": {"kind": "zero"}}
        with pytest.raises(ValueError, match="must be an integer in decimal"):
            tau_from_json(data)


# -- hensel roots by gcd ------------------------------------------------------


def _linear_simple_root(f, p):
    """The smallest r in [0, p) with f(r) = 0 and f'(r) != 0 mod p, by trying
    every residue: the search HenselTau ran before it found roots by gcds,
    kept as the reference."""
    for r in range(p):
        if sum(c * r**i for i, c in enumerate(f)) % p == 0:
            if sum(i * c * r ** (i - 1) for i, c in enumerate(f) if i) % p != 0:
                return r
    return None


def _times_square(g, r):
    """g * (x - r)^2, coefficients constant term first."""
    for _ in range(2):
        out = [0] * (len(g) + 1)
        for i, c in enumerate(g):
            out[i] -= r * c
            out[i + 1] += c
        g = out
    return g


SHAPES = ("as is", "double root", "p | lc", "p | f")


@settings(max_examples=600, deadline=None)
@given(
    st.lists(st.integers(-60, 60), min_size=1, max_size=7),
    st.sampled_from(primes_upto(500)),
    st.sampled_from(SHAPES),
    st.integers(-60, 60),
)
@example(g=[1, 1], p=2, shape="as is", r=0)  # x + 1 mod 2: the root 1
@example(g=[0, 1, 1], p=2, shape="as is", r=0)  # x(x + 1) mod 2: 0 and 1
@example(g=[1, 0, 1], p=2, shape="as is", r=0)  # (x + 1)^2 mod 2: no simple root
@example(g=[-2, 0, 1], p=2, shape="as is", r=0)  # x^2 mod 2
@example(g=[-2, 0, 1], p=3, shape="as is", r=0)  # x^2 + 1 mod 3: no root
@example(g=[2, 0, 1], p=3, shape="as is", r=0)  # x^2 - 1 mod 3: 1 and 2
@example(g=[1, 1, 1], p=3, shape="as is", r=0)  # (x - 1)^2 mod 3
@example(g=[1, 2, 3], p=7, shape="p | f", r=0)  # every coefficient a multiple of p
@example(g=[1, 3, 1], p=5, shape="p | lc", r=0)  # 1 + 3x mod 5: the root 3
@example(g=[2, 1], p=7, shape="p | lc", r=0)  # a nonzero constant mod p
@example(g=[], p=5, shape="as is", r=0)
@example(g=[0, 0, 0], p=5, shape="as is", r=0)
@example(g=[0, -2, 0, 1], p=7, shape="as is", r=0)  # the root 0, then 3 and 4
@example(g=[1, 1], p=11, shape="double root", r=3)  # (x - 3)^2 (x + 1): 10
@example(g=[1], p=13, shape="double root", r=5)  # (x - 5)^2 only
@example(g=[0, 1], p=13, shape="double root", r=0)  # x^3: 0 is a triple root
@example(g=[0, -1, 0, 1], p=3, shape="as is", r=0)  # x^3 - x: every residue
@example(g=[1, -1, 0, 0, 0, 0, 1], p=5, shape="as is", r=0)  # p <= deg f
@example(g=[3, 0, 0, 0, 0, 0, 1], p=2, shape="as is", r=0)
def test_simple_root_matches_linear_search(g, p, shape, r):
    if shape == "double root":
        f = _times_square(g[:5], r)
    elif shape == "p | lc":
        f = g[:-1] + [g[-1] * p]
    elif shape == "p | f":
        f = [c * p for c in g]
    else:
        f = g
    assert hensel(f, zero())._simple_root(p) == _linear_simple_root(f, p)
    fp = [c % p for c in f]
    while fp and not fp[-1]:
        fp.pop()
    if len(fp) >= 2:  # a root set exists and is finite
        every = {x for x in range(p) if sum(c * x**i for i, c in enumerate(f)) % p == 0}
        roots = padic._roots_mod(f, p)
        assert sorted(roots) == sorted(every)


@pytest.mark.parametrize("f", [(-2, 0, 1), (-13, 3, 1)], ids=["x^2-2", "x^2+3x-13"])
def test_simple_root_matches_linear_search_at_every_prime_to_3000(f):
    spec = hensel(f, zero())
    for p in primes_upto(3000):
        assert spec._simple_root(p) == _linear_simple_root(f, p), p


def test_simple_root_at_a_large_prime():
    p = 1000000007
    r = hensel((-2, 0, 1), zero())._simple_root(p)
    assert r == 59713600
    assert (r * r - 2) % p == 0 and r < p - r
    assert hensel((1, 0, 1), zero())._simple_root(p) is None  # p = 3 mod 4


# -- quadratic roots by a square root ---------------------------------------------


def _every_root(f, p):
    """The roots of f mod p, by trying every residue; none when f mod p is
    zero or a nonzero constant, as _roots_mod has it."""
    if not any(c % p for c in f[1:]):
        return []
    return sorted(x for x in range(p) if sum(c * x**i for i, c in enumerate(f)) % p == 0)


# p = 1 mod 8, where p - 1 = 2^s q has s >= 3: Tonelli-Shanks takes several
# passes, and the shifts a = 1, 2 of the splitting loop do not split x^2 - 2
# at 73.  65537 = 2^16 + 1 has s = 16.
TWO_ADIC_PRIMES = (17, 41, 73, 97, 257, 7681, 65537)


@pytest.mark.parametrize("p", TWO_ADIC_PRIMES)
def test_sqrt_mod_against_every_square(p):
    assert (p - 1) % 8 == 0
    squares = {x * x % p for x in range(p)}
    for a in range(-1, p + 1):
        r = padic._sqrt_mod(a, p)
        if a % p in squares:
            assert r is not None and 0 <= r < p and r * r % p == a % p, a
        else:
            assert r is None, a


@pytest.mark.parametrize("p", TWO_ADIC_PRIMES)
def test_quadratic_roots_at_primes_with_large_two_adic_part(p):
    rng = random.Random(p)
    polys = [(-2, 0, 1), (1, 0, 1), (-13, 3, 1), (-1, -1, 1)]
    polys += [tuple(rng.randint(-p, p) for _ in range(2)) + (rng.randint(1, 9),) for _ in range(6)]
    for f in polys:
        roots = _every_root(f, p)
        assert sorted(padic._roots_mod(f, p)) == roots, f
        simple = [r for r in roots if (f[1] + 2 * f[2] * r) % p]
        assert hensel(f, zero())._simple_root(p) == min(simple, default=None), f


@pytest.mark.parametrize(
    "f, p, roots",
    [
        ((16, -6, 1), 7, [3]),  # (x - 3)^2 + 7: a double root mod 7
        ((9, -6, 1), 101, [3]),  # (x - 3)^2 at every prime
        ((1, 2, 1), 2, [1]),  # (x + 1)^2 mod 2
        ((1, 1, 1), 3, [1]),  # (x - 1)^2 mod 3
        ((0, 0, 5), 13, [0]),  # 5x^2: the root 0 twice
    ],
)
def test_quadratic_with_zero_discriminant_falls_back(f, p, roots):
    assert sorted(padic._roots_mod(f, p)) == roots == _every_root(f, p)
    spec = hensel(f, constant(5))
    assert spec._simple_root(p) is None
    for k in range(1, 6):
        assert spec.query(p, k).value == 5 % p**k


@pytest.mark.parametrize(
    "f, p",
    [
        ((1, 3, 7), 7),  # p | lc: 3x + 1 mod 7
        ((2, 0, 7), 7),  # p | lc: a nonzero constant mod 7
        ((14, 0, -7), 7),  # f = 0 mod p
        ((0, 0, 4), 2),  # f = 0 mod 2
        ((0, 1, 1), 2),  # x(x + 1) mod 2
        ((1, 1, 1), 2),  # no root mod 2
        ((1, 0, 1), 3),  # x^2 + 1: no root mod 3
        ((-1, 0, 1), 3),  # x^2 - 1: 1 and 2
        ((0, 2, 1), 3),  # x(x + 2): 0 and 1
        ((-2, 0, 1), 2),  # x^2 mod 2
        ((-2, 0, 1), 3),  # x^2 + 1 mod 3
        ((3, 1, 3), 3),  # p | lc: x mod 3
    ],
)
def test_quadratic_edge_cases_against_every_residue(f, p):
    assert sorted(padic._roots_mod(f, p)) == _every_root(f, p)
    assert hensel(f, zero())._simple_root(p) == _linear_simple_root(f, p)


def _from_roots(roots, tail=(1,)):
    """tail(x) times the product of (x - r) over roots, constant term first."""
    f = list(tail)
    for r in roots:
        f = [a - r * b for a, b in zip([0] + f, f + [0])]
    return f


@pytest.mark.parametrize("p", [7, 11, 13, 17, 41, 73, 97, 101, 257])
def test_quadratic_parts_split_out_of_cubics_and_quartics(monkeypatch, p):
    # two quadratic residues and a non-residue give a part of degree 2 where
    # x^((p-1)/2) = 1; x^2 - n for a non-residue n is a quadratic part with no root
    squares = sorted({x * x % p for x in range(1, p)})
    nonres = [a for a in range(1, p) if a not in squares]
    cases = [
        _from_roots([squares[0], squares[1], nonres[0]]),
        _from_roots([nonres[0], nonres[1], squares[0]]),
        _from_roots([squares[0], squares[-1], nonres[0], nonres[-1]]),
        _from_roots([squares[0], squares[1]], tail=(-nonres[0], 0, 1)),
        [0, -nonres[0], 0, 1],  # x^3 - n x: the root 0, then x^2 - n
    ]
    seen = []
    quadratic_roots = padic._quadratic_roots

    def recording(g, q):
        seen.append(len(g) - 1)
        return quadratic_roots(g, q)

    monkeypatch.setattr(padic, "_quadratic_roots", recording)
    for f in cases:
        seen.clear()
        assert sorted(padic._roots_mod(f, p)) == _every_root(f, p), f
        assert seen and set(seen) == {2}, f


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5),
    st.sampled_from(primes_upto(3000)),
)
@example(f=[-2, 0, 1], p=73)
@example(f=[-2, 0, 1], p=2113)  # 2113 = 2^6·33 + 1
@example(f=[0, 0, 0, 0, 1], p=17)
@example(f=[1, 0, 0, 0, 1], p=17)  # x^4 + 1 splits completely mod 17
def test_roots_mod_equals_trial_of_every_residue(f, p):
    assert sorted(padic._roots_mod(f, p)) == _every_root(f, p)


# -- the kind table ------------------------------------------------------------

# One spec of each kind that tau_from_json reads, nested kinds over leaves.
KIND_SAMPLES = {
    "constant": constant(-3),
    "zero": zero(),
    "stream": stream(42),
    "log_generic": log_generic(7),
    "hensel": hensel((-2, 0, 1), stream(3)),
    "piecewise": piecewise({2: constant(1), 7: hensel((-2, 0, 1), zero())}, log_generic(3)),
    "progression": progression(4, [1], zero(), hensel((-2, 0, 1), stream(3))),
}


@pytest.mark.parametrize("kind", sorted(padic._KINDS))
def test_every_kind_in_the_table_reads_back(kind):
    spec = KIND_SAMPLES[kind]
    assert type(spec) is padic._KINDS[kind]
    clone = tau_from_json(spec.to_json())
    assert type(clone) is type(spec)
    assert clone.to_json() == spec.to_json()
    for h in [(5,), (1, 2, 3), (-2, 0, 1), (0, 4, 0, 9)]:
        for n in (1, 12, 2**3 * 3**2 * 5 * 7, 7**4 * 11):
            assert clone.eval_mod(h, n) == spec.eval_mod(h, n)
    lacking = {f for cls in padic._KINDS.values() for f in cls._fields} - set(spec._fields)
    for key in sorted(lacking) + ["bogus"]:
        with pytest.raises(ValueError) as err:
            tau_from_json(dict(spec.to_json(), **{key: 1}))
        assert str(err.value) == f"unknown field(s) [{key!r}] in a {kind!r} tau spec"
