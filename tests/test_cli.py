import json
import os
import subprocess
import sys
import time

import pytest

from quasieuclid import RingElement, ResidueClass, hensel_lift, parse_element, stream, zero
from quasieuclid import adversary as adv
from quasieuclid.cli import main
from quasieuclid.ring import RingContext

ZERO_TAU = '{"kind":"constant","value":0}'
ONE_TAU = '{"kind":"constant","value":1}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- basic commands ---------------------------------------------------------


def test_member_true(capsys):
    code, out, _ = run_cli(capsys, "member", "--tau", ZERO_TAU, "x/2")
    assert code == 0
    assert out.strip() == "x/2: true"


def test_member_false_still_succeeds(capsys):
    code, out, _ = run_cli(capsys, "member", "--tau", ONE_TAU, "x/2")
    assert code == 0
    assert out.strip() == "x/2: false"


def test_member_json(capsys):
    code, out, _ = run_cli(capsys, "member", "--tau", ZERO_TAU, "--json", "x/2")
    assert code == 0
    data = json.loads(out)
    assert data == {"element": {"num": [0, 1], "den": 2}, "member": True}


def test_divmod_text_and_json_agree(capsys):
    code, out, _ = run_cli(capsys, "divmod", "--tau", ONE_TAU, "x", "2")
    assert code == 0
    lines = dict(line.split(":", 1) for line in out.strip().splitlines())
    q_text = parse_element(lines["quotient"].strip())
    s_text = parse_element(lines["remainder"].strip())

    code, out, _ = run_cli(capsys, "divmod", "--tau", ONE_TAU, "--json", "x", "2")
    data = json.loads(out)
    assert RingElement.from_json(data["quotient"]) == q_text == RingElement((-1, 1), 2)
    assert RingElement.from_json(data["remainder"]) == s_text == RingElement((1,))


def test_divmod_by_zero_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "divmod", "x", "0")
    assert code == 1
    assert "division by zero" in err


def test_divmod_by_zero_json_error(capsys):
    code, out, _ = run_cli(capsys, "divmod", "--json", "x", "0")
    assert code == 1
    assert "error" in json.loads(out)


def test_divmod_non_member_input(capsys):
    code, _, err = run_cli(capsys, "divmod", "--tau", ONE_TAU, "x/2", "2")
    assert code == 1
    assert "not in the ring" in err


def test_gcd_output(capsys):
    code, out, _ = run_cli(capsys, "gcd", "--tau", ZERO_TAU, "x", "2")
    assert code == 0
    assert "gcd: 2" in out
    assert "bezout: 2 = (0)*(x) + (1)*(2)" in out


def test_chain_json_schema(capsys):
    code, out, _ = run_cli(capsys, "chain", "--tau", ZERO_TAU, "--json", "8", "5")
    data = json.loads(out)
    assert set(data) == {"a", "b", "quotients", "remainders", "phi"}
    assert [RingElement.from_json(q) for q in data["quotients"]] == [
        RingElement((v,)) for v in (1, 1, 1, 2)
    ]
    assert len(data["phi"]) == len(data["remainders"]) + 1
    assert all(len(entry) == 5 for entry in data["phi"])
    # strictly decreasing lexicographically
    for before, after in zip(data["phi"], data["phi"][1:]):
        assert after < before


def test_normalize_trace(capsys):
    code, out, _ = run_cli(capsys, "normalize", "13", "8", "2", "-2", "-2")
    assert code == 0
    assert out.startswith("start:")
    assert "t1 ->" in out
    assert "result:" in out


def test_compare_reports_verdict(capsys):
    code, out, _ = run_cli(capsys, "compare", "13", "8", "2")
    assert code == 0
    assert "verdict: ok" in out


def test_adversary_text(capsys):
    code, out, _ = run_cli(capsys, "adversary", "--tau", ZERO_TAU, "1", "x")
    assert code == 0
    assert "(c, d) = (5, 3), beta = 0" in out
    assert "verdict: true" in out


@pytest.mark.parametrize(
    "b, message",
    [("x/2", "x/2 is not in the ring"), ("1/2", "b must have degree at least 1")],
    ids=["non_constant", "constant"],
)
def test_adversary_b_is_checked_by_the_library(capsys, monkeypatch, b, message):
    seen = []
    pair = adv.adversarial_pair

    def recording(ctx, k, b):
        seen.append(b)
        return pair(ctx, k, b)

    monkeypatch.setattr(adv, "adversarial_pair", recording)
    code, out, err = run_cli(capsys, "adversary", "--tau", ONE_TAU, "2", b)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and message in err
    assert seen == [parse_element(b)]


def test_scan_text(capsys):
    tau = '{"kind":"hensel","poly":[-2,0,1],"fallback":{"kind":"constant","value":1}}'
    code, out, _ = run_cli(capsys, "scan", "--tau", tau, "x^2 - 2")
    assert code == 0
    for p in (7, 17, 23, 31, 41, 47):
        assert f"p = {p}: depth 8 (saturated, exact)" in out


def test_witness_text(capsys):
    code, out, _ = run_cli(capsys, "witness", "--tau", ZERO_TAU, "x", "--depth", "4")
    assert code == 0
    assert "kind: prime_power" in out
    for piece in ("x/2", "x/4", "x/8", "x/16"):
        assert piece in out


def test_witness_none(capsys):
    tau = '{"kind":"log_generic","seed":7}'
    code, out, _ = run_cli(capsys, "witness", "--tau", tau, "x", "--depth", "3")
    assert code == 0
    assert "no witness" in out


def test_tau_inspection(capsys):
    code, out, _ = run_cli(capsys, "tau", "--tau", '{"kind":"constant","value":7}', "5", "2")
    assert code == 0
    assert "tau_5 mod 5^2 = 7" in out


def test_tau_past_the_print_limit_fails_before_splitting_digits(capsys, monkeypatch):
    def digits(self):
        raise AssertionError("digits() ran on a value that cannot be printed")

    monkeypatch.setattr(ResidueClass, "digits", digits)
    code, out, err = run_cli(capsys, "tau", "--seed", "1", "7", "6000")  # 5,071 digits
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "more than 4300 decimal digits" in err


# -- flags and errors ----------------------------------------------------------


def test_usage_error_bad_polynomial(capsys):
    code, _, err = run_cli(capsys, "member", "y")
    assert code == 2
    assert "bad polynomial" in err


def test_usage_error_bad_tau(capsys):
    code, _, err = run_cli(capsys, "member", "--tau", '{"kind":"bogus"}', "x")
    assert code == 2
    assert "bad tau spec" in err


def test_usage_error_conflicting_tau_sources(capsys, tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(ZERO_TAU)
    code, _, err = run_cli(capsys, "member", "--tau", ZERO_TAU, "--tau-file", str(path), "x")
    assert code == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--seed", "5", "--tau", '{"kind":"zero"}'), ("--tau", "--seed")),
        (("--seed", "5", "--tau-file", "TAU_FILE"), ("--tau-file", "--seed")),
        (("--tau", "", "--tau-file", "TAU_FILE"), ("--tau", "--tau-file")),
    ],
    ids=["seed_and_tau", "seed_and_tau_file", "empty_tau_and_tau_file"],
)
def test_any_two_tau_sources_are_a_usage_error(capsys, tmp_path, flags, named):
    path = tmp_path / "tau.json"
    path.write_text(ZERO_TAU)
    argv = [str(path) if f == "TAU_FILE" else f for f in flags]
    code, out, err = run_cli(capsys, "tau", *argv, "7", "3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and all(flag in err for flag in named)


def test_tau_file(capsys, tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(ZERO_TAU)
    code, out, _ = run_cli(capsys, "member", "--tau-file", str(path), "x/2")
    assert code == 0
    assert "true" in out


def test_seed_flag_selects_stream(capsys):
    code, out, _ = run_cli(capsys, "tau", "--seed", "42", "7", "3")
    assert code == 0
    from quasieuclid import stream

    expected = stream(42).query(7, 3).value
    assert f"= {expected} " in out


def test_json_reruns_are_byte_identical(capsys):
    args = ["chain", "--tau", '{"kind":"stream","seed":11}', "--json", "(x^2+x)/2", "x"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_golden_chain_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "chain", "--tau", '{"kind":"stream","seed":11}', "--json", "(x^2+x)/2", "x",
    )
    assert code == 0
    assert out.strip() == (
        '{"a": {"den": 2, "num": [0, 1, 1]}, "b": {"den": 1, "num": [0, 1]},'
        ' "phi": [[0, 3, 1, 2, 1], [0, 2, 1, 2, 2], [0, 0, 0, 0, 0]],'
        ' "quotients": [{"den": 2, "num": [0, 1]}, {"den": 1, "num": [2]}],'
        ' "remainders": [{"den": 2, "num": [0, 1]}, {"den": 1, "num": []}]}'
    )


def test_golden_scan_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--tau", '{"kind":"constant","value":30}', "--json",
        "x", "--kmax", "3", "--pmax", "10",
    )
    assert code == 0
    assert out.strip() == (
        '{"h": {"den": 1, "num": [0, 1]}, "hits":'
        ' [{"depth": 1, "exact": false, "prime": 2, "saturated": false},'
        ' {"depth": 1, "exact": false, "prime": 3, "saturated": false},'
        ' {"depth": 1, "exact": false, "prime": 5, "saturated": false}],'
        ' "k_max": 3, "p_max": 10}'
    )


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quasieuclid", "member", "--tau", ZERO_TAU, "x/2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x/2: true"


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "quasieuclid", *argv],
        capture_output=True,
        text=True,
    )


def test_truncated_exponent_is_usage_error():
    proc = _run_module("normalize", "13", "8", "x^")
    assert proc.returncode == 2
    assert "unexpected end of expression" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["x\u00b2", "\u0663x"], ids=["superscript-two", "arabic-indic-three"])
def test_non_ascii_digits_are_usage_errors(text):
    proc = _run_module("member", text)
    assert proc.returncode == 2
    assert "unexpected character" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_piecewise_overrides_list_is_usage_error():
    tau = '{"kind":"piecewise","overrides":[],"default":{"kind":"zero"}}'
    proc = _run_module("member", "--tau", tau, "x/2")
    assert proc.returncode == 2
    assert "bad tau spec" in proc.stderr
    assert "Traceback" not in proc.stderr


def _nested_tau(depth):
    # depth specs in all: hensel fallbacks around a zero tau
    head = '{"kind":"hensel","poly":[-2,0,1],"fallback":'
    return head * (depth - 1) + '{"kind":"zero"}' + "}" * (depth - 1)


def test_tau_json_nesting_cap():
    assert _run_module("member", "--tau", _nested_tau(64), "x/2").returncode == 0
    for depth in (65, 900):
        proc = _run_module("member", "--tau", _nested_tau(depth), "x/2")
        assert proc.returncode == 2
        assert "nested more than 64 levels" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_tau_json_too_deep_for_the_decoder(tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(_nested_tau(5000))
    proc = _run_module("member", "--tau-file", str(path), "x/2")
    assert proc.returncode == 2
    assert "bad tau spec" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "tau",
    [
        {"kind": "zero", "bogus": 1},
        {"kind": "stream", "seed": 1, "value": 2},
        {"kind": "piecewise", "overrides": {}, "default": {"kind": "zero"}, "extra": None},
    ],
    ids=["zero", "stream", "piecewise"],
)
def test_tau_json_unknown_keys_are_usage_errors(tau):
    proc = _run_module("member", "--tau", json.dumps(tau), "x/2")
    assert proc.returncode == 2
    assert "unknown field" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key", ["2.0", " 7", "07", "+7", "7_0"])
def test_tau_json_override_keys_are_canonical(key):
    tau = {"kind": "piecewise", "overrides": {key: {"kind": "zero"}}, "default": {"kind": "zero"}}
    proc = _run_module("member", "--tau", json.dumps(tau), "x/2")
    assert proc.returncode == 2
    assert f"override key {key!r} must be an integer in decimal" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("bad", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: {"kind": "constant", "value": v},
        lambda v: {"kind": "stream", "seed": v},
        lambda v: {"kind": "log_generic", "seed": v},
        lambda v: {"kind": "hensel", "poly": [-2, v, 1], "fallback": {"kind": "zero"}},
    ],
    ids=["constant.value", "stream.seed", "log_generic.seed", "hensel.poly"],
)
def test_tau_json_integer_fields_are_strict(build, bad):
    proc = _run_module("member", "--tau", json.dumps(build(bad)), "x/2")
    assert proc.returncode == 2
    assert "bad tau spec" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_leading_minus_polynomial_after_double_dash(capsys):
    code, out, _ = run_cli(capsys, "divmod", "--", "-x^2-1", "3x+2")
    assert code == 0
    assert out.splitlines() == ["quotient:  -x/3", "remainder: (2*x - 3)/3"]


def test_chain_rejects_nonpositive_max_steps(capsys):
    code, _, err = run_cli(capsys, "chain", "--max-steps", "0", "x", "1")
    assert code == 1
    assert "max_steps must be positive" in err


def test_step_budget_past_huge_inputs_is_one_short_line(capsys):
    code, out, err = run_cli(capsys, "chain", "--max-steps", "1", "2^20000*x+1", "3x")
    assert (code, out) == (1, "")
    assert err == "error: division chain exceeded 1 steps\n"


def test_non_member_past_the_digit_limit_is_not_in_the_ring(capsys):
    code, out, err = run_cli(capsys, "divmod", "--tau", '{"kind":"constant","value":1}', "x/2^20000", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert "not in the ring" in err


def test_factoring_budget_exits_1_without_traceback():
    # (2^61 - 1)(10^18 + 9): two 60-bit primes, far past the rho budget
    proc = _run_module(
        "member", "--tau", '{"kind":"stream","seed":42}', "x/2305843009213693971752587082923245559"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "rho iterations" in proc.stderr
    assert "Traceback" not in proc.stderr


_HARD = (2**61 - 1) * (10**18 + 9)


def test_non_member_under_a_constant_tau_names_its_failing_prime_without_rho(capsys, monkeypatch):
    from quasieuclid import padic

    def refuse(n, budget):
        raise AssertionError(f"rho ran on {n}")

    monkeypatch.setattr(padic, "_brent_rho", refuse)
    code, out, err = run_cli(capsys, "divmod", "--tau", ZERO_TAU, f"(x+{_HARD})/{2 * _HARD}", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.endswith("is not in the ring: numerator evaluates to 1 mod 2^1, expected 0\n")


def test_non_member_past_the_rho_budget_is_not_in_the_ring(capsys, monkeypatch):
    from quasieuclid import padic

    # a small budget stands in for the default one, which would take seconds
    monkeypatch.setattr(padic, "RHO_BUDGET", 1000)
    padic.factorize.cache_clear()
    try:
        code, out, err = run_cli(capsys, "divmod", "--tau", ONE_TAU, f"x/{_HARD}", "1")
    finally:
        padic.factorize.cache_clear()
    assert (code, out) == (1, "")
    assert err == f"error: x/{_HARD} is not in the ring: numerator evaluates to 1 mod {_HARD}^1, expected 0\n"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_reader_closing_the_pipe_early_is_exit_1_without_traceback(flags):
    # tau_7 = 3 mod 7^100000 prints 100,000 digits, far more than a pipe holds
    read_end, write_end = os.pipe()
    with subprocess.Popen(
        [sys.executable, "-m", "quasieuclid", "tau", *flags, "--tau", '{"kind":"constant","value":3}', "7", "100000"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        os.close(write_end)
        head = os.read(read_end, 10)
        os.close(read_end)
        err = proc.stderr.read()
        assert proc.wait(timeout=10) == 1
    assert head
    assert err.count("\n") <= 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


HENSEL_X2_MINUS_2 = '{"kind":"hensel","poly":[-2,0,1],"fallback":{"kind":"constant","value":1}}'
LARGE_PRIME = 1000000007


def test_hensel_tau_at_a_large_prime_answers_at_once():
    # the root search takes gcds: trying all p residues would take minutes
    proc = subprocess.run(
        [sys.executable, "-m", "quasieuclid", "tau", "--json", "--tau", HENSEL_X2_MINUS_2, str(LARGE_PRIME), "4"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    r = data["digits"][0]
    assert (r * r - 2) % LARGE_PRIME == 0 and r < LARGE_PRIME - r
    assert data["value"] == hensel_lift((-2, 0, 1), LARGE_PRIME, r, 4).value

    p2 = LARGE_PRIME**2
    for element, expected in (
        (f"x/{LARGE_PRIME}", hensel_lift((-2, 0, 1), LARGE_PRIME, r, 1).value == 0),
        (f"(x^2-2)/{p2}", True),
        (f"(x-{r})/{LARGE_PRIME}", True),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "quasieuclid", "member", "--json", "--tau", HENSEL_X2_MINUS_2, element],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["member"] is expected, element


@pytest.mark.parametrize("text", ["x^100000000", "2^100000000", "(x^1000)^1000", "(x+1)^4000"])
def test_huge_power_is_usage_error(text):
    proc = subprocess.run(
        [sys.executable, "-m", "quasieuclid", "member", text],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "power too large" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_product_of_powers_is_usage_error():
    text = "*".join(["(x+1)^255"] * 16)
    proc = subprocess.run(
        [sys.executable, "-m", "quasieuclid", "member", text],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "product too large" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_integer_literal_past_the_digit_limit_is_usage_error(json_flag):
    limit = sys.get_int_max_str_digits()
    proc = _run_module("member", *json_flag, "x + " + "1" * (limit + 1))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"more than the limit of {limit}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


@pytest.mark.parametrize("source", ["--tau", "--tau-file"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_tau_integer_past_the_digit_limit_is_usage_error(json_flag, source, tmp_path):
    limit = sys.get_int_max_str_digits()
    spec = '{"kind": "constant", "value": ' + "1" * (limit + 1) + "}"
    if source == "--tau-file":
        spec_path = tmp_path / "tau.json"
        spec_path.write_text(spec)
        spec = str(spec_path)
    proc = _run_module("member", *json_flag, source, spec, "x")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"has {limit + 1} digits, more than the limit of {limit}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


def test_printed_sparse_quotient_reads_back(capsys):
    code, out, _ = run_cli(capsys, "divmod", "x^40001", "x/3")
    assert code == 0
    assert out.splitlines()[0] == "quotient:  3*x^40000"
    code, out, err = run_cli(capsys, "member", "3*x^40000")
    assert (code, out, err) == (0, "3*x^40000: true\n", "")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_result_past_the_digit_limit_is_one_error_line(json_flag):
    proc = _run_module("divmod", *json_flag, "2^20000", "3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr


def test_member_gives_a_non_member_verdict_past_the_print_limit(capsys):
    # x/3^9100 parses from 9 characters, but 3^9100 has 4,342 digits
    e = parse_element("x/3^9100")
    assert RingContext(stream(1)).is_member(e) is False
    code, out, err = run_cli(capsys, "member", "--seed", "1", "x/3^9100")
    limit = sys.get_int_max_str_digits()
    assert (code, err) == (0, "")
    assert out == f"an element with an integer of more than {limit} decimal digits: false\n"
    code, out, err = run_cli(capsys, "member", "--seed", "1", "--json", "x/3^9100")
    assert (code, out, err) == (0, '{"element": null, "member": false}\n', "")


def test_member_gives_a_member_verdict_past_the_print_limit(capsys):
    e = parse_element("2^20000")
    assert RingContext(zero()).is_member(e) is True
    code, out, err = run_cli(capsys, "member", "2^20000")
    limit = sys.get_int_max_str_digits()
    assert (code, err) == (0, "")
    assert out == f"an element with an integer of more than {limit} decimal digits: true\n"
    code, out, err = run_cli(capsys, "member", "--json", "2^20000")
    assert (code, out, err) == (0, '{"element": null, "member": true}\n', "")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_member_past_the_print_limit_exits_0_from_the_command_line(json_flag):
    proc = _run_module("member", "--seed", "1", *json_flag, "x/3^9100")
    assert proc.returncode == 0
    assert "false" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_tau_file_integer_past_the_digit_limit_is_usage_error(capsys, tmp_path):
    path = tmp_path / "tau.json"
    path.write_text('{"kind":"constant","value":' + "9" * (sys.get_int_max_str_digits() + 1) + "}")
    code, out, err = run_cli(capsys, "member", "--tau-file", str(path), "x/2")
    assert code == 2
    assert out == ""
    assert "bad tau spec" in err


def test_norm_file_is_an_unrecognized_argument(capsys):
    with pytest.raises(SystemExit) as info:
        main(["adversary", "--tau", '{"kind":"zero"}', "1", "x", "--norm-file", "t.json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --norm-file t.json" in capsys.readouterr().err


# -- parser nesting and the JSON file readers -----------------------------------


def test_parentheses_nested_64_levels_parse(capsys):
    code, out, _ = run_cli(capsys, "member", "(" * 64 + "x/2" + ")" * 64)
    assert code == 0
    assert out == "x/2: true\n"


@pytest.mark.parametrize("depth", [65, 1000])
def test_parentheses_nested_too_deep_are_usage_errors(depth):
    proc = _run_module("member", "(" * depth + "x" + ")" * depth)
    assert proc.returncode == 2
    assert "parentheses nested more than 64 levels deep" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("signs, expected", [(5000, "x: true"), (5001, "-x: true")])
def test_long_runs_of_signs_parse(signs, expected):
    proc = _run_module("member", "--", "-" * signs + "x")
    assert proc.returncode == 0
    assert proc.stdout.strip() == expected
    assert "Traceback" not in proc.stderr


_TAU_FILE = ("member", "x/2", "--tau-file")


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (_TAU_FILE, b"[" * 100_000, "error: bad tau spec: maximum recursion depth exceeded"),
        (_TAU_FILE, b"\xff\xfe", "error: cannot read tau file: 'utf-8' codec can't decode"),
        (_TAU_FILE, b'{"kind":', "error: bad tau spec: Expecting value"),
        (_TAU_FILE, None, "error: cannot read tau file: [Errno"),
        (_TAU_FILE, b'{"kind":"constant","value":0,"value":1}', "error: bad tau spec: duplicate key 'value'"),
    ],
    ids=[
        "tau-nested-too-deep",
        "tau-not-utf-8",
        "tau-malformed",
        "tau-missing",
        "tau-duplicate-key",
    ],
)
def test_json_files_that_cannot_be_read_are_usage_errors(tmp_path, argv, content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    proc = _run_module(*argv, str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr


def test_gcd_checks_each_input_once(capsys, monkeypatch):
    checked = []
    witness = RingContext.membership_witness

    def counting(self, e):
        checked.append(e)
        return witness(self, e)

    monkeypatch.setattr(RingContext, "membership_witness", counting)
    code, out, _ = run_cli(capsys, "gcd", "--tau", ZERO_TAU, "x/2", "2")
    assert code == 0
    assert "bezout: 2 = (0)*(x/2) + (1)*(2)" in out
    assert checked == [parse_element("x/2"), parse_element("2")]
    code, _, err = run_cli(capsys, "gcd", "--tau", ONE_TAU, "2", "x/2")
    assert code == 1
    assert "x/2 is not in the ring" in err


@pytest.mark.parametrize(
    "argv",
    [("adversary", "100000", "2x^2+x+3"), ("adversary", "2500", "2x^2+x+3"), ("witness", "x", "--depth", "100000")],
)
def test_adversary_k_and_witness_depth_past_the_limit_exit_1_at_once(argv):
    start = time.perf_counter()
    proc = _run_module(*argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200
    assert "past the limit" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 5


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "x", "--pmax", "100000000000"),
        ("scan", "x", "--pmax", "10000001"),
        ("scan", "x", "--kmax", "1001"),
        ("witness", "x", "--pmax", "100000000000"),
        ("scan", "--json", "x", "--pmax", "100000000000"),
    ],
)
def test_scan_box_past_the_limit_exits_1_at_once(argv):
    start = time.perf_counter()
    proc = _run_module(*argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    if "--json" in argv:
        assert proc.stderr == ""
        assert "past the limit p <= 10000000, k <= 1000" in json.loads(proc.stdout)["error"]
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: scan box p <= ")
        assert proc.stderr.count("\n") == 1
    # the box is checked before the sieve: a scan to 10^7 alone takes seconds
    assert elapsed < 5


# -- one input phase: every argument becomes a value before any ring work -------

# (2^61 - 1)(10^18 + 9): too hard for the rho budget, so membership of x/N
# would spend seconds factoring before failing with exit 1
_UNFACTORABLE = f"x/{(2**61 - 1) * (10**18 + 9)}"


@pytest.fixture
def no_factoring(monkeypatch):
    from quasieuclid import padic

    def refuse(n):
        raise AssertionError(f"factorize({n}) ran before the usage error")

    monkeypatch.setattr(padic, "factorize", refuse)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("divmod", "--seed", "1", _UNFACTORABLE, "x+"), "error: bad polynomial 'x+'"),
        (("divmod", "--tau-file", "MISSING", _UNFACTORABLE, "1"), "error: cannot read tau file: [Errno"),
        (("normalize", "--seed", "1", _UNFACTORABLE, "1", "x+"), "error: bad polynomial 'x+'"),
        (("compare", "--seed", "1", _UNFACTORABLE, "1", "1", "x+"), "error: bad polynomial 'x+'"),
    ],
    ids=["divmod", "divmod-missing-tau-file", "normalize", "compare"],
)
def test_usage_errors_come_before_any_ring_work(capsys, tmp_path, no_factoring, argv, message):
    paths = {"MISSING": str(tmp_path / "missing.json")}
    code, out, err = run_cli(capsys, *[paths.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("member", "Y"),
        ("divmod", "Y", "x"),
        ("divmod", "x", "Y"),
        ("gcd", "Y", "x"),
        ("gcd", "x", "Y"),
        ("chain", "Y", "x"),
        ("chain", "x", "Y"),
        ("normalize", "Y", "8", "2"),
        ("normalize", "13", "Y", "2"),
        ("normalize", "13", "8", "Y"),
        ("normalize", "13", "8", "2", "Y"),
        ("compare", "Y", "8", "2"),
        ("compare", "13", "Y", "2"),
        ("compare", "13", "8", "Y"),
        ("compare", "13", "8", "2", "Y"),
        ("adversary", "1", "Y"),
        ("scan", "Y"),
        ("witness", "Y"),
    ],
    ids=lambda argv: "-".join(argv),
)
def test_bad_polynomial_in_any_position_returns_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: bad polynomial 'Y': unexpected character 'Y' at position 0\n"


@pytest.mark.parametrize(
    "tau",
    [
        '{"kind":"constant","value":0,"value":1}',
        '{"kind":"piecewise","overrides":{"2":{"kind":"zero"},"2":{"kind":"constant","value":1}},'
        '"default":{"kind":"zero"}}',
    ],
    ids=["constant", "piecewise-override"],
)
def test_tau_json_repeated_keys_are_usage_errors(capsys, tau):
    # json alone would read the repeated key's last value: constant 1, and
    # the later override
    code, out, err = run_cli(capsys, "member", "--json", "--tau", tau, "x/2")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad tau spec: duplicate key ")
