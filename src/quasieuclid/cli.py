"""Command-line interface.

Each subcommand's parser carries its handler, which main calls.  The parser
turns every argument into a value (a polynomial) before any ring work
starts, so a usage error costs no factoring.  Every subcommand has a
plain-text rendering and a JSON twin (--json) with the same numeric content.
Exit codes: 0 success, 1 domain error (reported as an error object in JSON
mode) or stdout closed by its reader, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import adversary as adv
from . import chains as ch
from . import classify as cl
from .padic import TauSpec, stream, tau_from_json, zero
from .poly import RingElement, _json
from .poly import format_element as _fmt
from .ring import CHAIN_STEPS_MAX, RingContext, _shown, phi
from .syntax import ParseError, _int_literal, parse_element


class UsageError(Exception):
    pass


_EPILOG = "a polynomial starting with '-' needs -- before it: quasieuclid divmod -- -x^2-1 3x+2"


# Part of the ValueError that CPython raises when an int has more decimal
# digits than sys.get_int_max_str_digits() allows.
_DIGIT_LIMIT_TEXT = "integer string conversion"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tau", help="tau spec as inline JSON")
    common.add_argument("--tau-file", help="path to a tau spec JSON file")
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--seed", type=int, help="use a seeded stream spec instead of --tau or --tau-file"
    )

    top = argparse.ArgumentParser(
        prog="quasieuclid",
        description="Exact arithmetic in subrings of Q[x] cut out by p-adic residue conditions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, help):
        p = sub.add_parser(name, parents=[common], epilog=_EPILOG, help=help)
        p.set_defaults(handler=handler)
        return p

    p = add("member", _cmd_member, "test ring membership")
    p.add_argument("element", type=_parse)

    p = add("divmod", _cmd_divmod, "division with remainder")
    p.add_argument("dividend", type=_parse)
    p.add_argument("divisor", type=_parse)

    p = add("gcd", _cmd_gcd, "gcd with Bezout coefficients")
    p.add_argument("a", type=_parse)
    p.add_argument("b", type=_parse)

    p = add("chain", _cmd_chain, "canonical division chain with norm trace")
    p.add_argument("a", type=_parse)
    p.add_argument("b", type=_parse)
    p.add_argument("--max-steps", type=int, default=CHAIN_STEPS_MAX)

    p = add("normalize", _cmd_normalize, "rewrite a chain to positive quotients")
    p.add_argument("a", type=_parse)
    p.add_argument("b", type=_parse)
    p.add_argument("quotients", nargs="+", type=_parse)

    p = add("compare", _cmd_compare, "compare a chain against the canonical one")
    p.add_argument("a", type=_parse)
    p.add_argument("b", type=_parse)
    p.add_argument("quotients", nargs="+", type=_parse)

    p = add("adversary", _cmd_adversary, "degree-retaining pair and its report")
    p.add_argument("k", type=int)
    p.add_argument("b", type=_parse)

    p = add("scan", _cmd_scan, "residue-zero scan over a prime box")
    p.add_argument("h", type=_parse)
    p.add_argument("--pmax", type=int, default=50)
    p.add_argument("--kmax", type=int, default=8)

    p = add("witness", _cmd_witness, "descending divisibility chain below h")
    p.add_argument("h", type=_parse)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--pmax", type=int, default=50)
    p.add_argument("--kmax", type=int, default=8)

    p = add("tau", _cmd_tau, "inspect tau_p at one prime and precision")
    p.add_argument("p", type=int)
    p.add_argument("k", type=int)

    return top


def _load_tau(args) -> TauSpec:
    flags = {"--tau": args.tau, "--tau-file": args.tau_file, "--seed": args.seed}
    given = [flag for flag, value in flags.items() if value is not None]
    if len(given) > 1:
        raise UsageError(f"{' and '.join(given)} are mutually exclusive")
    if args.tau_file is not None:
        try:
            with open(args.tau_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read tau file: {exc}")
    elif args.tau is not None:
        text = args.tau
    else:
        return zero() if args.seed is None else stream(args.seed)
    try:
        return tau_from_json(json.loads(text, parse_int=_json_int, object_pairs_hook=_unique_keys))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # RecursionError: JSON nested too deep for the decoder itself
        raise UsageError(f"bad tau spec: {exc}")


def _json_int(digits: str) -> int:
    # json would convert with int() and raise the interpreter's own message
    # past its digit limit
    return _int_literal(digits, "in the JSON")


def _unique_keys(pairs: list) -> dict:
    # json would keep a repeated key's last value without a word
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


# -- argument types: each raises UsageError, which argparse passes through
# unchanged, so the message carries no "argument X:" prefix


def _parse(text: str) -> RingElement:
    try:
        return parse_element(text)
    except ParseError as exc:
        raise UsageError(f"bad polynomial {text!r}: {exc}")


# -- subcommand handlers: each returns (json_payload, text_lines) ------------
# A payload holds library values as they are; main encodes it with poly._json.


def _cmd_member(ctx, args):
    e = args.element
    verdict = ctx.is_member(e)
    try:
        text = _fmt(e)
    except ValueError:
        # named as NotMemberError names a non-member, whatever the verdict;
        # no JSON can carry it
        text, e = _shown(e, "an element with an integer"), None
    return {"element": e, "member": verdict}, [f"{text}: {'true' if verdict else 'false'}"]


def _cmd_divmod(ctx, args):
    p, s = ctx.divmod(ctx.make_element(args.dividend), ctx.make_element(args.divisor))
    return {"quotient": p, "remainder": s}, [f"quotient:  {_fmt(p)}", f"remainder: {_fmt(s)}"]


def _cmd_gcd(ctx, args):
    a, b = args.a, args.b
    g, u, v = ctx.gcd_bezout(a, b)
    lines = [
        f"gcd: {_fmt(g)}",
        f"bezout: {_fmt(g)} = ({_fmt(u)})*({_fmt(a)}) + ({_fmt(v)})*({_fmt(b)})",
    ]
    return {"a": a, "b": b, "gcd": g, "u": u, "v": v}, lines


def _phi_list(chain: ch.DivisionChain) -> list:
    seq = (chain.a, chain.b) + chain.remainders
    return [list(phi(x, y)) for x, y in zip(seq, seq[1:])]


def _cmd_chain(ctx, args):
    chain = ctx.qe_chain(args.a, args.b, max_steps=args.max_steps)
    norms = _phi_list(chain)
    payload = {**chain.to_json(), "phi": norms}
    lines = [f"a = {_fmt(chain.a)}", f"b = {_fmt(chain.b)}", f"phi(a, b) = {tuple(norms[0])}"]
    for i, (q, r) in enumerate(zip(chain.quotients, chain.remainders), start=1):
        lines.append(
            f"step {i}: quotient {_fmt(q)}, remainder {_fmt(r)}, phi -> {tuple(norms[i])}"
        )
    return payload, lines


def _cmd_normalize(ctx, args):
    chain = ch.build_chain(args.a, args.b, args.quotients, ctx=ctx)
    steps = list(ch.normalize_steps(chain))
    final = steps[-1][1] if steps else chain
    lines = [f"start: {chain}"]
    lines += [f"{op} -> {c}" for op, c in steps]
    lines.append(f"result: {final}")
    steps_json = [{"op": op, "chain": c} for op, c in steps]
    return {"start": chain, "steps": steps_json, "result": final}, lines


def _cmd_compare(ctx, args):
    chain = ch.build_chain(args.a, args.b, args.quotients, ctx=ctx)
    report = ch.compare_to_qe(ctx, chain)
    lines = [f"chain: {chain}", f"canonical length: {report.canonical.length}"]
    for row in report.rows:
        lines.append(
            f"l={row.index}: |r_l| = {_fmt(row.remainder_abs)} >= {_fmt(row.bound)}"
            f" : {'ok' if row.ok else 'VIOLATED'}"
        )
    if report.final is not None:
        row = report.final
        lines.append(
            f"final (positive tail): |r_k| = {_fmt(row.remainder_abs)} >= {_fmt(row.bound)}"
            f" : {'ok' if row.ok else 'VIOLATED'}"
        )
    lines.append(f"verdict: {'ok' if report.ok else 'VIOLATED'}")
    return report, lines


def _cmd_adversary(ctx, args):
    a = adv.adversarial_pair(ctx, args.k, args.b)
    report = adv.degree_retention_check(ctx, args.k, a, args.b)
    lines = [
        f"k = {report.k}, b = {_fmt(report.b)}",
        f"(c, d) = ({report.c}, {report.d}), beta = {report.beta}",
        f"a = {_fmt(report.a)}",
        f"degrees of first {2 * report.k} remainders: {list(report.degrees)}",
        f"verdict: {'true' if report.verdict else 'false'}",
    ]
    return report, lines


def _cmd_scan(ctx, args):
    scan = cl.scan_sh(ctx, args.h, args.pmax, args.kmax)
    lines = [f"h = {_fmt(args.h)}, box: p <= {args.pmax}, k <= {args.kmax}"]
    if not scan.hits:
        lines.append("no residue zeros in the box")
    for hit in scan.hits:
        flags = []
        if hit.saturated:
            flags.append("saturated")
        if hit.exact:
            flags.append("exact")
        suffix = f" ({', '.join(flags)})" if flags else ""
        lines.append(f"p = {hit.prime}: depth {hit.depth}{suffix}")
    return scan, lines


def _cmd_witness(ctx, args):
    witness = cl.non_ufd_witness(ctx, args.h, args.depth, p_max=args.pmax, k_max=args.kmax)
    if witness is None:
        lines = ["no witness within bounds (inconclusive)"]
    else:
        lines = [f"kind: {witness.kind}", f"primes: {list(witness.primes)}"]
        lines += [f"  {_fmt(e)}" for e in witness.chain]
    return {"h": args.h, "witness": witness}, lines


def _cmd_tau(ctx, args):
    r = ctx.tau.query(args.p, args.k)
    value = str(r.value)  # past the print limit this raises before digits() does its work
    digits = list(r.digits())
    payload = {"p": r.prime, "k": r.precision, "value": r.value, "digits": digits}
    return payload, [f"tau_{args.p} mod {args.p}^{args.k} = {value} (digits {digits})"]


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); point it at os.devnull
        # so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(argv: list[str] | None) -> int:
    try:
        # parse_args raises SystemExit or UsageError, so args is bound below
        args = _build_parser().parse_args(argv)
        ctx = RingContext(_load_tau(args))
        payload, lines = args.handler(ctx, args)
        text = json.dumps(payload, sort_keys=True, default=_json) if args.json else None
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZeroDivisionError, ValueError) as exc:
        if _DIGIT_LIMIT_TEXT in str(exc):
            # the input was checked against the limit, so an output int is
            # too long to print; no JSON can carry it either
            print(
                f"error: the result holds an integer of more than {sys.get_int_max_str_digits()}"
                " decimal digits, the interpreter's limit for printing one",
                file=sys.stderr,
            )
        elif args.json:
            print(json.dumps({"error": str(exc)}, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(text)
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
