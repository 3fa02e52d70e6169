"""Record the golden CLI set replayed by test_golden_cli.py.

Run from the repository root as

    PYTHONPATH=src python tests/record_golden_cli.py

to rewrite golden_cli.json from the argv list below, using the library on
the import path.  Do that only for a change that is meant to alter CLI
output, and review the diff of golden_cli.json.
"""

import contextlib
import io
import json
from pathlib import Path

from quasieuclid.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

TAUS = [
    None,
    '{"kind":"constant","value":1}',
    '{"kind":"constant","value":5}',
    '{"kind":"stream","seed":42}',
    '{"kind":"log_generic","seed":7}',
    '{"kind":"hensel","poly":[-2,0,1],"fallback":{"kind":"stream","seed":3}}',
    '{"kind":"piecewise","overrides":{"2":{"kind":"zero"},"3":{"kind":"constant","value":1}},'
    '"default":{"kind":"stream","seed":5}}',
]

COMMANDS = [
    ["member", "x/2"],
    ["member", "(x^2+x)/6"],
    ["divmod", "x^2+3x+1", "2x+3"],
    ["divmod", "5x^3-7", "6x^2+1"],
    ["divmod", "1-x^2", "3x+2"],
    ["divmod", "7", "-3"],
    ["divmod", "x/2", "2"],
    ["divmod", "x", "0"],
    ["gcd", "x^2+3x+2", "2x+6"],
    ["gcd", "6x^3+1", "4x^2+x"],
    ["chain", "x^3+2x+5", "3x^2+1"],
    ["chain", "(x^2+x)/2", "x"],
    ["normalize", "13", "8", "2", "-2", "-2"],
    ["normalize", "3x^2+2", "2x+1", "x", "-1", "0", "2"],
    ["compare", "13", "8", "2"],
    ["compare", "5x^2+3", "2x+1", "2x", "-1", "3"],
    ["adversary", "2", "x"],
    ["adversary", "3", "2x^2+x+3"],
    ["adversary", "2", "(x^2+x)/2"],
    ["adversary", "3", "(x^3-x)/6"],
    ["scan", "x^2-2", "--pmax", "30", "--kmax", "4"],
    ["witness", "x", "--depth", "3", "--pmax", "30", "--kmax", "4"],
    ["tau", "7", "5"],
]


def invocations():
    for tau in TAUS:
        for cmd in COMMANDS:
            for json_mode in (False, True):
                argv = [cmd[0]]
                if tau is not None:
                    argv += ["--tau", tau]
                if json_mode:
                    argv.append("--json")
                yield argv + cmd[1:]


def record() -> list[dict]:
    """Run every invocation through cli.main, capturing code and output."""
    entries = []
    for argv in invocations():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        entries.append(
            {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
    return entries


if __name__ == "__main__":
    entries = record()
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} invocations to {GOLDEN}")
