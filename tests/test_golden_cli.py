"""Byte-for-byte replay of the recorded CLI invocations in golden_cli.json.

Each entry holds the argv passed to quasieuclid.cli.main with the exit
code, stdout and stderr it produced.  The set covers every subcommand, in
text and --json mode, under seven tau specs, and includes domain errors
(exit 1).  A change meant to keep behaviour keeps every entry identical;
record_golden_cli.py rewrites the file for one that is not.
"""

import json

import pytest
from record_golden_cli import GOLDEN, invocations

from quasieuclid.cli import main


ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_set_matches_argv_list():
    assert [e["argv"] for e in ENTRIES] == list(invocations())


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{i:03d}-{e['argv'][0]}" for i, e in enumerate(ENTRIES)]
)
def test_golden_cli_replay(entry, capsys):
    code = main(list(entry["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        entry["code"],
        entry["stdout"],
        entry["stderr"],
    )
