"""Every memo in the library, found by reading its source."""

import ast
from pathlib import Path

import quasieuclid

MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}

# Each memoizing decorator's function, by qualified name, and each name a
# global statement rebinds.  RingContext._last, the last pair a context
# chained, is an instance memo that this scan does not see.
MEMOS = {
    "is_prime",
    "factorize",
    "TauSpec._tau",
    "_EXP_CEIL",
    "_field_names",
    "_build_parser",
    "DivisionChain.remainders",
}


def _memos(node, prefix=""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Global):
            yield from child.names
        scope = prefix
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{prefix}{child.name}."
            for dec in child.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "attr", getattr(dec, "id", None)) in MEMO_DECORATORS:
                    yield prefix + child.name
        yield from _memos(child, scope)


def test_every_memo_is_in_the_inventory():
    found = set()
    for path in sorted(Path(quasieuclid.__file__).parent.glob("*.py")):
        found.update(_memos(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == MEMOS
