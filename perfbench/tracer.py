"""Span tracer that wraps the library's public functions from outside.

Every wrapped call records one span: a name id, start and end in
nanoseconds, the index of the enclosing span (-1 at the top of an op) and
the op id.  Spans live in flat ``array`` columns so a pass of a few million
calls stays small, and self time is computed from them after the pass.

Functions imported by name are patched at every import site: each module
of the package (the package ``__init__`` included) is searched for globals
that are the original object.  Methods are patched on their class, which
also catches aliases such as ``__radd__ = __add__``.  ``total_ordering``
derives ``<=``, ``>`` and ``>=`` by looking ``__lt__`` up on the type at
call time, so those comparisons are counted as ``RingElement.__lt__``.
``RingElement.__neg__`` builds its result through ``__new__`` and skips
``__init__``, so it is wrapped too and counted as construction.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter_ns

# (module, qualified name) of every wrapped callable.  A qualified name
# "Class" alone wraps construction (``Class.__init__``).
TARGETS: tuple[tuple[str, str], ...] = (
    ("padic", "factorize"),
    ("padic", "is_prime"),
    ("padic", "crt_combine"),
    ("padic", "poly_eval_mod"),
    ("padic", "TauSpec.query"),
    ("padic", "hensel_lift"),
    ("padic", "primes_upto"),
    ("padic", "tau_from_json"),
    ("poly", "RingElement"),
    ("poly", "RingElement.__mul__"),
    ("poly", "RingElement.__add__"),
    ("poly", "RingElement.__lt__"),
    ("poly", "qdiv"),
    ("ring", "RingContext.is_member"),
    ("ring", "RingContext.membership_witness"),
    ("ring", "RingContext.make_element"),
    ("ring", "RingContext.divmod"),
    ("ring", "RingContext.qe_chain"),
    ("ring", "RingContext.gcd_bezout"),
    ("ring", "phi"),
    ("chains", "DivisionChain"),
    ("chains", "build_chain"),
    ("chains", "t1"),
    ("chains", "t2"),
    ("chains", "normalize_positive"),
    ("chains", "compare_to_qe"),
    ("chains", "fibonacci_witness"),
    ("adversary", "fib_pair_for"),
    ("adversary", "integer_mod"),
    ("adversary", "adversarial_pair"),
    ("adversary", "degree_retention_check"),
    ("adversary", "hat"),
    ("classify", "scan_sh"),
    ("classify", "non_ufd_witness"),
    ("syntax", "parse_element"),
    ("cli", "main"),
)

MODULES = tuple(dict.fromkeys(mod for mod, _ in TARGETS))

# Further methods of a target's owner counted under that target: paths
# that build an instance without calling ``__init__``.
ALSO = {("poly", "RingElement"): ("__neg__",)}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for mod, qual in TARGETS:
        names += [f"{mod}.{qual}.calls", f"{mod}.{qual}.self_s"]
    names += [f"{mod}.errors" for mod in MODULES]
    names += [
        "padic.factorize.hit_ratio",
        "padic.is_prime.hit_ratio",
        "ring.membership.hit_ratio",
        "padic.factorize.max_bits",
        "trace.overhead_ratio",
    ]
    return names


class Tracer:
    """Installs wrappers on the package and records spans while ``on``."""

    def __init__(self, package):
        self.package = package
        self.mods = {m: getattr(package, m) for m in MODULES}
        self.on = False
        self.op = -1
        self.names = array("H")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.errors = dict.fromkeys(MODULES, 0)
        self.factorize_max_bits = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for sid, (mod, qual) in enumerate(TARGETS):
            owner, attr = self._locate(mod, qual)
            for name in (attr, *ALSO.get((mod, qual), ())):
                original = owner.__dict__[name]
                self._patch(owner, original, self._wrap(original, sid, mod, qual == "factorize"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _locate(self, mod: str, qual: str):
        module = self.mods[mod]
        parts = qual.split(".")
        if len(parts) == 1 and isinstance(getattr(module, qual), type):
            return getattr(module, qual), "__init__"
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def _patch(self, owner, original, wrapper) -> None:
        """Replace `original` wherever it is bound: on its class, or in
        every module of the package that holds it."""
        if isinstance(owner, type):
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, name, wrapper)
        else:
            for module in (self.package, *self.mods.values()):
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, fn, sid: int, mod: str, track_bits: bool):
        tracer = self
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self.stack

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if track_bits and args[0].bit_length() > tracer.factorize_max_bits:
                tracer.factorize_max_bits = args[0].bit_length()
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[mod] += 1
                raise
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def abandon_open_spans(self) -> None:
        """Close spans left open by an op aborted mid-call (budget alarm)."""
        now = perf_counter_ns()
        for i in self.stack[1:]:
            self.ends[i] = now
        del self.stack[1:]

    def clear(self) -> None:
        """Drop the recorded spans, errors and sizes before another pass."""
        for col in (self.names, self.parents, self.ops, self.starts, self.ends):
            del col[:]
        self.errors = dict.fromkeys(MODULES, 0)
        self.factorize_max_bits = 0

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per wrapped function, plus error counts.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is single-threaded.
        """
        n = len(self.names)
        child = [0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(TARGETS)
        self_ns = [0] * len(TARGETS)
        names = self.names
        for i in range(n):
            sid = names[i]
            calls[sid] += 1
            self_ns[sid] += ends[i] - starts[i] - child[i]
        out: dict[str, float] = {}
        for sid, (mod, qual) in enumerate(TARGETS):
            out[f"{mod}.{qual}.calls"] = calls[sid]
            out[f"{mod}.{qual}.self_s"] = self_ns[sid] / 1e9
        for mod in MODULES:
            out[f"{mod}.errors"] = self.errors[mod]
        out["padic.factorize.max_bits"] = self.factorize_max_bits
        return out

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw columns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "names": [f"{m}.{q}" for m, q in TARGETS],
            "count": len(self.names),
            "columns": [
                ["name", self.names.typecode, self.names.itemsize],
                ["parent", self.parents.typecode, self.parents.itemsize],
                ["op", self.ops.typecode, self.ops.itemsize],
                ["start_ns", self.starts.typecode, self.starts.itemsize],
                ["end_ns", self.ends.typecode, self.ends.itemsize],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.names, self.parents, self.ops, self.starts, self.ends):
                col.tofile(fh)
