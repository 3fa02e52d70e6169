"""Seeded benchmark for quasieuclid: end-to-end metrics, or a traced run.

    python3 perfbench/run.py --workload qe_corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40

One process, one caller, no threads: each op starts only after the
previous one returns (a closed loop with one client).  A workload's round
of ops (see workloads.py) is repeated until --seconds have passed and the
first round is complete.  Each op's time is rescaled to a reference
speed of the host (speed.py), and each op slot reports the median of its
runs.  Every output is checked outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the round
untraced and traced by turns, each time from a cold start, until the
untraced rounds add up to TRACE_MIN_S of op time.  It prints the
per-layer metrics of the first traced round and the tracing overhead (op
time of the traced rounds over that of the untraced ones, both at the
reference speed).
Both print a digest of the first round's outputs, so two runs with the
same seed can be compared byte for byte.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
DESIGN.md for the reasoning.

Details of each run (per-kind latencies, failures, the tail percentile
used) go to perfbench/out/, and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 21
# A run stops mid-round once this much past --seconds, so a slow build of
# the library still ends well inside the 180 s a run may take.
GRACE_S = 60.0
PROBE_LIMIT_S = 120
# A single round of residue_scan takes under a second, too short for a
# steady overhead ratio.
TRACE_MIN_S = 5.0


class OpBudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise OpBudgetExceeded()


def load_library():
    """Import quasieuclid from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quasieuclid" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {src}/quasieuclid")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import quasieuclid
    import quasieuclid.cli  # noqa: F401  (the package does not import it)

    if Path(quasieuclid.__file__).resolve().parent != (src / "quasieuclid").resolve():
        sys.exit(f"error: imported quasieuclid from {quasieuclid.__file__}")
    return quasieuclid


class Caches:
    """Clears the library's module-level caches, keeping their hit counts."""

    def __init__(self, Q):
        # captured before any tracing wrapper replaces the module globals
        self.fns = {"factorize": Q.padic.factorize, "is_prime": Q.padic.is_prime}
        self.reset_counts()

    def reset_counts(self):
        self.counts = {name: [0, 0] for name in self.fns}

    def clear(self):
        for name, fn in self.fns.items():
            info = fn.cache_info()
            self.counts[name][0] += info.hits
            self.counts[name][1] += info.misses
            fn.cache_clear()

    def hit_ratio(self, name):
        info = self.fns[name].cache_info()
        hits = self.counts[name][0] + info.hits
        total = hits + self.counts[name][1] + info.misses
        return hits / total if total else 0.0


class Runner:
    """Runs a workload's ops one at a time and keeps each slot's times.

    A slot is an op's position in the round.  The round is repeated, so a
    slot is timed several times and its latency is the median of its
    successful runs, each taken at the reference speed of speed.py: on a
    shared host, speed drifts by half over tens of seconds.
    """

    def __init__(self, Q, wl, tracer=None):
        self.wl, self.tracer = wl, tracer
        self.timer = speed.Timer(sample=tracer is None)
        self.caches = Caches(Q)
        self.attempted = 0
        self.op_ns = 0                    # summed wall time of every run of every op
        self.ref_ns = 0.0                 # the same at the reference speed
        self.runs: dict[int, list[float]] = {}  # slot -> successful runs, ns
        self.tried: set[int] = set()
        self.failures: list[dict] = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def cold_start(self):
        self.caches.clear()
        self.wl.fresh()

    def op(self, slot: int, digest: bool) -> None:
        wl, tracer, timer = self.wl, self.tracer, self.timer
        op = wl.ops[slot]
        if wl.cold_ops:
            self.cold_start()
        out, error = None, None
        signal.setitimer(signal.ITIMER_REAL, wl.budget_s)
        try:
            if tracer is not None:
                tracer.op, tracer.on = slot, True
            timer.start()
            t0 = perf_counter_ns()
            try:
                out = wl.run(op)
            except OpBudgetExceeded:
                error = f"exceeded the {wl.budget_s} s budget"
            except Exception as exc:  # an op's failure is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter_ns()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.on = False
                tracer.abandon_open_spans()
        ns, at_reference = timer.stop(t1 - t0)
        if error is None and ns > wl.budget_s * 1e9:
            error = f"exceeded the {wl.budget_s} s budget"
        if error is None:
            try:
                error = wl.check(op, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        self.op_ns += ns
        self.ref_ns += at_reference
        self.tried.add(slot)
        if error is None:
            self.runs.setdefault(slot, []).append(at_reference)
        else:
            self.failures.append({"slot": slot, "kind": wl.kind(op), "error": error})
        if digest:
            text = "FAILED" if error is not None else wl.record(op, out)
            self.digest.update(text.encode() + b"\n")
            self.digest_ops += 1

    def timed(self, seconds: float, between=None) -> float:
        """Repeat the round, each time from a cold start, until `seconds`
        have passed and the first round is complete; returns rounds run.
        `between(elapsed)`, if given, is called after every op."""
        start, n = perf_counter(), len(self.wl.ops)
        for r in itertools.count():
            self.cold_start()
            for slot in range(n):
                self.op(slot, digest=r == 0)
                elapsed = perf_counter() - start
                if between is not None:
                    between(elapsed)
                if elapsed >= seconds + GRACE_S or (r and elapsed >= seconds):
                    return r + (slot + 1) / n
            if perf_counter() - start >= seconds:
                return r + 1.0

    def one_round(self, digest: bool) -> float:
        """Run the round once from a cold start; returns its op time in s."""
        self.cold_start()
        self.caches.reset_counts()
        before = self.ref_ns
        for slot in range(len(self.wl.ops)):
            self.op(slot, digest)
        return (self.ref_ns - before) / 1e9

    def slot_latencies(self) -> dict[int, float]:
        """Median time of every slot run; one that never succeeded counts its budget."""
        budget = self.wl.budget_s * 1e9
        return {slot: statistics.median(self.runs[slot]) if slot in self.runs else budget
                for slot in sorted(self.tried)}


def tail(latencies):
    """Latency at the highest of p90, p99, p99.9 with >= 10 samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    choice = None
    for q in (90.0, 99.0, 99.9):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            choice = (q, rank)
    if choice is None:  # too few samples for any: report p90 and say so
        choice = (90.0, max(1, math.ceil(0.9 * n)))
    q, rank = choice
    return ordered[rank - 1], q, n - rank


class SetupProbes:
    """Time of fresh processes that import, generate and build state.

    The probes are spread evenly over the timed run, one between two ops,
    and each is rescaled to the reference speed like an op (speed.py).
    `setup_s` is their median.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.every = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.wall: list[float] = []

    def __call__(self, elapsed: float) -> None:
        if len(self.times) < SETUP_PROBES and elapsed >= len(self.times) * self.every:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times

    def probe(self) -> None:
        before = speed.probe()
        t0 = perf_counter()
        # no timeout here: with one, Popen.wait polls in steps of up to
        # 50 ms, which would quantize the reading; the probe bounds itself
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        s = perf_counter() - t0
        self.wall.append(s)
        self.times.append(speed.rescale(s, before, speed.probe()))


def emit(result: dict, details: dict, name: str) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


def kind_table(runner) -> dict:
    """Slot latencies grouped by op kind, in round order."""
    groups: dict[str, list[int]] = {}
    for slot, ns in runner.slot_latencies().items():
        groups.setdefault(runner.wl.kind(runner.wl.ops[slot]), []).append(ns)
    return {
        kind: {"ops": len(ns), "p50_ms": statistics.median(ns) / 1e6, "max_ms": max(ns) / 1e6}
        for kind, ns in groups.items()
    }


def print_kinds(table: dict) -> None:
    for kind, row in table.items():
        print(f"  {kind:<40} slots {row['ops']:>4}  p50 {row['p50_ms']:10.3f} ms  max {row['max_ms']:10.3f} ms")


def run_untraced(Q, wl, args) -> int:
    runner = Runner(Q, wl)
    setup = SetupProbes(wl.name, args.seed, args.seconds)
    rounds = runner.timed(args.seconds, between=setup)
    probes = setup.finish()
    slots = runner.slot_latencies()
    lat = list(slots.values())
    ok = len(runner.runs)
    attempted, failed = runner.attempted, len(runner.failures)
    tail_ns, tail_q, beyond = tail(lat)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": (ok / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    failed_ratio = failed / attempted
    seen = runner.timer.seen
    probe_us = statistics.median(seen) / 1e3
    digest = runner.digest.hexdigest()
    table = kind_table(runner)
    print(f"workload {wl.name} seed {args.seed}: {rounds:.2f} rounds of {len(wl.ops)} ops, "
          f"{attempted} runs in {runner.op_ns / 1e9:.3f} s of op time")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<12} {value:14.4f} {unit}")
    print(f"  {'failed_ratio':<12} {failed_ratio:14.4f} ({failed} of {attempted})")
    print(f"  op_tail_ms is p{tail_q:g} over {len(lat)} slots, {beyond} beyond it")
    print(f"  times are at the reference speed: the probe took {speed.REFERENCE_NS / 1e3:.0f} us there "
          f"and a median {probe_us:.0f} us in this run (range {min(seen) / 1e3:.0f}-{max(seen) / 1e3:.0f})")
    print(f"digest {wl.name} seed={args.seed} ops={runner.digest_ops} sha256={digest}")
    print_kinds(table)
    for f in runner.failures[:10]:
        print(f"  FAILED slot {f['slot']} ({f['kind']}): {f['error']}")
    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "rounds": rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_ratio": failed_ratio, "attempted": attempted, "failed": failed,
        "tail": {"percentile": tail_q, "samples": len(lat), "beyond": beyond},
        "setup_probes_s": probes, "setup_probes_wall_s": setup.wall,
        "speed_probe_us": {"reference": speed.REFERENCE_NS / 1e3, "median": probe_us,
                           "min": min(seen) / 1e3, "max": max(seen) / 1e3},
        "digest": {"ops": runner.digest_ops, "sha256": digest},
        "kinds": table, "failures": runner.failures, "slot_ns": lat,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    emit(result, details, f"{wl.name}-seed{args.seed}-trace0")
    return 0


def run_traced(Q, wl, args) -> int:
    from tracer import Tracer, metric_names

    plain = Runner(Q, wl)
    tracer = Tracer(Q)
    runner = Runner(Q, wl, tracer)
    tag = f"{wl.name}-seed{args.seed}-trace1"
    untraced, traced = [], []
    while sum(untraced) < TRACE_MIN_S:
        first = not untraced
        untraced.append(plain.one_round(digest=first))
        tracer.install()
        try:
            traced.append(runner.one_round(digest=first))
        finally:
            tracer.uninstall()
        if first:
            values = tracer.summary()
            values["padic.factorize.hit_ratio"] = runner.caches.hit_ratio("factorize")
            values["padic.is_prime.hit_ratio"] = runner.caches.hit_ratio("is_prime")
            spans = len(tracer.names)
            tracer.write(str(OUT / f"{tag}.spans"))
        tracer.clear()
    untraced_s, traced_s = sum(untraced), sum(traced)
    is_member = values["ring.RingContext.is_member.calls"]
    witness = values["ring.RingContext.membership_witness.calls"]
    values["ring.membership.hit_ratio"] = 1 - witness / is_member if is_member else 0.0
    values["trace.overhead_ratio"] = traced_s / untraced_s
    names = metric_names()
    if set(values) != set(names):
        raise RuntimeError(f"per-layer metrics differ from metric_names(): {set(values) ^ set(names)}")
    failures = plain.failures + runner.failures
    attempted = plain.attempted + runner.attempted
    digest = runner.digest.hexdigest()
    if digest != plain.digest.hexdigest():
        failures.append({"slot": -1, "kind": "digest", "error": "traced outputs differ from untraced"})
    print(f"workload {wl.name} seed {args.seed}: {len(traced)} rounds of {len(wl.ops)} ops each way, "
          f"{spans} spans in the first traced round; op time {untraced_s:.3f} s untraced, "
          f"{traced_s:.3f} s traced (overhead x{traced_s / untraced_s:.3f})")
    print(f"digest {wl.name} seed={args.seed} ops={runner.digest_ops} sha256={digest}")
    for name in names:
        if not name.endswith(".calls") or values[name]:
            print(f"  {name:<48} {values[name]:.6g}")
    for f in failures[:10]:
        print(f"  FAILED slot {f['slot']} ({f['kind']}): {f['error']}")
    units = {"calls": "count", "self_s": "s", "errors": "count", "hit_ratio": "ratio",
             "max_bits": "bits", "overhead_ratio": "ratio"}
    metrics = {n: {"value": values[n], "unit": units[n.rsplit(".", 1)[1]]} for n in names}
    details = {
        "workload": wl.name, "seed": args.seed, "metrics": metrics,
        "untraced_s": untraced, "traced_s": traced, "spans": spans,
        "digest": {"ops": runner.digest_ops, "sha256": digest},
        "kinds": kind_table(runner), "failures": failures,
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    emit(result, details, tag)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        outs = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            digest = next(l for l in lines if l.startswith("digest "))
            outs.append((json.loads(lines[-1]), digest))
        (plain, d0), (traced, d1) = outs
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        m["failed_ratio"] = plain["failed"] / plain["attempted"]
        m["trace_overhead"] = traced["metrics"]["trace.overhead_ratio"]["value"]
        m["same_digest"] = d0.split()[-1] == d1.split()[-1]
        rows.append((name, m))
    cols = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("setup_s", "s"),
            ("peak_rss_mb", "MB"), ("failed_ratio", ""), ("trace_overhead", "x"), ("same_digest", "")]
    print()
    print(f"{'workload':<18}" + "".join(f"{c + (' ' + u if u else ''):>18}" for c, u in cols))
    for name, m in rows:
        print(f"{name:<18}" + "".join(f"{m[c]!s:>18}" if isinstance(m[c], bool)
                                      else f"{m[c]:>18.4f}" for c, _ in cols))
    return 0 if all(m["same_digest"] and m["failed_ratio"] == 0 for _, m in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    Q = load_library()
    from workloads import WORKLOADS

    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        signal.alarm(PROBE_LIMIT_S)  # default action: end the process
    wl = WORKLOADS[args.workload](Q, args.seed)
    if args.setup_probe:
        Caches(Q).clear()
        wl.fresh()
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    return run_traced(Q, wl, args) if args.trace else run_untraced(Q, wl, args)


if __name__ == "__main__":
    sys.exit(main())
