"""A yardstick for how fast the host runs Python at a given moment.

On a shared host the same Python loop runs up to half again slower in
one spell than in another, for seconds at a time, and the slowdown hits
process CPU time as much as wall time.  So every timed op is bracketed by
probes of a fixed piece of reference work, and a long op is probed
every SAMPLE_S of CPU time while it runs as well.  Its time, less that of
the probes inside it, is rescaled to what it would have been at the
reference speed:

    ns_at_reference = ns * REFERENCE_NS / mean(every probe of the op)

The reference work uses ``oracle`` only, never the library, so a change
to the library cannot move the yardstick.  It is the same kind of work as
the library's: small-int polynomial arithmetic with gcds, Euclid on big
integers and trial division.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

import oracle

# One probe() between two ops on the 2-vCPU host (Python 3.11) the
# benchmark was built on, in a fast spell; the median over a 40-second
# run was 120-230 us there.  It fixes the scale of every rescaled time,
# and is a constant so that runs can be compared.
REFERENCE_NS = 150_000

SAMPLE_S = 0.05

_X = ((3, -1, 4, 1, -5), 7)
_Y = ((2, 7, -1, 8), 5)
_FA, _FB = oracle.fibonacci(160), oracle.fibonacci(159)
_N = 1_000_003 * 999_983


def reference_work() -> None:
    for _ in range(2):
        z = oracle.add(oracle.mul(_X, _Y), oracle.neg(_X))
        oracle.phi(z, _Y)
        oracle.euclid_remainders(_FA, _FB)
    d = 3
    while d < 2000 and _N % d:
        d += 2


def probe() -> int:
    """Fastest of two timed reference_work() calls, in ns: an interrupt
    that lands in one of them does not count as a slow spell."""
    best = 0
    for _ in range(2):
        t0 = perf_counter_ns()
        reference_work()
        ns = perf_counter_ns() - t0
        best = ns if not best else min(best, ns)
    return best


class Timer:
    """Times one op at a time, in ns at the reference speed.

    Probes before and after the op and, with `sample`, through SIGPROF
    every SAMPLE_S of CPU time within it; the probes' own time is taken
    out of the op's.  A traced run does not sample, so that no probe
    lands inside a traced span.
    """

    def __init__(self, sample: bool = True):
        self.probes: list[int] = []
        self.inside = 0
        self.seen: list[int] = []   # every probe so far, to report the host's speed
        self.sample = sample
        if sample:
            signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        t0 = perf_counter_ns()
        self.probes.append(probe())
        self.inside += perf_counter_ns() - t0

    def start(self) -> None:
        self.probes, self.inside = [probe()], 0
        if self.sample:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def stop(self, ns: int) -> tuple[int, float]:
        """`ns`, the wall time since start(); returns it less the probes
        inside it, and that at the reference speed."""
        if self.sample:
            signal.setitimer(signal.ITIMER_PROF, 0)
        own = ns - self.inside
        self.probes.append(probe())
        self.seen += self.probes
        return own, own * REFERENCE_NS * len(self.probes) / sum(self.probes)


def rescale(ns: float, before: int, after: int) -> float:
    """`ns` measured between probes `before` and `after`, at reference speed."""
    return ns * REFERENCE_NS * 2 / (before + after)
