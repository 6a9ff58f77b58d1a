"""Host-speed normalisation of the benchmark's timings.

On a shared host the CPU's speed moves by tens of percent over seconds
to minutes (neighbours on the same cores), far more than a 30 s run can
average out.  Every timed phase therefore interleaves short runs of a
fixed pure-Python *probe* loop -- code that is part of the benchmark,
never of the program under test -- and divides each op's latency by the
host's local *slowdown*: the median probe duration around that op over
:data:`NOMINAL_PROBE_S`.  Reported times are thus "milliseconds on the
reference host"; a change in the program moves them, a change in the
host's speed mostly does not.  The raw wall-clock values are kept in
the run record.

The probes run outside the ops' latencies: :class:`Clock` stops while
probing.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: iterations of the probe loop (about 2 ms)
PROBE_N = 30_000
#: median probe duration on the reference host (2-vCPU x86-64 VM,
#: Python 3.11); it only fixes the scale of the reported times
NOMINAL_PROBE_S = 1.9e-3
#: probes are matched to an op if they ran within this many seconds of it
WINDOW_S = 0.5


def probe() -> float:
    """Duration of one run of the fixed probe loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_N):
        total += (i * i) % 7
    return time.perf_counter() - start


def slowdown(durations: list[float]) -> float:
    """Host slowdown against the reference host, from probe durations."""
    return statistics.median(durations) / NOMINAL_PROBE_S


class Clock:
    """The timed phase's clock: ``perf_counter`` minus the time spent in
    probes, plus each probe's ``(clock stamp, duration)``."""

    def __init__(self):
        self.paused = 0.0
        self.probes: list[tuple[float, float]] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, count: int) -> None:
        started = time.perf_counter()
        stamp = started - self.paused
        for _ in range(count):
            self.probes.append((stamp, probe()))
        self.paused += time.perf_counter() - started


def op_slowdowns(spans: list[tuple[float, float]],
                 probes: list[tuple[float, float]]) -> list[float]:
    """Per op ``(start, end)`` on the clock, the slowdown from the probes
    that ran within :data:`WINDOW_S` of it (the nearest probe if none did)."""
    probes = sorted(probes)
    stamps = [stamp for stamp, _ in probes]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(stamps, start - WINDOW_S)
        hi = bisect.bisect_right(stamps, end + WINDOW_S)
        if lo == hi:
            nearest = min(range(len(stamps)),
                          key=lambda i: abs(stamps[i] - (start + end) / 2))
            lo, hi = nearest, nearest + 1
        out.append(slowdown([duration for _, duration in probes[lo:hi]]))
    return out
