"""Host-speed probe: the time of a fixed pure-Python kernel right now.

The reference host (2 vCPU Intel Xeon, CPython 3.11) is shared.  For
seconds at a time its cores run up to twice as slow, and every layer of
the program slows with them.  Each timed step is therefore bracketed by
:func:`seconds`, and the benchmark reports step times scaled by
``REFERENCE_S / kernel time``: seconds of the reference host at full
speed.

The kernel uses no program code, so a program change moves the scaled
times fully.  It mixes the two kinds of interpreter work the program
does, integer arithmetic in a loop and small dict and list operations,
because on the reference host that mix slows by about the same factor
as the program: over three sets of ten seeds of each workload, a step's
scaled time in the slowest third of probe readings was 0.86-1.10 times
its scaled time in the fastest third (raw: 1.15-1.66 times).  A kernel of sorting
and string keys slowed more than the program and read slow stretches
10-24% low.
"""

from __future__ import annotations

import os
import statistics
import time

#: Seconds :func:`seconds` takes on the reference host (2 vCPU Intel
#: Xeon, CPython 3.11) while nothing else competes for its core.
REFERENCE_S = 0.004

class Probe:
    """Measures the kernel on ``cores`` (their mean), or on the core the
    process runs on when ``cores`` is None."""

    def __init__(self, cores: tuple | None = None):
        self.cores = cores

    def seconds(self) -> float:
        if self.cores is None:
            return _kernel()
        mask = os.sched_getaffinity(0)
        try:
            per_core = []
            for cpu in self.cores:
                os.sched_setaffinity(0, {cpu})
                per_core.append(_kernel())
        finally:
            os.sched_setaffinity(0, mask)
        return statistics.fmean(per_core)


def _kernel() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(26000):
        x = (x * 31 + i) & 0xFFFF
    table: dict = {}
    for i in range(13000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    items = list(range(6700))
    items.reverse()
    return time.perf_counter() - t0


def pinned(jobs: int) -> Probe:
    """Restrict this process (and the pool workers it will fork) to its
    first ``jobs`` cores; the probe of exactly those cores."""
    cores = tuple(sorted(os.sched_getaffinity(0)))[:jobs]
    os.sched_setaffinity(0, set(cores))
    return Probe(cores)
