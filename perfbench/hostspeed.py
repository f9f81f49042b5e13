"""Host speed: a fixed pure-Python reference workload, timed in the run.

The 2-CPU reference host is shared, and its speed drifts: a fixed
pure-Python loop, timed back to back for minutes, took between 0.7x and
2x of its median time, in spells of seconds to tens of seconds.  Every
timing of a run moves with it, so runs of the same code disagreed by
about as much as the bound a change may move them by.

So the benchmark times this reference workload between its measured
operations and divides each time by a host factor (rates it
multiplies): a median of reference times over ``REF_SECONDS``, the
reference time on the calm reference host.  A compile is divided by
the factor of the samples just before and just after it; serve-mixed's
figures, which pool the whole run, by the factor of all the run's
samples.  The metrics are then seconds at the reference host's speed.
A change to the program moves them as it moves the raw times, while the
reference, which calls nothing of the program, does not move.  The raw
figures and the factor are logged.

The host slows its two CPUs separately (the same loop timed on both at
once did not correlate), so the reference only follows work on the CPU
it runs on; every process of a run is pinned to one CPU.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

#: median time of one ``reference_work()`` on the reference host
#: (2 shared vCPUs, Python 3.11.7) when calm
REF_SECONDS = 0.040


def reference_work() -> int:
    """Interpreter-bound work in the program's style: integer arithmetic,
    a dict of tuples and lists, a sort.  Deterministic; calls nothing
    of the program."""
    rng = random.Random(7)
    keys = [rng.getrandbits(40) for _ in range(30_000)]
    table = {}
    for k in keys:
        table[k] = (k & 1023, [k >> 20])
    acc = 0
    for k in sorted(keys):
        low, high = table[k]
        acc += (low * high[0]) % 7
    for i in range(150_000):
        acc += i * i % 7
    return acc


def timed_samples(n: int) -> List[float]:
    """Seconds of ``n`` runs of ``reference_work()`` in this process."""
    # with the collector on, the reference's allocations would also time
    # a sweep of whatever the process holds at that moment
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            reference_work()
            out.append(time.perf_counter() - t0)
        return out
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference-workload samples of one process."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, n: int = 1) -> List[float]:
        """Time the reference ``n`` times; returns the new samples."""
        new = timed_samples(n)
        self.samples += new
        return new

    def factor(self) -> float:
        """Median reference time over ``REF_SECONDS``: above 1 when the
        host ran slower than the calm reference host."""
        return statistics.median(self.samples) / REF_SECONDS

    def describe(self) -> str:
        return (
            f"host factor {self.factor():.3f} "
            f"({len(self.samples)} reference samples, median "
            f"{statistics.median(self.samples) * 1e3:.1f} ms)"
        )

