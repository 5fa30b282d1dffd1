"""Host-speed calibration: timings reported at a fixed reference speed.

The benchmark runs on a few CPUs of a shared host whose speed drifts
with its other tenants' load: on a 2-CPU host the same sweep pass took
from 2.3 s to 3.5 s within three minutes, and set-up from 1.5 s to
2.8 s between runs.  No statistic taken over one run removes a drift
that lasts longer than the run.

So each run also times ``kernel``, a fixed pure-Python reference that
uses no ``repro`` code and so no change to the program can speed up or
slow down.  It is shaped like the simulator's inner loop: a heap of
events, per-node dicts, small objects and float arithmetic.  Sampled
between the requests it measures, it slows and speeds up with the
host: over 53 sweep passes on a 2-CPU host, the median per pass of a
kernel of this shape correlated 0.76 with the pass time, and dividing
the pass time by it halved the spread of the pass times.

A timing is reported at the reference speed: multiplied by
``NOMINAL_S`` over the median of the kernel timings taken around it.
``NOMINAL_S`` is a fixed scale, close to the kernel's median time on a
2-CPU host, so figures read close to that host's wall times.  Each run
prints its median factor, which turns them back into wall times.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter

#: The reference time of one ``kernel`` call.
NOMINAL_S = 0.004


class _Event:
    __slots__ = ("node", "size")

    def __init__(self, node: int, size: float) -> None:
        self.node = node
        self.size = size


def kernel() -> float:
    """A fixed event-queue workload of about ``NOMINAL_S``."""
    rng = random.Random(7)
    heap = []
    for seq in range(2000):
        heapq.heappush(
            heap, (100.0 * rng.random(), seq, _Event(seq % 37, rng.random()))
        )
    busy: dict[int, float] = {}
    total = 0.0
    while heap:
        time, _, event = heapq.heappop(heap)
        start = max(time, busy.get(event.node, 0.0))
        busy[event.node] = start + 0.5 * event.size
        total += busy[event.node]
    return total


class Calibration:
    """Kernel timings taken during one stretch of a run."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        # The kernel frees all it allocates by reference counting.  With
        # the cycle collector on, a collection it triggered would walk the
        # program's whole heap, and the program's memory would time it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                began = self.clock()
                kernel()
                self.samples.append(self.clock() - began)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Reference time over host time: multiply a timing by it."""
        return NOMINAL_S / statistics.median(self.samples)
