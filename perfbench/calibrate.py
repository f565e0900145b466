"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of the same Python code drifts by tens of
percent over minutes: on the 2-core host this benchmark was written on, one
pass over the Table 1 grid took 2.6 s to 5.1 s within seven minutes.  So a
run times two fixed kernels every :data:`TICK_S` seconds between its
measured calls and reports its times scaled to a host on which the
geometric mean of the kernels' median times is :data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / sqrt(median(small) * median(large))

Over that seven-minute recording, the scaling cut the spread (IQR over
median) of 4-pass runs from 13% to 5% for throughput and from 12% to 6%
for the 90th percentile.  One kernel imitates the interpreter-bound hot
paths (generators, small objects, a heap); the other allocates, hashes
and sorts 12,000 records.  Neither uses the program, so a change to the
program cannot change them.  Raw, unscaled times appear in the report.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

#: geometric mean of the two kernels' median times on the reference host
REFERENCE_S = 0.01
#: least time between two calibration ticks
TICK_S = 0.25


class _Event:
    __slots__ = ("t", "rank", "k")

    def __init__(self, t: float, rank: int, k: int) -> None:
        self.t = t
        self.rank = rank
        self.k = k


def _events(n: int, rank: int):
    for i in range(n):
        yield _Event(i * 0.5 + rank, rank, i)


def small_kernel() -> int:
    heap: list = []
    seen: dict = {}
    for rank in range(40):
        for event in _events(60, rank):
            heapq.heappush(heap, (event.t, event.rank, event.k, event))
    out = []
    while heap:
        t, rank, k, event = heapq.heappop(heap)
        seen[(rank, k)] = t
        out.append(event)
    out.sort(key=lambda e: (e.k, e.rank))
    return len(seen)


def large_kernel() -> int:
    records = [(i, str(i), [i]) for i in range(12000)]
    table = {record[1]: record for record in records}
    total = 0
    for key in sorted(table, key=lambda k: table[k][0] % 1000):
        total += table[key][2][0]
    return total


def _timed(kernel) -> float:
    began = time.perf_counter()
    kernel()
    return time.perf_counter() - began


class Calibration:
    """Kernel times taken during one run."""

    def __init__(self) -> None:
        self.small: list[float] = []
        self.large: list[float] = []
        self._last = 0.0

    def tick(self, force: bool = False) -> None:
        """Time both kernels, at most once every TICK_S unless forced."""
        now = time.perf_counter()
        if force or now - self._last >= TICK_S:
            self.small.append(_timed(small_kernel))
            self.large.append(_timed(large_kernel))
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor taking this run's times to the reference host."""
        host = math.sqrt(statistics.median(self.small)
                         * statistics.median(self.large))
        return REFERENCE_S / host
