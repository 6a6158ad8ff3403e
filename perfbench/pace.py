"""Paced time: wall time corrected for the speed of the machine at the moment.

The machines this benchmark runs on are shared, and their speed drifts:
on the 2-core baseline machine, by up to 1.7x, in phases of a few seconds,
with no steal time reported and CPU time drifting as much as wall time.
A run that happens to fall in a slow phase reads slow on every metric.

So while a run measures, it also times a fixed reference kernel at op
boundaries, every `INTERVAL_S` or so. The kernel is the benchmark's own
code and never changes with the program: a pure-Python dict loop, small
numpy random draws and an exact cosine scan over 600 records of 256-d
vectors, the kinds of work zerebro's hot paths mix. The scan matters: when
the other core is busy, work whose data misses the core's caches slows
1.4-1.9x while small cache-resident loops barely slow, and the scan slows
with the former. Before each timed run, a sweep over a 16 MB array pushes
what the program's ops left out of the core's own caches (L1 and L2, 2 MB
on the baseline machine), so the kernel always starts from the same
state: its time tracks how fast the machine runs right now, and not how
much of the cache the program's ops happened to use. The wall time
between two kernel runs is converted to paced time by

    paced = wall * REFERENCE_S / local kernel time

where the local kernel time is the median of the kernel times around that
stretch. A paced second is thus a second of a machine on which the kernel
takes REFERENCE_S. Kernel time, sweep included, is left out of every
measured interval: the kernel runs only between ops.

Set-up, which has no ops to run the kernel between, is paced by the
kernel's median time just after it (`paced_now`). Workloads call the tick
they are given between ops: a `Pacer`'s in the untraced run, a no-op in
the traced run, which is not paced.
"""

from __future__ import annotations

import functools
import statistics
import time
from bisect import bisect_right

import numpy as np

# sets only the scale of paced time: about the kernel's median time on the
# baseline machine
REFERENCE_S = 5e-3
# a tick every 0.2 s and a window of six ticks are how the kernels were
# compared against the workloads (see NOTES.md); the op after a tick
# refills the core's caches the sweep emptied, so ticks stay rare
INTERVAL_S = 0.2
# kernel runs on each side of a stretch whose median is its local kernel time
WINDOW = 3

_WORDS = ("the machine dreams of tokens and the tokens dream of markets " * 6).split()


class _Record:
    __slots__ = ("id", "vector")

    def __init__(self, id: int, vector: np.ndarray):
        self.id = id
        self.vector = vector


@functools.cache
def _memory() -> tuple[np.ndarray, list[_Record]]:
    """The 16 MB array swept before each kernel run, and the records the
    kernel scores; made on first use, outside any timed set-up."""
    rng = np.random.default_rng(3)
    records = [_Record(i, rng.standard_normal(256)) for i in range(600)]
    return np.ones(2_000_000), [records[i] for i in rng.permutation(len(records))]


def reference_kernel() -> float:
    """The fixed reference work."""
    counts: dict[str, int] = {}
    for word in _WORDS * 28:
        counts[word] = counts.get(word, 0) + len(word)
    total = float(sum(counts.values()))
    draws = np.random.default_rng(7)
    for _ in range(8):
        total += float(draws.normal(0.0, 1.0, 100).var())
    # an exact cosine scan over records, as a store's retrieve does
    records = _memory()[1]
    query = records[0].vector
    scored = [
        (float(np.dot(query, r.vector)) / (float(np.linalg.norm(query)) * float(np.linalg.norm(r.vector))), r.id)
        for r in records
    ]
    scored.sort(reverse=True)
    return total + scored[0][0]


def kernel_time() -> float:
    """Seconds of one kernel run, starting with the core's caches swept."""
    _memory()[0].sum()
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Pacer:
    """Times the reference kernel between ops and converts wall-clock
    intervals into paced seconds."""

    def __init__(self):
        self._starts: list[float] = []  # wall-clock start and end of each tick
        self._ends: list[float] = []
        self._times: list[float] = []  # kernel time of each tick
        self._next = 0.0
        self._factors: list[float] = []

    def tick(self) -> None:
        """Time the kernel if a run is due. Call only between ops."""
        start = time.perf_counter()
        if start < self._next:
            return
        self._times.append(kernel_time())
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self._next = end + INTERVAL_S

    def kernel_times(self) -> list[float]:
        return list(self._times)

    def kernel_wall(self) -> float:
        """Wall time spent in ticks, left out of every paced interval."""
        return sum(end - start for start, end in zip(self._starts, self._ends))

    def _stretch_factors(self) -> list[float]:
        """REFERENCE_S / local kernel time, for the stretch after each tick."""
        if len(self._factors) != len(self._times):
            times = self._times
            self._factors = [
                REFERENCE_S / statistics.median(times[max(0, i - WINDOW + 1):i + WINDOW + 1])
                for i in range(len(times))
            ]
        return self._factors

    def paced(self, start: float, end: float) -> float:
        """Paced seconds in the wall-clock interval [start, end], ticks left
        out. Time before the first tick is paced as the stretch after it."""
        factors = self._stretch_factors()
        if not factors:
            raise RuntimeError("the reference kernel never ran")
        starts, ends, n = self._starts, self._ends, len(factors)
        total = max(0.0, min(end, starts[0]) - start) * factors[0]
        i = max(0, bisect_right(ends, start) - 1)
        while i < n:
            stop = starts[i + 1] if i + 1 < n else end
            span = min(end, stop) - max(start, ends[i])
            if span > 0.0:
                total += span * factors[i]
            if stop >= end:
                break
            i += 1
        return total


def paced_now(seconds: float) -> float:
    """Paces `seconds` just measured by the median of nine kernel times
    right after."""
    return seconds * REFERENCE_S / statistics.median(kernel_time() for _ in range(9))


def no_tick() -> None:
    """The tick of an unpaced run."""
