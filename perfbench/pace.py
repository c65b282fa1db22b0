"""Timings at a reference pace: each call's time divided by the host's slowdown.

The benchmark runs on a shared host.  For stretches of a fraction of a second
to minutes other tenants make the same work take up to twice as long, and the
slowdown shows in CPU time as much as in wall time, so neither clock alone separates
the program's speed from the host's.  Here a fixed pure-Python kernel (a
Dijkstra search on a small grid: dicts, tuples and a heapq frontier, the same
kind of interpreter work as the library's) is timed around every call and,
from an interval timer, every SAMPLE_PERIOD_S during it.  The call's slowdown
is the mean of those kernel times over the kernel's time at the reference
pace, and its time at the reference pace is its wall time, less the time spent
in the timer's handler, divided by that slowdown.  The reference pace is the
big kernel's fastest time on a shared 2-vCPU KVM guest under Python 3.11
(0.72 ms), so the figures read as milliseconds on that machine in its fast
periods.

The same interval timer enforces each call's deadline.
"""

from __future__ import annotations

import gc
import heapq
import signal
from time import perf_counter

# Around a call the big kernel runs BOUNDARY_RUNS times and its fastest run
# counts (the first run after a call pays for the caches the call evicted).
BOUNDARY_K = 24
BOUNDARY_RUNS = 3
BOUNDARY_REF_S = 0.72e-3
# During a call the small kernel runs once per timer tick.  Its reference
# time is its mean time inside calls while the big kernel reads
# BOUNDARY_REF_S around them (0.13 to 0.16 of it; it runs on cold caches).
SAMPLE_K = 8
SAMPLE_PERIOD_S = 0.01
SAMPLE_REF_S = 0.14 * BOUNDARY_REF_S


class DeadlineExceeded(BaseException):
    """Raised in the main thread when a call's deadline passes.

    A BaseException, so that no handler in the library can swallow it."""


def _kernel(k: int) -> int:
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        r, c = divmod(v, k)
        for w in (v + 1 if c + 1 < k else -1, v - 1 if c else -1,
                  v + k if r + 1 < k else -1, v - k if r else -1):
            if w < 0:
                continue
            nd = d + 1 + (v * 7 + w) % 5
            if nd < dist.get(w, 1 << 30):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return len(dist)


def _kernel_seconds(k: int) -> float:
    """One kernel run, with the cyclic collector held off so that a collection
    of the program's objects is not charged to the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel(k)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Times calls under a deadline and converts them to the reference pace."""

    def __init__(self):
        self._armed = False
        self._until = 0.0
        self._samples: list[float] = []
        self._overhead = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def slowdown(self) -> float:
        """The host's slowdown now: the big kernel's time over its reference."""
        return min(_kernel_seconds(BOUNDARY_K) for _ in range(BOUNDARY_RUNS)) / BOUNDARY_REF_S

    def _tick(self, signum, frame):
        if not self._armed:
            return
        start = perf_counter()
        self._samples.append(_kernel_seconds(SAMPLE_K))
        now = perf_counter()
        self._overhead += now - start
        if now >= self._until:
            self._disarm()
            raise DeadlineExceeded

    def _disarm(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def time(self, call, deadline_s: float, before: float | None = None):
        """Run ``call()``; returns (error or None, wall seconds, seconds at the
        reference pace, slowdown after the call).  ``before`` is the slowdown
        measured just before, if the caller has it."""
        if before is None:
            before = self.slowdown()
        self._samples, self._overhead = [], 0.0
        error = None
        self._until = perf_counter() + deadline_s
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = perf_counter()
        try:
            call()
            self._disarm()
        except DeadlineExceeded:
            error = f"missed its {deadline_s:g} s deadline"
        except Exception as err:  # the call's failure, counted and reported
            error = f"raised {type(err).__name__}"
        finally:
            elapsed = perf_counter() - start
            self._disarm()
        after = self.slowdown()
        inside = sum(self._samples) / SAMPLE_REF_S
        slowdown = (before + after + inside) / (2 + len(self._samples))
        return error, elapsed, (elapsed - self._overhead) / slowdown, after
