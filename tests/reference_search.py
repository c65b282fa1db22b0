"""Reference copies of the earliest-arrival and minimum-waiting searches
that ``core.earliest_arrival`` and the iterative ``distances._min_wait_run``
replaced, kept verbatim so differential tests can compare the two.

``_ea_run`` relaxes every edge through the candidate generator
``_min_candidates``; ``_min_wait_run`` is the recursive depth-first search
without pruning (its recursion depth grows with the path length, so only
small instances may be given to it).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Iterator

from tmbcast.core import (
    Availability,
    FullAvailability,
    StaticGraph,
    TraversalSpec,
)


def _min_candidates(
    avail: Availability, trav: TraversalSpec, e: int, lo: int
) -> Iterator[tuple[int, int]]:
    """(time, weight) departures worth trying at-or-after ``lo`` when minimizing."""
    per_edge = trav._override_index[e]
    if isinstance(avail, FullAvailability):
        tau = avail.tau
        if lo > tau:
            return
        for t, w in trav.overrides[e]:
            if t >= lo:
                yield t, w
        t = lo
        while t <= tau and t in per_edge:
            t += 1
        if t <= tau:
            yield t, trav.defaults[e]
    else:
        times = avail.times(e)
        default = trav.defaults[e]
        saw_default = False
        for i in range(bisect_left(times, lo), len(times)):
            t = times[i]
            w = per_edge.get(t)
            if w is None:
                if saw_default:
                    continue
                saw_default = True
                w = default
            yield t, w


def _all_times(avail: Availability, e: int, lo: int = 1) -> Iterator[int]:
    """Every available departure at-or-after ``lo`` (used by maximizing scans)."""
    if isinstance(avail, FullAvailability):
        yield from range(lo, avail.tau + 1)
    else:
        times = avail.times(e)
        for i in range(bisect_left(times, lo), len(times)):
            yield times[i]


def _ea_run(
    graph: StaticGraph,
    avail: Availability,
    trav: TraversalSpec,
    source: int,
    first_time: int | None = None,
):
    """Dijkstra over (arrival, vertex); returns (arrivals, parents).

    With ``first_time`` the first step must depart exactly then; otherwise the
    first step may depart at any available time.  ``parents[v]`` is
    ``(previous vertex, edge, departure)`` and the parent forest realizes the
    recorded arrivals.
    """
    arrivals: dict[int, int] = {}
    parents: dict[int, tuple[int, int, int]] = {}
    heap: list[tuple[int, int]] = []

    def relax(u: int, arr_u: int, exact: int | None):
        for e, w_v in graph.incident(u):
            if w_v == source:
                continue
            best = None
            best_t = None
            if exact is None:
                for t, w in _min_candidates(avail, trav, e, arr_u):
                    if best is None or t + w < best:
                        best, best_t = t + w, t
            else:
                if avail.available(e, exact):
                    best, best_t = exact + trav.weight(e, exact), exact
            if best is None:
                continue
            if w_v not in arrivals or best < arrivals[w_v]:
                arrivals[w_v] = best
                parents[w_v] = (u, e, best_t)
                heapq.heappush(heap, (best, w_v))

    settled: set[int] = set()
    if first_time is None:
        relax(source, 1, None)
    else:
        relax(source, first_time, first_time)
    settled.add(source)
    while heap:
        arr, v = heapq.heappop(heap)
        if v in settled or arr > arrivals.get(v, -1):
            continue
        settled.add(v)
        relax(v, arr, None)
    return arrivals, parents


def _min_wait_run(
    graph: StaticGraph, avail: Availability, trav: TraversalSpec, source: int
) -> dict[int, tuple[int, tuple]]:
    """Best (waiting, steps) per vertex over simple temporal paths from source."""
    best: dict[int, tuple[int, tuple]] = {}
    on_path = [False] * graph.vertex_count
    on_path[source] = True
    steps: list[tuple[int, int]] = []

    def visit(v: int, arrival: int, waited: int, first: bool):
        if not first:
            cur = best.get(v)
            if cur is None or waited < cur[0]:
                best[v] = (waited, tuple(steps))
        for e, w_v in graph.incident(v):
            if on_path[w_v]:
                continue
            if first:
                candidates = (
                    (t, trav.weight(e, t)) for t in _all_times(avail, e)
                )
            else:
                candidates = _min_candidates(avail, trav, e, arrival)
            for t, w in candidates:
                extra = 0 if first else t - arrival
                on_path[w_v] = True
                steps.append((e, t))
                visit(w_v, t + w, waited + extra, False)
                steps.pop()
                on_path[w_v] = False

    visit(source, 1, 0, True)
    return best
