"""The six temporal distance measures and the bound quantities for FT/MW.

Every search reads one ``core.CandidateTable``, built once per availability
and shared by every source and probe.  It holds each edge's departure
times and the traversal's override index, and a search computes a
departure's arrival where it reads one: the kernels, the front search on a
labeling's ``plain`` edges and on the full temporal graph, the
minimum-waiting search on ``plain`` edges and the certificate maxima read
the times in place, and the rest take ``candidates``, built on demand.
The searches are:

* earliest arrival: one run of the kernel ``core.earliest_arrival``,
  stopped at the target when there is one;
* latest departure and fastest: kernel runs from a start time t0, whose
  first step departs at t0 or later.  Waiting is allowed, so the arrival
  F(t0) never decreases as t0 grows (FIFO; Dean, "Shortest paths in FIFO
  time-dependent networks", 2004).  A vertex's latest departure is the
  first start, taken latest first, whose run reaches it; the least F(t0) -
  t0 over the starts is the least duration, first reached at the earliest
  optimal departure.  For every vertex, latest departure runs the
  candidate first departures latest first until every vertex is reached,
  and fastest runs them all.  For one target, latest departure is the
  backward kernel ``core.latest_departure`` itself, one run, and fastest
  sweeps the candidates in runs stopped at the target, skipping those
  that F bounds out (see ``_fastest_to``).  The floor L* = min_v ld(v),
  which the exact solvers' ld tree and the ld objective need, is a
  backward run to the vertex a first forward run reaches last, checked by
  a forward run from its answer (see ``_ld_floor``);
* shortest travel / minimum hop: the front search ``_fronts`` keyed by the
  cost (travel or hops), whose first kept state at a vertex has the least
  cost and then the earliest arrival.  It reaches the vertices the kernel
  reaches, so a schedule's pair values (``_table_pairs``) read feasibility
  from its fronts and run no kernel;
* minimum waiting: depth-first enumeration of simple paths with an explicit
  stack (waiting is the one statistic where revisiting a vertex could pay
  off, and the definitions range over simple paths only), pruned from the
  start by the largest waiting of a path in the start-1 earliest-arrival
  forest.

``objective`` under fastest and minimum waiting reads the same start-1 run
of each source, which decides feasibility, as a bound on the source's worst
pair (the latest arrival minus the first candidate departure, and the
forest's largest waiting), and searches the sources in decreasing bound
until the next bound does not exceed the worst value found.

The certificate's maxima (the longest duration and the longest waiting of a
simple temporal path to each vertex) take one pair of front searches per
target ``v``: a simple path to ``v`` is a prefix to a neighbour ``u`` that
avoids ``v``, then the edge ``(u, v)``.  On the full temporal graph waiting
is free, so a prefix's cycle through a vertex other than the source can be
replaced by waiting there; each search therefore runs over walks in
``G - v`` that never re-enter the source, keeping per vertex the Pareto
front of (first departure, arrival) for duration and of (first departure +
travel, arrival) for waiting.  Both are polynomial in the graph size and the
number of override times.

Values come first, witnesses on demand: ``_search``, the one dispatcher of
the per-source searches, returns per-vertex values and a function that
builds the paths of the vertices asked for.  Every witness is a linked step
list ``(edge, time, previous)`` (see ``_chain_path``): the front search and
the minimum-waiting search link the states they keep, and an
earliest-arrival witness comes from the parent forest of its kernel run.
A latest-departure or fastest witness re-runs the start that attained its
value and reads that run's forest (see ``_probe_paths``; the kernel is
deterministic), so no sweep keeps its runs' parents.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from tmbcast.core import (
    Availability,
    CandidateTable,
    Instance,
    Labeling,
    PathStats,
    ReachFastInstance,
    SameVertex,
    StaticGraph,
    TemporalPath,
    Unreachable,
    ValidationError,
    _NEVER,
    _check_labeling,
    _feasible_arrivals,
    _too_sparse,
    earliest_arrival,
    latest_departure,
)


class Measure(Enum):
    """The six temporal distance measures with their objective polarity."""

    EARLIEST_ARRIVAL = "ea"
    LATEST_DEPARTURE = "ld"
    FASTEST = "ft"
    SHORTEST_TRAVEL = "st"
    MIN_HOP = "mh"
    MIN_WAIT = "mw"

    @property
    def code(self) -> str:
        return self.value

    @property
    def maximize(self) -> bool:
        """True when longer is better (latest departure); the worst case over
        vertices is then the minimum instead of the maximum."""
        return self is Measure.LATEST_DEPARTURE

    @classmethod
    def from_code(cls, code: str) -> "Measure":
        for m in cls:
            if m.value == code.lower():
                return m
        raise ValidationError(f"unknown measure {code!r}")

    def statistic(self, stats: PathStats) -> int:
        return _STATISTIC[self](stats.departure, stats.arrival, stats.travel, stats.hops)

    def better(self, a: int, b: int) -> bool:
        return a > b if self.maximize else a < b

    def worst(self, values: Iterable[int]) -> int:
        return min(values) if self.maximize else max(values)


# Each measure's statistic of a path with the given departure, arrival,
# travel and hops (duration is arrival minus departure, waiting that minus
# travel).  Plain functions, so a tree's paths need no PathStats apiece.
_STATISTIC = {
    Measure.EARLIEST_ARRIVAL: lambda departure, arrival, travel, hops: arrival,
    Measure.LATEST_DEPARTURE: lambda departure, arrival, travel, hops: departure,
    Measure.FASTEST: lambda departure, arrival, travel, hops: arrival - departure,
    Measure.SHORTEST_TRAVEL: lambda departure, arrival, travel, hops: travel,
    Measure.MIN_HOP: lambda departure, arrival, travel, hops: hops,
    Measure.MIN_WAIT: lambda departure, arrival, travel, hops: arrival - departure - travel,
}


@dataclass(frozen=True)
class DistanceResult:
    """Optimal value of a measure between a vertex pair, with a realizing path."""

    value: int | None
    witness: TemporalPath | None


UNREACHED = DistanceResult(None, None)


@dataclass(frozen=True)
class Bounds:
    """Worst-vertex extremes of duration and waiting over the full temporal graph.

    The minima bound any feasible solution's objective from below; the maxima
    bound the objective of any spanning schedule from above, which is what
    the approximation certificate reports.
    """

    ft_min: int
    ft_max: int
    mw_min: int
    mw_max: int


# ---------------------------------------------------------------------------
# Earliest-arrival probes


def _first_departure_times(
    graph: StaticGraph, table: CandidateTable, source: int
) -> Sequence[int]:
    """Distinct times at which some edge incident to ``source`` is available,
    ascending."""
    if table.tau is not None:
        return range(1, table.tau + 1) if graph.incident(source) else []
    out: set[int] = set()
    for e, _ in graph.incident(source):
        out.update(table.times[e])
    return sorted(out)


def _latest_departures(
    graph: StaticGraph, table: CandidateTable, source: int
) -> list[int | None]:
    """The latest first departure from which each other vertex is reachable.

    Runs the kernel from each candidate first departure, latest first, until
    every vertex is reached; a vertex's value is the first start whose run
    reaches it, so re-running that start gives its witness (see
    ``_probe_paths``).  Entries of the source and of unreached vertices stay
    None.
    """
    value: list[int | None] = [None] * graph.vertex_count
    remaining = set(range(graph.vertex_count)) - {source}
    for t0 in reversed(_first_departure_times(graph, table, source)):
        if not remaining:
            break
        arrivals, _ = earliest_arrival(graph, table, source, start=t0)
        found = [v for v in remaining if arrivals[v] is not None]
        for v in found:
            value[v] = t0
        remaining.difference_update(found)
    return value


def _parent_chain(parents: list, links: dict, v: int) -> tuple:
    """Linked step list of ``v``'s path in a parent forest, memoized in
    ``links`` (vertex -> chain), which starts out holding the root."""
    climbed = []
    while v not in links:
        climbed.append(v)
        v = parents[v][0]
    chain = links[v]
    for w in reversed(climbed):
        _, e, t = parents[w]
        chain = links[w] = (e, t, chain)
    return chain


def _fastest(graph: StaticGraph, table: CandidateTable, source: int, forest=None):
    """(durations, first departures): per vertex, the least arrival minus
    start over runs from every candidate first departure, and the earliest
    start attaining it.  A run's paths depart at its start or later, so that
    is the least duration, first reached at the earliest optimal departure.
    ``forest`` is the kernel's start-1 run if the caller has it; it serves
    as the run from the first candidate, the same run, as no edge from the
    source departs before that."""
    duration: list[int | None] = [None] * graph.vertex_count
    start: list[int | None] = [None] * graph.vertex_count
    for i, t0 in enumerate(_first_departure_times(graph, table, source)):
        if i == 0 and forest is not None:
            arrivals = forest[0]
        else:
            arrivals, _ = earliest_arrival(graph, table, source, start=t0)
        for v, arrival in enumerate(arrivals):
            if arrival is not None and (duration[v] is None or arrival - t0 < duration[v]):
                duration[v] = arrival - t0
                start[v] = t0
    return duration, start


def _probe_paths(graph, table, source, start, vertices) -> dict[int, TemporalPath]:
    """Witness paths of ``vertices`` from re-runs of the kernel, one run
    from each distinct first departure ``start[v]``.  A run for one vertex
    stops once it is settled, when its path is final: the full run's."""
    by_start: dict[int, list[int]] = {}
    for v in vertices:
        by_start.setdefault(start[v], []).append(v)
    paths: dict[int, TemporalPath] = {}
    for t0, group in by_start.items():
        _, parents = earliest_arrival(
            graph, table, source, start=t0, stop=group[0] if len(group) == 1 else None)
        paths.update(_parent_paths(graph, parents, source, group))
    return paths


def _ld_floor(graph, table, source: int, first_run=None):
    """(L*, forest): the latest candidate first departure whose run reaches
    every vertex, the floor L* = min_v ld(source, v), and the kernel's
    (arrivals, parents) from L*; None when even the first run misses a
    vertex.  ``first_run`` is the kernel's start-1 run if the caller has
    it, the same run as the one from the first candidate, as no edge from
    the source departs before that.

    The first run, from the first candidate, decides reachability.  Its
    last-reached vertex ``v`` bounds the floor from above by ld(source, v),
    one backward run, and a forward run from that bound checks it: when it
    reaches every vertex, the bound is L*.  Otherwise the missed vertex
    reached last in the first run gives a new bound, strictly lower, as
    its ld is below the old one.  Once 1 + ceil(log2 |C|) runs are spent,
    C the candidates, a bisection over the candidates left finishes.  A run
    from ``t`` that reaches every vertex has its paths depart at their
    least first departure ``t'`` or later, so the run from ``t'`` reaches
    every vertex too, and ``t'`` becomes the lower end; a run that misses
    one lowers the upper end.  Each run halves the range.
    """
    times = _first_departure_times(graph, table, source)
    if not times:
        return None
    first_run = first_run or earliest_arrival(graph, table, source, start=times[0])
    arrivals, parents = first_run
    if arrivals.count(None) > 1:  # the source's own entry is None
        return None
    # Every time looked up below is a candidate, so ``index`` finds it; on
    # the full graph ``times`` is a range, which ``len`` and ``bisect``
    # cannot take past 2**63 - 1 candidates, but ``index`` can.
    hi = times.index(times[-1])
    runs, budget = 1, 1 + hi.bit_length()
    v = max(range(graph.vertex_count), key=lambda v: arrivals[v] or 0)
    while runs < budget:
        bound = latest_departure(graph, table, source, v)
        forest = earliest_arrival(graph, table, source, start=bound)
        runs += 2
        missed = [w for w, a in enumerate(forest[0]) if a is None and w != source]
        if not missed:
            return bound, forest
        hi = times.index(bound) - 1
        v = max(missed, key=arrivals.__getitem__)
    lo = times.index(min(p[2] for p in parents if p is not None and p[0] == source))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        arrivals, parents = earliest_arrival(graph, table, source, start=times[mid])
        if arrivals.count(None) > 1:
            hi = mid - 1
        else:
            lo = times.index(min(p[2] for p in parents if p is not None and p[0] == source))
    if lo == 0:  # the first run is the one from times[0]
        return times[0], first_run
    return times[lo], earliest_arrival(graph, table, source, start=times[lo])


def _fastest_to(graph, table, source: int, target: int):
    """(duration, first departure) of ft(source, target) with ``_fastest``'s
    tie-break, the earliest first departure attaining the least duration;
    (None, None) when the target is unreached.

    A sweep over the candidate first departures, pruned by bounds: the run
    from ``t``, stopped at the target, arrives there at F(t), the earliest
    arrival over the walks whose first step departs at ``t`` or later.  F
    never decreases as ``t`` grows, and its path's first departure ``t'``
    attains it: ``t' >= t`` and F(t') = F(t), so F(t) - t' is the exact
    duration from ``t'``.  Every departure ``t''`` after ``t`` takes at
    least F(t) - t''.  So every candidate up to F(t) - best is slower than
    the best so far, or ties it later, and the sweep skips to the first
    candidate past that; an unreached target ends it.
    """
    times = _first_departure_times(graph, table, source)
    best = start = None
    i = 0
    while i < len(times):
        arrivals, parents = earliest_arrival(
            graph, table, source, start=times[i], stop=target)
        arrival = arrivals[target]
        if arrival is None:
            break  # no later first departure reaches the target either
        v = target
        while parents[v][0] != source:
            v = parents[v][0]
        first = parents[v][2]
        if best is None or arrival - first < best:
            best, start = arrival - first, first
        i = bisect_right(times, arrival - best)  # arrival - best >= first >= times[i]
    return best, start


def _parent_paths(graph, parents, source, vertices) -> dict[int, TemporalPath]:
    """Paths of ``vertices`` in one kernel run's parent forest."""
    links = {source: None}
    return {v: _chain_path(graph, source, _parent_chain(parents, links, v)) for v in vertices}


# ---------------------------------------------------------------------------
# Front search: shortest travel, minimum hop and the certificate maxima

_KEEP, _TRAVEL, _HOP = range(3)  # key steps of _fronts


def _fronts(graph: StaticGraph, table: CandidateTable, closed: Iterable[int],
            seeds: list[tuple], step: int, until: set[int] | None = None,
            cap: float = _NEVER) -> list[list]:
    """Per-vertex Pareto fronts of (key, arrival), both minimized, over the
    temporal walks that start with one of ``seeds`` and never enter a
    vertex of ``closed``.

    ``seeds`` are the first steps as ``(key, arrival, vertex, edge, time,
    0)``.  A later step keeps the key (``_KEEP``), adds its traversal time
    (``_TRAVEL``) or adds one (``_HOP``), and is taken only when it arrives
    by ``cap``; a state that arrives past tau has no departures.  Keys and
    arrivals never decrease along a walk, so states pop in (key, arrival)
    order: a vertex's front grows by ascending key and strictly descending
    arrival, and a state is kept and expanded only when it arrives before
    every earlier one there.  A walk back to a vertex is never kept, so the
    front entries ``(key, arrival, chain)`` carry simple paths as linked
    step lists (see ``_chain_path``).  With ``until`` the search stops once
    each of those vertices has its least-key state (the set is consumed).
    """
    adjacency = graph.adjacency
    all_times, overrides, defaults, tau = table.times, table.overrides, table.defaults, table.tau
    plain = () if tau is not None else table.plain
    best = [_NEVER] * graph.vertex_count
    for v in closed:
        best[v] = -1  # every arrival is dominated: never entered
    fronts: list[list] = [[] for _ in range(graph.vertex_count)]
    # Chains of the kept states; a heap entry names its parent's chain by index,
    # so the heap never compares two chains.
    chains: list[tuple | None] = [None]
    travel = step == _TRAVEL
    hop = 1 if step == _HOP else 0
    heap = list(seeds)
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        key, arrival, x, e, t, parent = pop(heap)
        if arrival >= best[x]:
            continue
        best[x] = arrival
        chain = (e, t, chains[parent])
        fronts[x].append((key, arrival, chain))
        if until is not None:
            until.discard(x)
            if not until:
                break
        here = len(chains)
        chains.append(chain)
        base = key + hop
        for e, y in adjacency[x]:
            limit = best[y]
            if limit <= arrival:
                continue  # no step from here can arrive earlier
            # ``table.candidates(e, arrival)``, read in place on a plain
            # labeling edge and on the full temporal graph.
            if tau is not None:
                if arrival > tau:
                    continue
                times = all_times[e]
                per_edge = overrides[e]
                for t in times[bisect_left(times, arrival):]:
                    reach = t + per_edge[t]
                    if reach < limit and reach <= cap:
                        push(heap, (base + reach - t if travel else base, reach, y, e, t, here))
                t = arrival
                while t in per_edge:
                    t += 1
                reach = t + defaults[e]
                if t <= tau and reach < limit and reach <= cap:
                    push(heap, (base + reach - t if travel else base, reach, y, e, t, here))
            elif plain[e]:
                times = all_times[e]
                i = bisect_left(times, arrival)
                if i < len(times):
                    t = times[i]
                    reach = t + defaults[e]
                    if reach < limit and reach <= cap:
                        push(heap, (base + reach - t if travel else base, reach, y, e, t, here))
            else:
                for t, reach in table.candidates(e, arrival):
                    if reach < limit and reach <= cap:
                        push(heap, (base + reach - t if travel else base, reach, y, e, t, here))
    return fronts


def _cost_fronts(graph: StaticGraph, table: CandidateTable, source: int,
                 measure: Measure, until: set[int] | None = None) -> list[list]:
    """``_fronts`` keyed by travel (shortest travel) or by hops (minimum
    hop) over the walks from ``source``, starting at time 1, that never
    re-enter it.  A vertex's first entry has its least cost and, among the
    paths of that cost, the earliest arrival."""
    travel = measure is Measure.SHORTEST_TRAVEL
    seeds = [
        (reach - t if travel else 1, reach, w, e, t, 0)
        for e, w in graph.adjacency[source]
        for t, reach in table.candidates(e, 1)
    ]
    return _fronts(graph, table, (source,), seeds, _TRAVEL if travel else _HOP, until)


# ---------------------------------------------------------------------------
# Minimum-waiting search over simple paths


def _forest_waiting(arrivals: list, parents: list, source: int) -> int:
    """The largest waiting over the paths of a kernel run's parent forest,
    by a climb memoized per vertex as in ``_parent_chain``: a zero-weight
    edge gives a child its parent's arrival, so arrival order may put the
    child first."""
    waiting = [None] * len(parents)
    waiting[source] = worst = 0
    for v, parent in enumerate(parents):
        if parent is None or waiting[v] is not None:
            continue  # unreached, or climbed to already
        climbed = [v]
        u = parent[0]
        while waiting[u] is None:
            climbed.append(u)
            u = parents[u][0]
        for w in reversed(climbed):
            u, _, t = parents[w]
            waiting[w] = x = 0 if u == source else waiting[u] + t - arrivals[u]
            if x > worst:
                worst = x
    return worst


def _min_wait_run(
    graph: StaticGraph, table: CandidateTable, source: int, forest: tuple | None = None
) -> dict[int, tuple[int, tuple]]:
    """Least waiting per vertex over simple temporal paths from ``source``.

    Maps each reached vertex to ``(waiting, steps)`` for the first path found
    with that waiting, where ``steps`` is the linked list
    ``(edge, time, previous steps)`` ending in None (see ``_chain_path``).

    Depth-first over simple paths with an explicit stack of move iterators,
    so the depth is not bounded by the interpreter's recursion limit.
    Waiting never decreases along a path, so a prefix is skipped when its
    waiting exceeds W, the largest waiting of a path in the start-1
    earliest-arrival forest (``forest``, the kernel's ``(arrivals,
    parents)`` if the caller has it, else one run here): each forest path
    is a simple path the search enumerates, so no vertex's least waiting
    exceeds W.  Once every vertex has a best, a prefix whose waiting
    reaches the largest of them cannot improve any vertex either.  Skipped
    prefixes lie on no path of least waiting and the rest are tried in the
    same order, so values and witnesses (the first path found with the
    least waiting) do not depend on the bound.
    """
    adjacency = graph.adjacency
    best: dict[int, tuple[int, tuple]] = {}
    on_path = [False] * graph.vertex_count
    on_path[source] = True
    missing = graph.vertex_count - 1
    arrivals, parents = forest or earliest_arrival(graph, table, source)
    bound = _forest_waiting(arrivals, parents, source) + 1
    worst: list[tuple[int, int]] = []  # (-waiting, v); stale entries dropped lazily

    all_times, defaults = table.times, table.defaults
    plain = () if table.tau is not None else table.plain

    def moves(v: int, arrival: int, waited: int, first: bool):
        out = []
        for e, w in adjacency[v]:
            if on_path[w]:
                continue
            if first:
                out += [(w, e, t, reach, waited) for t, reach in table.available(e)]
            elif plain and plain[e]:  # ``table.candidates``, read in place
                times = all_times[e]
                i = bisect_left(times, arrival)
                if i < len(times):
                    t = times[i]
                    out.append((w, e, t, t + defaults[e], waited + t - arrival))
            else:
                out += [(w, e, t, reach, waited + t - arrival)
                        for t, reach in table.candidates(e, arrival)]
        return iter(out)

    stack = [(moves(source, 1, 0, True), None, source)]
    while stack:
        pending, chain, v = stack[-1]
        for w, e, t, reach, waited in pending:
            if waited >= bound:
                continue
            link = (e, t, chain)
            cur = best.get(w)
            if cur is None or waited < cur[0]:
                best[w] = (waited, link)
                if cur is None:
                    missing -= 1
                heapq.heappush(worst, (-waited, w))
                if not missing:
                    while -worst[0][0] != best[worst[0][1]][0]:
                        heapq.heappop(worst)
                    bound = -worst[0][0]
            on_path[w] = True
            stack.append((moves(w, reach, waited, False), link, w))
            break
        else:
            stack.pop()
            on_path[v] = False
    return best


def _chain_path(graph: StaticGraph, source: int, chain: tuple) -> TemporalPath:
    """The path of a linked step list ``(edge, time, previous)``."""
    steps = []
    while chain is not None:
        e, t, chain = chain
        steps.append((e, t))
    return TemporalPath.from_steps(graph, source, steps[::-1])


# ---------------------------------------------------------------------------
# Public distance operations


def _search(graph, table, source, measure: Measure, target: int | None = None,
            forest: tuple | None = None):
    """(values, witnesses) of one source: the one dispatcher of the
    per-source searches, for ``sssp``, ``distance`` and ``_table_pairs``.

    ``values[v]`` is measure(source, v), None for the source and for
    unreached vertices; ``witnesses(vertices)`` maps each given reached
    vertex to a realizing path.  A ``target`` (default: every other vertex)
    asks for that vertex alone, and only ``values[target]`` is meaningful
    then: earliest arrival and the shortest-travel and minimum-hop front
    searches stop once it is settled, latest departure is one backward run
    (``core.latest_departure``) and fastest a few forward runs
    (``_fastest_to``) in place of one per candidate first departure.  A
    latest-departure or fastest witness re-runs the first departure that
    attained its value (``_probe_paths``).  ``forest`` is the kernel's
    start-1 run if the caller has it, which fastest and minimum waiting
    read (see ``_fastest`` and ``_min_wait_run``).
    """
    if measure is Measure.EARLIEST_ARRIVAL:
        arrivals, parents = earliest_arrival(graph, table, source, stop=target)
        return arrivals, lambda vs: _parent_paths(graph, parents, source, vs)
    if measure in (Measure.LATEST_DEPARTURE, Measure.FASTEST):
        if target is not None:
            values = [None] * graph.vertex_count
            if measure is Measure.LATEST_DEPARTURE:
                values[target] = t0 = latest_departure(graph, table, source, target)
            else:
                values[target], t0 = _fastest_to(graph, table, source, target)
            start = {target: t0}
        elif measure is Measure.LATEST_DEPARTURE:
            values = start = _latest_departures(graph, table, source)
        else:
            values, start = _fastest(graph, table, source, forest)
        return values, lambda vs: _probe_paths(graph, table, source, start, vs)
    if measure is Measure.MIN_WAIT:
        best = _min_wait_run(graph, table, source, forest)
        values = [None] * graph.vertex_count
        for v, (waiting, _) in best.items():
            values[v] = waiting
        return values, lambda vs: {v: _chain_path(graph, source, best[v][1]) for v in vs}
    fronts = _cost_fronts(graph, table, source, measure, None if target is None else {target})
    values = [front[0][0] if front else None for front in fronts]
    return values, lambda vs: {v: _chain_path(graph, source, fronts[v][0][2]) for v in vs}


def _availability_table(model: Instance | ReachFastInstance,
                        availability: Availability | None = None) -> CandidateTable:
    """The candidate table of the model's availability, checked: the one
    owner of that rule.  None stands for the model's own, the full temporal
    graph of an ``Instance`` or the labels of a ``ReachFastInstance``, which
    its constructor checked.  A labeling must pass ``core._check_labeling``
    without the quota (cover, then labels within ``1..tau``) and a
    ``FullAvailability`` must have the model's tau, else ValidationError."""
    if availability is None:
        availability = (model.labels if isinstance(model, ReachFastInstance)
                        else model.full_availability())
    elif isinstance(availability, Labeling):
        _check_labeling(model, availability, quota=False)
    elif availability.tau != model.tau:
        raise ValidationError(
            f"full availability horizon {availability.tau} is not tau {model.tau}")
    return CandidateTable(availability, model.traversal)


def sssp(
    source: int,
    availability: Availability,
    instance: Instance,
    measure: Measure,
) -> tuple[DistanceResult, ...]:
    """Single-source distance vector; entry ``v`` realizes measure(source, v).

    A labeling raises ValidationError as ``is_feasible`` does, except that
    its quota is not checked: a distance is defined on any schedule.  A
    ``FullAvailability`` whose horizon is not the instance's tau raises
    ValidationError too, as a label past tau does.
    """
    graph = instance.graph
    if not (0 <= source < graph.vertex_count):
        raise ValidationError(f"source {source} out of range")
    table = _availability_table(instance, availability)
    values, witnesses = _search(graph, table, source, measure)
    paths = witnesses([v for v, value in enumerate(values) if value is not None])
    return tuple(
        UNREACHED if value is None else DistanceResult(value, paths[v])
        for v, value in enumerate(values)
    )


def distance(
    u: int,
    v: int,
    availability: Availability,
    instance: Instance,
    measure: Measure,
) -> DistanceResult:
    """Optimum of the measure over all temporal paths from u to v.  The
    availability is checked as in ``sssp``."""
    graph = instance.graph
    if not (0 <= u < graph.vertex_count and 0 <= v < graph.vertex_count):
        raise ValidationError("vertex out of range")
    if u == v:
        raise SameVertex(f"distance between {u} and itself is undefined")
    table = _availability_table(instance, availability)
    values, witnesses = _search(graph, table, u, measure, target=v)
    if values[v] is None:
        return UNREACHED
    return DistanceResult(values[v], witnesses([v])[v])


def objective(
    instance: Instance, labeling: Labeling, measure: Measure
) -> int | None:
    """Worst-case measure over every (source, other vertex) pair, or None.

    Max over pairs for the minimizing measures, min for latest departure;
    None when some source fails to reach some vertex, found at the first
    source, in order, that misses one.  Earliest arrival, shortest travel
    and minimum hop read the pair values of ``_table_pairs``.  The other
    three take one kernel run per source first, which decides feasibility
    and serves as each source's start-1 run.  Latest departure's min over
    pairs is the least floor L* over the sources (``_ld_floor``, whose
    first run that is), so it needs no value per vertex.  Fastest and
    minimum waiting search only the sources whose start-1 run bounds their
    worst pair above the worst one found so far (``_worst_by_bound``).  A
    labeling ``is_feasible`` rejects raises the same error here.
    """
    _check_labeling(instance, labeling)
    table = CandidateTable(labeling, instance.traversal)
    if measure not in (Measure.LATEST_DEPARTURE, Measure.FASTEST, Measure.MIN_WAIT):
        pairs = _table_pairs(instance, table, measure)
        return None if pairs is None else measure.worst(pairs.values())
    forests = _feasible_arrivals(instance, table)
    if forests is None:
        return None
    if measure is Measure.LATEST_DEPARTURE:
        return min(_ld_floor(instance.graph, table, s, run)[0] for s, run in forests.items())
    return _worst_by_bound(instance.graph, table, forests, measure)


def _worst_by_bound(graph: StaticGraph, table: CandidateTable, forests: dict,
                    measure: Measure) -> int:
    """The largest fastest or minimum-waiting value over every (source,
    other vertex) pair of a feasible schedule, given each source's start-1
    kernel run in ``forests``.

    A source's run bounds its worst pair from above.  Its forest paths are
    simple paths, so no vertex's least waiting exceeds the largest waiting
    among them (``_forest_waiting``).  It is also the run from the source's
    first candidate departure t0, which reaches each vertex ``v`` at its
    arrival ``a_v`` on a path departing at t0 or later, so ft(s, v) <=
    a_v - t0.  The sources are searched in decreasing bound, ties in source
    order, until the next bound does not exceed the worst value found.
    """
    bounds = {}
    for s, (arrivals, parents) in forests.items():
        if measure is Measure.MIN_WAIT:
            bounds[s] = _forest_waiting(arrivals, parents, s)
        else:
            bounds[s] = (max(a for a in arrivals if a is not None)
                         - _first_departure_times(graph, table, s)[0])
    worst = -1  # below every duration and waiting: the first source is searched
    for s in sorted(bounds, key=bounds.get, reverse=True):  # stable: ties keep source order
        if bounds[s] <= worst:
            break
        if measure is Measure.MIN_WAIT:
            value = max(w for w, _ in _min_wait_run(graph, table, s, forests[s]).values())
        else:
            value = max(d for d in _fastest(graph, table, s, forests[s])[0] if d is not None)
        worst = max(worst, value)
    return worst


def _table_pairs(
    instance: Instance, table: CandidateTable, measure: Measure
) -> dict[tuple[int, int], int] | None:
    """measure(s, v) for every source s and every other vertex v, in that
    order, over a built candidate table, or None at the first source that
    misses a vertex.  Each source's values come from ``_search``, whose
    searches reach the kernel's vertices: the shortest-travel and
    minimum-hop fronts walk from time 1 and never re-enter the source, and
    ``candidates`` drops no departure that arrives before one it keeps.
    Fastest and minimum waiting take ``_feasible_arrivals``' runs first, as
    their start-1 runs, so an infeasible schedule pays for neither search.
    """
    graph = instance.graph
    if _too_sparse(graph):
        return None
    forests = {}
    if measure in (Measure.FASTEST, Measure.MIN_WAIT):
        forests = _feasible_arrivals(instance, table)
        if forests is None:
            return None
    pairs = {}
    for s in sorted(instance.sources):
        values, _ = _search(graph, table, s, measure, forest=forests.get(s))
        if values.count(None) > 1:  # the source's own entry is None
            return None
        pairs.update({(s, v): value for v, value in enumerate(values) if v != s})
    return pairs


# ---------------------------------------------------------------------------
# FT/MW bound quantities on the full temporal graph


def _max_stats(graph: StaticGraph, table: CandidateTable, source: int):
    """(max duration, max waiting) per vertex over simple temporal paths from
    ``source`` on the full temporal graph; None for unreached vertices.

    A path to ``v`` is a prefix to a neighbour ``u`` (state: first departure
    ``t0``, arrival ``a``) and the edge ``(u, v)`` at some ``t`` in
    ``a..tau``.  Its duration is ``t + tr(e, t) - t0``, so the prefixes that
    count are the (t0, a) front of ``u``.  Its waiting telescopes to
    ``t - t0 - travel(prefix)``, largest at ``t = tau``, so the prefix that
    counts is the one of least ``t0 + travel``.  A single step has duration
    ``tr(e, t)`` and waiting 0.  A first step departing at a default-weight
    time right after another default-weight time is dominated by that one,
    so the first departures tried are 1, the source edges' override times
    and the times right after them.
    """
    adjacency = graph.adjacency
    tau = table.tau
    defaults, overrides, all_times = table.defaults, table.overrides, table.times
    starts = {1}
    for e, _ in adjacency[source]:
        for t in all_times[e]:
            starts.update((t, t + 1))
    seeds = [
        (t0, reach, w, e, t0, 0)
        for e, w in adjacency[source]
        for t0 in sorted(starts)
        if t0 <= tau and (reach := t0 + overrides[e].get(t0, defaults[e])) <= tau
    ]
    # t0 + travel = arrival
    cost_seeds = [(reach, reach, w, e, t0, 0) for t0, reach, w, e, _, _ in seeds]
    last_default = []  # per edge, the latest default-weight time (0 if none)
    for per_edge in overrides:
        t = tau
        while t in per_edge:
            t -= 1
        last_default.append(t)

    def last_arrival(e: int, a: int) -> int:
        """Latest arrival over the edge's departures in a..tau."""
        times, per_edge = all_times[e], overrides[e]
        reach = max((t + per_edge[t] for t in times[bisect_left(times, a):]), default=-1)
        if last_default[e] >= a:
            reach = max(reach, last_default[e] + defaults[e])
        return reach

    max_dur: list[int | None] = [None] * graph.vertex_count
    max_wait: list[int | None] = [None] * graph.vertex_count
    for v in range(graph.vertex_count):
        if v == source:
            continue
        by_start = _fronts(graph, table, (source, v), seeds, _KEEP, cap=tau)
        by_cost = _fronts(graph, table, (source, v), cost_seeds, _TRAVEL,
                          until={u for _, u in adjacency[v] if u != source}, cap=tau)
        durations, waits = [], []
        for e, u in adjacency[v]:
            if u == source:
                weights = list(overrides[e].values())
                if len(weights) < tau:  # some time in 1..tau has the default
                    weights.append(defaults[e])
                durations.append(max(weights))
                waits.append(0)
            elif by_start[u]:
                durations.extend(last_arrival(e, a) - t0 for t0, a, _ in by_start[u])
                waits.append(tau - by_cost[u][0][0])
        if durations:
            max_dur[v] = max(durations)
            max_wait[v] = max(waits)
    return max_dur, max_wait


def ft_mw_bounds(source: int, instance: Instance) -> Bounds:
    """Duration and waiting extremes from ``source`` in the full temporal graph.

    Raises ValidationError when the source is not a vertex, and Unreachable
    when some vertex admits no temporal path from the source even with every
    edge available at every time.
    """
    graph = instance.graph
    if not (0 <= source < graph.vertex_count):
        raise ValidationError(f"source {source} out of range")
    if _too_sparse(graph):
        raise Unreachable(f"source {source} cannot reach every vertex of "
                          f"{graph.vertex_count}: too few edges ({graph.edge_count})")
    table = _availability_table(instance)
    # Later starts reach a subset of what the start-1 run reaches (FIFO), so
    # that one run decides reachability before any sweep over 1..tau.
    forest = earliest_arrival(graph, table, source)
    others = [v for v in range(graph.vertex_count) if v != source]
    missing = [v for v in others if forest[0][v] is None]
    if missing:
        named = ", ".join(map(str, missing[:10])) + (", ..." if len(missing) > 10 else "")
        raise Unreachable(
            f"source {source} cannot reach {len(missing)} of {len(others)} vertices: {named}")
    ft, _ = _fastest(graph, table, source, forest)
    mw = _min_wait_run(graph, table, source, forest)
    max_dur, max_wait = _max_stats(graph, table, source)
    return Bounds(
        ft_min=max(ft[v] for v in others),
        ft_max=max(max_dur[v] for v in others),
        mw_min=max(mw[v][0] for v in others),
        mw_max=max(max_wait[v] for v in others),
    )
