"""Reference copies of searches the library replaced, kept verbatim so
differential tests can compare old and new.

* ``_ea_run`` (relaxing every edge through the candidate generator
  ``_min_candidates``) was replaced by ``core.earliest_arrival``;
* ``earliest_arrival``, the kernel whose ``first_time`` made the first step
  depart exactly then, by the ``core.earliest_arrival`` that only starts
  walks at a time.  Every reference below that probes first departures
  calls this copy, so differential tests compare against the old probes;
* ``_min_wait_run``, the recursive depth-first search without pruning, by
  the iterative ``distances._min_wait_run``;
* ``_min_wait_run_unseeded``, the iterative search whose bound stayed
  infinite until every vertex had a best, by the ``distances._min_wait_run``
  that starts from the waiting of the earliest-arrival forest;
* ``_max_stats_run``, a depth-first search over every simple static path, by
  the per-target Pareto searches of ``distances._max_stats``;
* ``_pareto_run``, a FIFO label-correcting search over per-vertex Pareto
  sets of ``_State`` objects, and ``st_mh_search``, the shortest-travel and
  minimum-hop branch of ``distances._search`` that read it, by the front
  search ``distances._fronts``;
* ``_path_from_parents``, which walked a parent forest into a path, by
  ``distances._parent_chain`` and ``distances._chain_path``;
* ``build_ld_tsot`` (with its ``_latest_departures``), which re-ran the
  winning probe of every vertex it admitted, by the ``tsot.build_ld_tsot``
  that re-runs each distinct latest departure once;
* the recursive generator ``nonseparating_paths`` by the iterative
  ``reductions.find_nonseparating_path``;
* ``brute_force``, which evaluated every labeling of the cross product, by
  the branch-and-bound ``solvers.brute_force``;
* ``_fastest`` with ``_probe_paths``, and ``_latest_departures_with_chains``
  (the copy of the latest-departure sweep that recorded witness chains,
  where ``distances._latest_departures`` now returns values and its
  witnesses re-run their start), which probe every candidate first
  departure, for one target by the one-target fastest search
  ``distances._fastest_to`` and the backward search
  ``core.latest_departure``;
* ``solve_tree``, which flooded the tree once per edge to find the sources
  on each side of it, by the ``solvers.solve_tree`` that reads each
  source's side from the parent endpoints of its tree;
* ``tree_mu_diagnostic``, which rooted the tree with its own search, parent
  map and per-vertex source counts, by the ``solvers.tree_mu_diagnostic``
  that strips every leaf that is not a source until none is left (in
  ``solvers._thin_source_edge``, the tree regime's test);
* ``connected_after_removal``, a union-find over the edges not removed, by
  the depth-first search ``core.connected_after_removal``, which also
  decides ``StaticGraph.is_tree``.  ``nonseparating_paths`` calls this copy;
* ``_reaches_all``, which the brute-force copy decides feasibility with, by
  ``core.reaches_all``, into which it was folded;
* ``_latest_departure_to`` with ``_free_run``, which bisected over start
  times for a one-target latest departure and for the floor L*, by the
  backward search ``core.latest_departure`` and ``distances._ld_floor``;
* ``_worst``, the worst pair value or None when some pair is unreached,
  which the brute-force copy reads infeasibility from, by
  ``Measure.worst`` over the pair values of a feasible schedule;
* ``_pair_values``, one search per source of a schedule, built here from
  the copies above, by ``distances._table_pairs``, whose searches also
  decide feasibility;
* ``CandidateTable``, which built a ``(departure, arrival)`` pair per label
  (and, on the full temporal graph, per override time) with the
  ``_time`` bisection key, and the searches that read those pairs,
  ``latest_departure`` and the front search ``_fronts`` with
  ``_cost_fronts``, by the ``core.CandidateTable`` that keeps each edge's
  departure times and computes an arrival where a search reads one.  Every
  search here takes this file's table, so no reference reads the library's.

It also keeps verbatim copies of the library helpers that the copies above
call: ``distances._first_departure_times``, ``_parent_chain``,
``_parent_paths`` with ``_chain_path``, and ``tsot._resolve`` (since folded
into ``distances._availability_table``, which also checks the
availability).  A change to those helpers does not reach the reference.

The recursive searches' depth grows with the path length and the depth-first
ones take exponential time, so only small instances may be given to them.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from collections import deque
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

from tmbcast.core import (
    Availability,
    Edge,
    FullAvailability,
    Instance,
    Labeling,
    MultiplicityTooSmall,
    NotATree,
    ReachFastInstance,
    SearchSpaceTooLarge,
    StaticGraph,
    TemporalPath,
    Time,
    TraversalSpec,
    Unreachable,
    Vertex,
    _NEVER,
)
from tmbcast.distances import Measure
from tmbcast.solvers import (
    _EXACT_MEASURES,
    OracleLimits,
    SolveResult,
    SolveStatus,
    _finish,
    _full_graph_trees,
    _require_measure,
    search_space_size,
)
from tmbcast.tsot import Tsot


class CandidateTable:
    """Per-edge departures of one (availability, traversal) pair, built once
    and shared by every search over the pair: every source, every
    latest-departure or fastest probe.

    ``departures[e]`` lists ``(t, t + tr(e, t))`` in ascending ``t`` over the
    edge's scheduled times (for a labeling) or its override times (for the
    full temporal graph, computed once per traversal).  On the full temporal
    graph (``tau`` not None) the edge also departs at its default weight at
    the first non-override time at or after the current arrival.  A labeling
    may also be given as per-edge tuples already sorted and duplicate-free,
    as the brute-force oracle enumerates them.  On a labeling, ``times[e]``
    holds the edge's scheduled times, and ``plain[e]`` is true when none of
    them is an override time, so every departure has the default weight.
    """

    __slots__ = ("departures", "tau", "defaults", "overrides", "times", "plain")

    def __init__(self, availability: Availability | Sequence[tuple[Time, ...]],
                 traversal: TraversalSpec):
        self.defaults = traversal.defaults
        self.overrides = traversal._override_index
        if isinstance(availability, FullAvailability):
            self.tau = availability.tau
            self.departures = tuple(
                tuple([(t, t + w) for t, w in items]) for items in traversal.overrides)
            return
        if isinstance(availability, Labeling):
            availability = availability.times_by_edge
        self.tau = None
        self.times = tuple(availability)
        self.departures = []
        self.plain = []
        for times, per_edge, default in zip(self.times, self.overrides, self.defaults):
            row = []
            plain = True
            for t in times:
                if t in per_edge:
                    row.append((t, t + per_edge[t]))
                    plain = False
                else:
                    row.append((t, t + default))
            self.departures.append(row)
            self.plain.append(plain)

    def candidates(self, e: Edge, lo: Time) -> Sequence[tuple[Time, Time]]:
        """(departure, arrival) pairs worth trying at or after ``lo`` when
        minimizing, in the order searches try them.

        A later departure at the default weight costs the same travel, waits
        longer and arrives later than an earlier one, so only the first
        default-weight departure at or after ``lo`` is kept: on a labeling
        the scheduled times minus later default-weight ones, on the full
        temporal graph the override times, then that default slot.  On a
        labeling's ``plain`` edge that is the first scheduled time at or
        after ``lo`` alone.
        """
        departures = self.departures[e]
        per_edge = self.overrides[e]
        if self.tau is None:
            i = bisect_left(self.times[e], lo)
            if self.plain[e]:
                return departures[i:i + 1]
            out = []
            saw_default = False
            for t, arrival in departures[i:]:
                if t not in per_edge:
                    if saw_default:
                        continue
                    saw_default = True
                out.append((t, arrival))
            return out
        if lo > self.tau:
            return []
        departures = departures[bisect_left(departures, lo, key=_time):]
        t = lo
        while t in per_edge:
            t += 1
        if t <= self.tau:
            return [*departures, (t, t + self.defaults[e])]
        return departures

    def available(self, e: Edge) -> Sequence[tuple[Time, Time]]:
        """Every available (departure, arrival) pair of the edge."""
        if self.tau is None:
            return self.departures[e]
        weight = self.overrides[e].get
        return [(t, t + weight(t, self.defaults[e])) for t in range(1, self.tau + 1)]


_time = itemgetter(0)  # bisection key of a (departure, arrival) pair


def _first_departure_times(
    graph: StaticGraph, table: CandidateTable, source: int
) -> Sequence[int]:
    """Distinct times at which some edge incident to ``source`` is available,
    ascending."""
    if table.tau is not None:
        return range(1, table.tau + 1) if graph.incident(source) else []
    out: set[int] = set()
    for e, _ in graph.incident(source):
        out.update(t for t, _ in table.departures[e])
    return sorted(out)


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


def _parent_paths(graph, parents, source, vertices) -> dict[int, TemporalPath]:
    """Paths of ``vertices`` in one kernel run's parent forest."""
    links = {source: None}
    return {v: _chain_path(graph, source, _parent_chain(parents, links, v)) for v in vertices}


def _chain_path(graph: StaticGraph, source: int, chain: tuple) -> TemporalPath:
    """The path of a linked step list ``(edge, time, previous)``."""
    steps = []
    while chain is not None:
        e, t, chain = chain
        steps.append((e, t))
    return TemporalPath.from_steps(graph, source, steps[::-1])


def _resolve(source_of_labels: Union[Instance, ReachFastInstance], availability):
    if availability is not None:
        return source_of_labels.graph, source_of_labels.traversal, availability
    if isinstance(source_of_labels, ReachFastInstance):
        return source_of_labels.graph, source_of_labels.traversal, source_of_labels.labels
    return (
        source_of_labels.graph,
        source_of_labels.traversal,
        source_of_labels.full_availability(),
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


def earliest_arrival(
    graph: StaticGraph,
    table: CandidateTable,
    source: Vertex,
    first_time: Time | None = None,
    start: Time = 1,
    stop: Vertex | None = None,
) -> tuple[list[Time | None], list[tuple[Vertex, Edge, Time] | None]]:
    """Earliest arrival at every vertex from ``source``: (arrivals, parents).

    Dijkstra over (arrival, vertex), relaxing edges in adjacency order.  The
    walk starts at time ``start`` (1 by default), so its first step departs
    then or later; with ``first_time`` its first step departs exactly then.
    No walk re-enters the source.  ``arrivals[v]`` is None for the source
    and for unreached vertices; ``parents[v]`` is ``(previous vertex, edge,
    departure)``, and the parent forest realizes the arrivals.  Within an
    edge the departure is the first of ``table.candidates`` with the least
    arrival; the scan stops once a departure time reaches the best arrival
    so far.  With ``stop`` the run ends once that vertex is settled: its
    arrival and its path in the forest are final, other entries may not be.
    """
    n = graph.vertex_count
    adjacency = graph.adjacency
    all_departures = table.departures
    tau = table.tau
    full = tau is not None
    overrides = table.overrides
    defaults = table.defaults
    arrival: list = [_NEVER] * n
    parents: list = [None] * n
    done = [False] * n
    heap: list[tuple[Time, Vertex]] = []
    if first_time is None:
        heap.append((start, source))
    else:
        done[source] = True
        if not full or 1 <= first_time <= tau:
            for e, w in adjacency[source]:
                departures = all_departures[e]
                i = bisect_left(departures, first_time, key=_time)
                if i < len(departures) and departures[i][0] == first_time:
                    arrival[w] = departures[i][1]
                elif full:
                    arrival[w] = first_time + defaults[e]
                else:
                    continue
                parents[w] = (source, e, first_time)
                heap.append((arrival[w], w))
        heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    unsettled = n if first_time is None else n - 1
    while heap:
        now, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        unsettled -= 1
        if not unsettled or u == stop:
            break  # nothing left to improve, or nothing more wanted
        if full and now > tau:
            continue
        for e, w in adjacency[u]:
            if done[w]:
                continue
            departures = all_departures[e]
            if departures and departures[0][0] < now:
                departures = departures[bisect_left(departures, now, key=_time):]
            best = _NEVER
            for t, a in departures:
                if t >= best:
                    break
                if a < best:
                    best = a
                    best_t = t
            if full:
                t = now
                per_edge = overrides[e]
                while t in per_edge:
                    t += 1
                if t <= tau and t + defaults[e] < best:
                    best = t + defaults[e]
                    best_t = t
            if best < arrival[w]:
                arrival[w] = best
                parents[w] = (u, e, best_t)
                push(heap, (best, w))
    return [None if a is _NEVER else a for a in arrival], parents


def _reaches_all(graph: StaticGraph, table: CandidateTable, source: Vertex) -> bool:
    arrivals, _ = earliest_arrival(graph, table, source)
    return arrivals.count(None) == 1


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


def _min_wait_run_unseeded(
    graph: StaticGraph, table: CandidateTable, source: int
) -> dict[int, tuple[int, tuple]]:
    """Least waiting per vertex over simple temporal paths from ``source``.

    Maps each reached vertex to ``(waiting, steps)`` for the first path found
    with that waiting, where ``steps`` is the linked list
    ``(edge, time, previous steps)`` ending in None (see ``_chain_path``).

    Depth-first over simple paths with an explicit stack of move iterators,
    so the depth is not bounded by the interpreter's recursion limit.
    Waiting never decreases along a path: once every vertex has a best, a
    prefix whose waiting reaches the largest of them cannot improve any
    vertex and is skipped.
    """
    adjacency = graph.adjacency
    best: dict[int, tuple[int, tuple]] = {}
    on_path = [False] * graph.vertex_count
    on_path[source] = True
    missing = graph.vertex_count - 1
    bound = float("inf")
    worst: list[tuple[int, int]] = []  # (-waiting, v); stale entries dropped lazily

    def moves(v: int, arrival: int, waited: int, first: bool):
        return iter([
            (w, e, t, reach, waited if first else waited + t - arrival)
            for e, w in adjacency[v]
            if not on_path[w]
            for t, reach in (
                table.available(e) if first else table.candidates(e, arrival)
            )
        ])

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


def _max_stats_run(graph: StaticGraph, avail: FullAvailability, trav: TraversalSpec, source: int):
    """Per-vertex maxima of duration and waiting over simple temporal paths.

    DFS over simple static paths carrying Pareto sets of partial schedules:
    (departure, arrival) for duration (both minimized: a smaller departure can
    only lengthen, a smaller arrival keeps every later departure open), and
    (waiting, arrival) for waiting (waiting maximized, arrival minimized).
    """
    max_dur: dict[int, int] = {}
    max_wait: dict[int, int] = {}
    on_path = [False] * graph.vertex_count
    on_path[source] = True

    def pareto_dur(states: list[tuple[int, int]]) -> list[tuple[int, int]]:
        states.sort()
        kept: list[tuple[int, int]] = []
        best_arr = None
        for td, arr in states:
            if best_arr is None or arr < best_arr:
                kept.append((td, arr))
                best_arr = arr
        return kept

    def pareto_wait(states: list[tuple[int, int]]) -> list[tuple[int, int]]:
        # maximize wait, minimize arrival
        states.sort(key=lambda s: (-s[0], s[1]))
        kept: list[tuple[int, int]] = []
        best_arr = None
        for wait, arr in states:
            if best_arr is None or arr < best_arr:
                kept.append((wait, arr))
                best_arr = arr
        return kept

    def visit(v: int, dur_states: list[tuple[int, int]], wait_states: list[tuple[int, int]]):
        for e, w_v in graph.incident(v):
            if on_path[w_v]:
                continue
            new_dur: list[tuple[int, int]] = []
            new_wait: list[tuple[int, int]] = []
            for td, arr in dur_states:
                for t in range(max(arr, 1), avail.tau + 1):
                    new_dur.append((td if td else t, t + trav.weight(e, t)))
            for wait, arr in wait_states:
                for t in range(max(arr, 1), avail.tau + 1):
                    gap = 0 if arr == 0 else t - arr
                    new_wait.append((wait + gap, t + trav.weight(e, t)))
            if not new_dur:
                continue
            d = max(arr - td for td, arr in new_dur)
            w = max(wait for wait, _ in new_wait)
            if d > max_dur.get(w_v, -1):
                max_dur[w_v] = d
            if w > max_wait.get(w_v, -1):
                max_wait[w_v] = w
            on_path[w_v] = True
            visit(w_v, pareto_dur(new_dur), pareto_wait(new_wait))
            on_path[w_v] = False

    # departure 0 / arrival 0 mark "no step taken yet"
    visit(source, [(0, 0)], [(0, 0)])
    return max_dur, max_wait


def _path_from_parents(graph: StaticGraph, parents: list, source: int, v: int) -> TemporalPath:
    steps = []
    while v != source:
        v, e, t = parents[v]
        steps.append((e, t))
    return TemporalPath.from_steps(graph, source, steps[::-1])


class _State:
    __slots__ = ("vertex", "arrival", "cost", "steps")

    def __init__(self, vertex, arrival, cost, steps):
        self.vertex = vertex
        self.arrival = arrival
        self.cost = cost
        self.steps = steps  # linked (edge, time, previous steps), see _chain_path


def _pareto_run(
    graph: StaticGraph,
    table: CandidateTable,
    source: int,
    hop_cost: bool,
):
    """Label-correcting search keeping per-vertex Pareto sets of (arrival, cost).

    A new state is kept only if no recorded state has both a weakly earlier
    arrival and a weakly lower cost; revisiting a vertex along a walk is
    therefore always rejected, so reconstructed witnesses are simple paths.
    """
    root = _State(source, 1, 0, None)
    frontier: dict[int, list[_State]] = {source: [root]}
    queue: deque[_State] = deque()
    queue.append(root)

    def try_add(state: _State) -> bool:
        states = frontier.setdefault(state.vertex, [])
        for s in states:
            if s.arrival <= state.arrival and s.cost <= state.cost:
                return False
        states[:] = [
            s for s in states if not (state.arrival <= s.arrival and state.cost <= s.cost)
        ]
        states.append(state)
        return True

    while queue:
        cur = queue.popleft()
        if cur not in frontier.get(cur.vertex, []):
            continue
        for e, w_v in graph.incident(cur.vertex):
            for t, arrival in table.candidates(e, cur.arrival):
                nxt = _State(
                    w_v,
                    arrival,
                    cur.cost + (1 if hop_cost else arrival - t),
                    (e, t, cur.steps),
                )
                if try_add(nxt):
                    queue.append(nxt)
    return frontier


def st_mh_search(graph: StaticGraph, table: CandidateTable, source: int, measure: Measure):
    """{vertex: (cost, steps)} of the shortest-travel or minimum-hop search,
    the branch of ``distances._search`` over ``_pareto_run``."""
    frontier = _pareto_run(
        graph, table, source, hop_cost=measure is Measure.MIN_HOP
    )
    best = {}
    for v, states in frontier.items():
        if v != source and states:
            winner = min(states, key=lambda s: (s.cost, s.arrival))
            best[v] = (winner.cost, winner.steps)
    return best


def _latest_departures(
    graph: StaticGraph, table: CandidateTable, source: int, targets: Iterable[int]
) -> list[int | None]:
    """Latest first departure from which each target is reachable: probes
    candidate first departures latest first until every target is reached.
    Entries of unreached vertices and of non-targets stay None."""
    value: list[int | None] = [None] * graph.vertex_count
    remaining = set(targets)
    for t0 in reversed(_first_departure_times(graph, table, source)):
        if not remaining:
            break
        arrivals, _ = earliest_arrival(graph, table, source, t0)
        found = [v for v in remaining if arrivals[v] is not None]
        for v in found:
            value[v] = t0
        remaining.difference_update(found)
    return value


def build_ld_tsot(
    root: int,
    instance: Union[Instance, ReachFastInstance],
    availability: Availability | None = None,
) -> Tsot:
    """Tree whose every latest departure is at least the graph's worst one."""
    graph, trav, avail = _resolve(instance, availability)
    table = CandidateTable(avail, trav)
    others = [v for v in range(graph.vertex_count) if v != root]
    latest = _latest_departures(graph, table, root, others)
    for v in others:
        if latest[v] is None:
            raise Unreachable(f"root {root} cannot reach vertex {v}")

    parent: dict[int, tuple[int, int, int] | None] = {root: None}

    def is_ancestor(candidate: int, below: int) -> bool:
        cur = below
        while cur != root:
            if cur == candidate:
                return True
            cur = parent[cur][2]
        return candidate == root

    # Vertices are admitted in nondecreasing latest-departure order, so
    # those sharing a witness probe come together and one re-run of that
    # probe serves them all.
    probe_time = None
    for u in sorted(others, key=lambda v: (latest[v], v)):
        if u in parent:
            continue
        if latest[u] != probe_time:
            probe_time = latest[u]
            _, probe = earliest_arrival(graph, table, root, probe_time)
        path = _path_from_parents(graph, probe, root, u)
        tree_edges = {entry[0] for entry in parent.values() if entry is not None}
        for (e, t), tail, head in zip(path.steps, path.vertices, path.vertices[1:]):
            if head not in parent:
                parent[head] = (e, t, tail)
                tree_edges.add(e)
                continue
            if head == root:
                continue
            f, tf, _ = parent[head]
            if t + trav.weight(e, t) >= tf + trav.weight(f, tf):
                continue
            # Swapping in an edge already in the tree, or hanging a vertex
            # below its own descendant, would break the tree; the witness
            # paths produced by the latest-departure search never ask for
            # either, but guard anyway.
            if e in tree_edges or is_ancestor(head, tail):
                continue
            tree_edges.discard(f)
            tree_edges.add(e)
            parent[head] = (e, t, tail)
    return Tsot(
        root,
        tuple(parent.get(v) for v in range(graph.vertex_count)),
        trav,
    )


def connected_after_removal(graph: StaticGraph, removed_edges: set[int]) -> bool:
    """Is the graph on all vertices connected once these edges are dropped?"""
    n = graph.vertex_count
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for e, (u, v) in enumerate(graph.edges):
        if e in removed_edges:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def nonseparating_paths(graph: StaticGraph, s1: int, s2: int):
    """Yield simple s1-s2 paths (vertices, edges) whose removal keeps the
    graph connected.

    Paths through internal vertices of degree two are skipped outright:
    removing both their edges isolates them.
    """
    degree = [len(graph.incident(v)) for v in range(graph.vertex_count)]

    def extend(vertices, edges):
        v = vertices[-1]
        if v == s2:
            if connected_after_removal(graph, set(edges)):
                yield (tuple(vertices), tuple(edges))
            return
        for e, w in graph.incident(v):
            if w in vertices:
                continue
            if w != s2 and degree[w] <= 2:
                continue
            vertices.append(w)
            edges.append(e)
            yield from extend(vertices, edges)
            vertices.pop()
            edges.pop()

    yield from extend([s1], [])


def _pair_values(
    instance: Instance, labeling: Labeling, measure: Measure
) -> dict[tuple[int, int], int | None]:
    """measure(s, v) for every source s and every other vertex v (None when
    unreachable), sources ascending, then vertices, from this file's own
    searches: its kernel, latest-departure probes, fastest probes,
    recursive minimum-waiting search and Pareto search."""
    graph = instance.graph
    table = CandidateTable(labeling, instance.traversal)
    out: dict[tuple[int, int], int | None] = {}
    for s in sorted(instance.sources):
        others = [v for v in range(graph.vertex_count) if v != s]
        if measure is Measure.EARLIEST_ARRIVAL:
            values = earliest_arrival(graph, table, s)[0]
        elif measure is Measure.LATEST_DEPARTURE:
            values = _latest_departures(graph, table, s, others)
        elif measure is Measure.FASTEST:
            values = _fastest(graph, table, s)[0]
        else:
            if measure is Measure.MIN_WAIT:
                best = _min_wait_run(graph, labeling, instance.traversal, s)
            else:
                best = st_mh_search(graph, table, s, measure)
            values = [best[v][0] if v in best else None for v in range(graph.vertex_count)]
        out.update(((s, v), values[v]) for v in others)
    return out


def _worst(measure: Measure, values: Iterable[int | None]) -> int | None:
    """The measure's worst case over pair values; None if any is None."""
    values = list(values)
    if None in values:
        return None
    return measure.worst(values)


def brute_force(
    instance: Instance,
    measure: Measure,
    limits: OracleLimits | None = None,
) -> SolveResult:
    """Exhaustive exact solve over maximal label sets.

    Enumerates, per edge, all subsets of the horizon of size exactly
    ``min(mu, tau)`` in lexicographic order, keeps feasible labelings, and
    returns the objective-optimal one (the lexicographically smallest among
    ties).  Raises SearchSpaceTooLarge before enumerating anything when the
    cross product exceeds the limits.
    """
    limits = limits or OracleLimits()
    cardinality = search_space_size(instance)
    if (
        cardinality > limits.max_labelings
        or instance.graph.edge_count > limits.max_edges
        or instance.tau > limits.max_tau
    ):
        raise SearchSpaceTooLarge(cardinality, limits.max_labelings)

    graph = instance.graph
    trav = instance.traversal
    sources = sorted(instance.sources)
    horizon = range(1, instance.tau + 1)
    per_edge = [
        [tuple(c) for c in itertools.combinations(horizon, min(mu, instance.tau))]
        for mu in instance.multiplicity
    ]

    best_value: int | None = None
    best_table: tuple | None = None
    best_pairs: dict | None = None
    for table in itertools.product(*per_edge):
        candidates = CandidateTable(table, trav)
        if not all(_reaches_all(graph, candidates, s) for s in sources):
            continue
        pairs = _pair_values(instance, Labeling(table), measure)
        value = _worst(measure, pairs.values())
        if value is None:
            continue
        if best_value is None or measure.better(value, best_value):
            best_value = value
            best_table = table
            best_pairs = pairs

    if best_value is None:
        return SolveResult(
            labeling=Labeling.empty(graph.edge_count),
            objective=None,
            per_source_distances={},
            status=SolveStatus.INFEASIBLE,
            regime="oracle",
        )
    return _finish(instance, Labeling(best_table), measure, regime="oracle", pairs=best_pairs)


def _latest_departures_with_chains(
    graph: StaticGraph, table: CandidateTable, source: int, targets: Iterable[int]
) -> tuple[list[int | None], list[tuple | None]]:
    """(values, chains): the latest first departure from which each target is
    reachable, and its witness from that probe as a linked step list (see
    ``_chain_path``).

    Probes candidate first departures latest first until every target is
    reached; the chains built in one probe share their prefixes, and no
    probe's parents outlive it.  Entries of unreached vertices and of
    non-targets stay None.
    """
    value: list[int | None] = [None] * graph.vertex_count
    chains: list[tuple | None] = [None] * graph.vertex_count
    remaining = set(targets)
    for t0 in reversed(_first_departure_times(graph, table, source)):
        if not remaining:
            break
        arrivals, parents = earliest_arrival(graph, table, source, t0)
        found = [v for v in remaining if arrivals[v] is not None]
        links = {source: None}
        for v in found:
            value[v] = t0
            chains[v] = _parent_chain(parents, links, v)
        remaining.difference_update(found)
    return value, chains


def _fastest(graph: StaticGraph, table: CandidateTable, source: int):
    """(durations, first departures): least arrival minus departure per
    vertex over every candidate first departure, and the earliest first
    departure attaining it."""
    duration: list[int | None] = [None] * graph.vertex_count
    start: list[int | None] = [None] * graph.vertex_count
    for t0 in _first_departure_times(graph, table, source):
        arrivals, _ = earliest_arrival(graph, table, source, t0)
        for v, arrival in enumerate(arrivals):
            if arrival is not None and (duration[v] is None or arrival - t0 < duration[v]):
                duration[v] = arrival - t0
                start[v] = t0
    return duration, start


def _probe_paths(graph, table, source, start, vertices) -> dict[int, TemporalPath]:
    """Witness paths of ``vertices`` from re-runs of their probes, one run
    per distinct first departure ``start[v]``."""
    by_start: dict[int, list[int]] = {}
    for v in vertices:
        by_start.setdefault(start[v], []).append(v)
    paths: dict[int, TemporalPath] = {}
    for t0, group in by_start.items():
        _, parents = earliest_arrival(graph, table, source, t0)
        paths.update(_parent_paths(graph, parents, source, group))
    return paths


def solve_tree(instance: Instance, measure: Measure) -> SolveResult:
    """Optimal multi-source schedule on trees with multiplicities >= 2.

    Per-source optimal schedules are merged per edge: sources on each side
    of the edge share one slot, and the slot keeps their latest label.
    """
    _require_measure(measure, _EXACT_MEASURES, "solve_tree")
    graph = instance.graph
    if not graph.is_tree():
        raise NotATree("solve_tree needs the underlying graph to be a tree")
    for e, mu in enumerate(instance.multiplicity):
        if mu < 2:
            raise MultiplicityTooSmall(f"edge {e} has multiplicity {mu} < 2")
    sources = sorted(instance.sources)
    per_source_label = {
        s: tree.to_labeling(graph.edge_count)
        for s, tree in zip(sources, _full_graph_trees(instance, measure))
    }

    # A source traverses edge {u, v} in direction u -> v exactly when it
    # lies on the u side of the split T - e.  Comparing the source's
    # distances to u and to v classifies the same way, except that
    # zero-weight edges can tie the two distances and mis-bucket the
    # source, so the split itself is used.
    def side_of(e: int) -> set[int]:
        u, _v = graph.endpoints(e)
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for f, y in graph.incident(x):
                if f == e or y in seen:
                    continue
                seen.add(y)
                stack.append(y)
        return seen

    table: list[tuple[int, ...]] = []
    for e in range(graph.edge_count):
        u_side = side_of(e)
        t1 = 0
        t2 = 0
        for s in sources:
            label = per_source_label[s].times(e)[0]
            if s in u_side:
                t1 = max(t1, label)
            else:
                t2 = max(t2, label)
        table.append(tuple(sorted({t for t in (t1, t2) if t > 0})))
    labeling = Labeling(tuple(table))
    return _finish(instance, labeling, measure, regime="tree",
                   pairs=_pair_values(instance, labeling, measure))


def tree_mu_diagnostic(instance: Instance) -> bool:
    """Weaker tree condition: multiplicity >= 2 on every source-to-source path.

    This copy's ``solve_tree`` still insists on >= 2 everywhere.
    """
    graph = instance.graph
    if not graph.is_tree():
        raise NotATree("diagnostic applies to trees only")
    # Root the tree at 0; an edge lies on a source-to-source path iff both
    # sides of the split contain a source.
    parent: dict[int, tuple[int, int]] = {0: (-1, -1)}
    order = [0]
    stack = [0]
    while stack:
        v = stack.pop()
        for e, w in graph.incident(v):
            if w not in parent:
                parent[w] = (v, e)
                order.append(w)
                stack.append(w)
    below = [0] * graph.vertex_count
    for v in reversed(order):
        if v in instance.sources:
            below[v] += 1
        p, _ = parent[v]
        if p >= 0:
            below[p] += below[v]
    total = len(instance.sources)
    for v in order:
        p, e = parent[v]
        if p < 0:
            continue
        if below[v] >= 1 and total - below[v] >= 1:
            if instance.multiplicity[e] < 2:
                return False
    return True


def _free_run(graph, table, source: int, target: int | None, start: int):
    """(arrival, first departure): the earliest arrival at ``target`` over
    the walks from ``source`` whose first step departs at ``start`` or
    later, F(start), and the first departure of the run's path there;
    (None, None) when there is no such walk.  With ``target`` None the run
    covers every vertex: the latest of their arrivals and the least first
    departure of their paths, (None, None) when some vertex is unreached.

    F never decreases as ``start`` grows, and the path's first departure
    ``t'`` attains it: ``t' >= start`` and F(t') = F(start), so the run
    from ``t'`` arrives at F(start) along a path that departs at ``t'``.
    With ``target`` None, every path departs at the least ``t'`` or later,
    so the run from there still reaches every vertex.
    """
    arrivals, parents = earliest_arrival(graph, table, source, start=start, stop=target)
    if target is None:
        if arrivals.count(None) > 1:  # the source's own entry is None
            return None, None
        return (max(a for a in arrivals if a is not None),
                min(p[2] for p in parents if p is not None and p[0] == source))
    if arrivals[target] is None:
        return None, None
    v = target
    while parents[v][0] != source:
        v = parents[v][0]
    return arrivals[target], parents[v][2]


def _latest_departure_to(graph, table, source: int, target: int | None = None) -> int | None:
    """ld(source, target): the latest candidate first departure whose run
    reaches ``target``, or None.  With ``target`` None, the latest whose
    run reaches every vertex: the floor L* = min_v ld(source, v), None when
    even the first run misses a vertex.

    That is the latest candidate ``t0`` with F(t0) finite (see
    ``_free_run``), found by bisection: a finite run's first departure is a
    candidate that reaches the target, so it becomes the lower end.  The
    first run decides reachability, and each later one halves the range,
    so it takes at most 1 + ceil(log2 tau) runs on the full graph.
    """
    times = _first_departure_times(graph, table, source)
    if not times:
        return None
    arrival, first = _free_run(graph, table, source, target, times[0])
    if arrival is None:
        return None
    lo, hi = bisect_left(times, first), len(times) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        arrival, first = _free_run(graph, table, source, target, times[mid])
        if arrival is None:
            hi = mid - 1
        else:
            lo = bisect_left(times, first)
    return times[lo]


def latest_departure(
    graph: StaticGraph,
    table: CandidateTable,
    source: Vertex,
    target: Vertex,
) -> Time | None:
    """ld(source, target): the latest first departure of a walk from
    ``source`` to ``target``, or None when there is none.

    Dijkstra backward from ``target`` over (latest time, vertex), latest
    first (Wu et al., "Path Problems in Temporal Graphs", 2014).  A vertex's
    latest time is the latest departure from it on a walk that still
    reaches ``target``; the target's is unbounded.  Relaxing edge ``e`` from
    a settled vertex with latest time ``Y`` gives the latest available
    ``t`` with ``t + tr(e, t) <= Y``: a scan down the edge's departures at
    or before ``Y``, and on the full temporal graph also the latest
    non-override time up to ``min(tau, Y - default)``.  The run ends when
    the source pops, its latest time the answer; the source is never
    expanded, so no walk passes through it.  The walks are those of
    ``earliest_arrival``, so the answer is the latest start whose forward
    run reaches ``target``.
    """
    adjacency = graph.adjacency
    all_departures = table.departures
    tau = table.tau
    full = tau is not None
    overrides = table.overrides
    defaults = table.defaults
    latest = [0] * graph.vertex_count  # every departure is at 1 or later
    done = [False] * graph.vertex_count
    heap: list[tuple[float, Vertex]] = [(-_NEVER, target)]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        key, y = pop(heap)
        if done[y]:
            continue
        if y == source:
            return -key
        done[y] = True
        deadline = -key
        for e, x in adjacency[y]:
            if done[x]:
                continue
            best = 0
            if full:
                t = min(tau, deadline - defaults[e])
                per_edge = overrides[e]
                while t in per_edge:
                    t -= 1
                if t > 0:
                    best = t
            departures = all_departures[e]
            i = len(departures)
            if i and departures[-1][0] > deadline:
                i = bisect_right(departures, deadline, key=_time)
            while i:
                i -= 1
                t, a = departures[i]
                if t <= best:
                    break
                if a <= deadline:
                    best = t
                    break
            if best > latest[x]:
                latest[x] = best
                push(heap, (-best, x))
    return None


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
            if best[y] <= arrival:
                continue  # no step from here can arrive earlier
            for t, reach in table.candidates(e, arrival):
                if reach < best[y] and reach <= cap:
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
