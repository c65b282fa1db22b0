"""Static and temporal graph model: instances, labelings, paths, feasibility.

The model is deliberately integer-only.  A problem instance couples an
undirected simple graph with a traversal function ``tr(e, t)`` (how long edge
``e`` takes when entered at time ``t``), a per-edge multiplicity bound on how
many time labels may be scheduled, a set of source vertices, and a time
horizon ``tau``.  A labeling assigns each edge a (possibly empty) set of
times in ``1..tau``; a temporal path traverses distinct edges of a simple
static path at scheduled times ``t_1, ..., t_k`` with
``t_j + tr(e_j, t_j) <= t_{j+1}``.

All types are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from operator import ge, itemgetter
from typing import Callable, Container, Iterable, Mapping, Sequence, Union


class TmbError(Exception):
    """Base class for all library errors."""


class ValidationError(TmbError):
    """A structural invariant of a model object is violated."""


class ParseError(TmbError):
    """A document or DIMACS input could not be parsed."""


class InvalidPath(TmbError):
    """A temporal path violates the time-respecting condition."""


class MultiplicityViolation(TmbError):
    """A labeling schedules more labels on an edge than its multiplicity."""


class SameVertex(TmbError):
    """Distances are defined between distinct vertices only."""


class Unreachable(TmbError):
    """A required vertex cannot be temporally reached."""


class WrongSourceCount(TmbError):
    """A solver requires a specific number of sources."""


class MultiplicityTooSmall(TmbError):
    """A solver requires larger per-edge multiplicities."""


class NotATree(TmbError):
    """A solver requires the underlying graph to be a tree."""


# The brute-force oracle counts its search space exactly up to this size and
# names a larger one in this bounded form.
NAMED_SPACE = 10**18


class SearchSpaceTooLarge(TmbError):
    """The brute-force search space exceeds the configured limit of its
    labelings, edges or tau (``cap``), whose value is ``size``.  The number
    of labelings, ``cardinality``, is None when it is past ``NAMED_SPACE``."""

    def __init__(self, cardinality: int | None, limit: int, cap: str = "labelings",
                 size: int | None = None):
        over = "" if cap == "labelings" else f" and {cap} {size}"
        count = f"more than {NAMED_SPACE:.0e}" if cardinality is None else cardinality
        super().__init__(
            f"brute-force search space has {count} labelings{over} "
            f"({cap} limit {limit})"
        )
        self.cardinality = cardinality
        self.limit = limit


class InvalidParams(TmbError):
    """Gadget parameters outside their valid range."""


class UnsatisfiedClause(TmbError):
    """An assignment offered as a witness does not satisfy the formula."""


class NotThreeSat(TmbError):
    """A generator requires clauses of exactly three literals."""


class ContradictoryClause(TmbError):
    """A clause contains both a variable and its negation."""


Edge = int
Vertex = int
Time = int


# Model constructors validate with one plain loop or per-row function per
# rule, and the first bad item raises; a loop over sorted rows reads each
# row's last item and looks for the first bad one only when that fails.
# Label sets, overrides and multiplicities, most of a document, first meet a
# bulk accept test over all their exact ints at once, and the loops run only
# when it fails: without the first two tests the benchmark's ``check``
# workload loses about 18% ops/s.  The override test serves two kinds of
# traffic: ``TraversalSpec``'s rows serve direct construction (the benchmark
# corpus's set-up, generators, tests), and the entries path serves the
# loader.  Values the loader has already converted or range-tested (entry
# columns, defaults, label ints) are not tested again; label rows already
# strictly increasing, as a canonical document holds them, are kept instead
# of sorted.  For the other rules a bulk pre-test saved nothing that could
# be measured end to end.


def _within(values: Sequence, lo, hi=None) -> bool:
    """True when every value lies in ``lo..hi`` (``hi`` None: unbounded), or
    there are none; False also when the values do not compare."""
    if not values:
        return True
    try:
        return lo <= min(values) and (hi is None or max(values) <= hi)
    except TypeError:
        return False


@dataclass(frozen=True)
class StaticGraph:
    """Finite, loopless, simple undirected graph with dense integer edge ids.

    ``edges[i]`` is the unordered endpoint pair of edge ``i``, stored with the
    smaller endpoint first.  Edge ids are stable: they index every per-edge
    array elsewhere in the library (traversal defaults, multiplicities,
    label sets).
    """

    vertex_count: int
    edges: tuple[tuple[Vertex, Vertex], ...]

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise ValidationError("graph needs at least one vertex")
        keys = []
        seen = set()
        for e, pair in enumerate(self.edges):
            u, v = pair
            if u == v:
                raise ValidationError(f"edge {e} is a self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge {e} endpoint out of range: {pair}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
            keys.append(key)
        object.__setattr__(self, "edges", tuple(keys))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[Edge, Vertex], ...], ...]:
        """Per-vertex tuple of (incident edge id, other endpoint)."""
        adj: list[list[tuple[Edge, Vertex]]] = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append((e, v))
            adj[v].append((e, u))
        return tuple(tuple(entries) for entries in adj)

    def endpoints(self, e: Edge) -> tuple[Vertex, Vertex]:
        if not 0 <= e < len(self.edges):  # a negative id would wrap
            raise ValidationError(f"no edge {e}")
        return self.edges[e]

    def other_endpoint(self, e: Edge, v: Vertex) -> Vertex:
        u, w = self.endpoints(e)
        if v == u:
            return w
        if v == w:
            return u
        raise ValidationError(f"vertex {v} is not an endpoint of edge {e}")

    def incident(self, v: Vertex) -> tuple[tuple[Edge, Vertex], ...]:
        if not 0 <= v < self.vertex_count:  # a negative id would wrap
            raise ValidationError(f"no vertex {v}")
        return self.adjacency[v]

    def edge_id(self, u: Vertex, v: Vertex) -> Edge:
        """Edge id of {u, v}; raises ValidationError if absent."""
        key = (min(u, v), max(u, v))
        if 0 <= u < self.vertex_count:
            for e, other in self.adjacency[u]:
                if other == v:
                    return e
        raise ValidationError(f"no edge {key}")

    def is_tree(self) -> bool:
        """True iff the graph is connected and has one edge fewer than
        vertices."""
        return self.edge_count == self.vertex_count - 1 and connected_after_removal(self, ())


def connected_after_removal(graph: StaticGraph, removed_edges: Container[Edge]) -> bool:
    """Is the graph on all vertices connected once the edges in
    ``removed_edges`` (any container of edge ids) are dropped?  A depth-first
    search from vertex 0 that never crosses a removed edge."""
    seen = [False] * graph.vertex_count
    seen[0] = True
    stack = [0]
    adjacency = graph.adjacency
    while stack:
        for e, w in adjacency[stack.pop()]:
            if not seen[w] and e not in removed_edges:
                seen[w] = True
                stack.append(w)
    return all(seen)


def _override_row(e, default, items):
    """Edge ``e``'s override time -> weight dict, in time order; raises on
    the row's first fault."""
    if default < 0:
        raise ValidationError(f"edge {e} default weight is negative")
    pairs = tuple(sorted((int(t), int(w)) for t, w in items))
    index = dict(pairs)
    if len(index) != len(pairs):
        raise ValidationError(f"edge {e} has duplicate override times")
    for t, w in pairs:
        if t < 1:
            raise ValidationError(f"edge {e} override at time {t} < 1")
        if w < 0:
            raise ValidationError(f"edge {e} override weight negative at {t}")
    return index


@dataclass(frozen=True)
class TraversalSpec:
    """Sparse encoding of the traversal function ``tr: E x [tau] -> N0``.

    Each edge has a default weight that applies at every time, except at the
    explicitly listed override times.  ``overrides[e]`` is a sorted tuple of
    ``(time, weight)`` pairs.  Keeping the table sparse lets instances carry
    horizons (and sentinel default weights) far larger than the number of
    meaningful departure times.

    Overrides come as the constructor's rows, one per edge, where a time
    listed twice is a fault, or as ``from_entries``' columns of a document's
    ``[edge, time, weight]`` entries, where the last for an (edge, time) wins.
    The table is held once, as ``_override_index``: per edge, a time ->
    weight dict, which is what searches read.  On either path the sorted
    ``overrides`` rows, and the full temporal graph's sorted
    ``_override_times``, are derived from it on first read, so checking a
    schedule never sorts them; ``_latest_override`` is the latest override
    time (0 when there is none).
    """

    defaults: tuple[int, ...]
    overrides: tuple[tuple[tuple[Time, int], ...], ...]

    def __post_init__(self):
        if len(self.defaults) != len(self.overrides):
            raise ValidationError("defaults and overrides must cover the same edges")
        self._build(self.defaults, self.overrides)

    @classmethod
    def from_entries(cls, edge_count: int, defaults: Sequence[int], edges: Sequence[Edge] = (),
                     times: Sequence[Time] = (), weights: Sequence[int] = ()) -> "TraversalSpec":
        """The table over ``edge_count`` edges of the override entries
        ``[edges[i], times[i], weights[i]]``, the last for an (edge, time)
        winning; values go through int().  Faults raise as the constructor
        does on the winning entries' rows, an unknown edge as rows too many."""
        if not len(edges) == len(times) == len(weights):
            raise ValidationError("override columns differ in length")
        columns = (edges, times, weights)
        if not set(map(type, chain(*columns))) <= {int}:
            columns = tuple(tuple(map(int, column)) for column in columns)
        if not _within(columns[0], 0, edge_count - 1):
            raise ValidationError("defaults and overrides must cover the same edges")
        spec = cls._from_int_columns(edge_count, defaults, columns)
        # The checks saw the defaults as given, as the constructor's do.
        object.__setattr__(spec, "defaults", tuple(map(int, defaults)))
        return spec

    @classmethod
    def _from_int_columns(cls, edge_count: int, defaults: Sequence[int],
                          columns: tuple) -> "TraversalSpec":
        """``from_entries`` past its int and edge tests: the equal-length
        ``(edges, times, weights)`` columns hold exact ints, every edge in
        ``0..edge_count - 1``.  The defaults are stored as given, a tuple of
        exact ints from the loader."""
        if len(defaults) != edge_count:
            raise ValidationError("defaults and overrides must cover the same edges")
        return object.__new__(cls)._build(defaults, None, columns)

    def _build(self, defaults, rows, columns=None) -> "TraversalSpec":
        """Set the table from ``rows`` or exact-int entry ``columns``: each
        edge's time -> weight dict is built once, past the bulk accept test
        or else by ``_override_row``.  Either way the sorted ``overrides``
        rows are left to their first read."""
        index = None
        if columns is not None:
            edges, times, weights = columns
            index = tuple({} for _ in defaults)
            for e, t, w in zip(edges, times, weights):
                index[e][t] = w
            rows = map(dict.items, index)
        elif set(map(type, rows)) <= {tuple, list}:  # an iterator row is read once
            try:
                index = tuple(map(dict, rows))
            except (TypeError, ValueError):  # some item is not a pair
                pass
            else:
                times = tuple(chain.from_iterable(index))
                weights = tuple(chain.from_iterable(map(dict.values, index)))
                if not (set(map(type, times)) | set(map(type, weights)) <= {int}
                        and len(times) == sum(map(len, rows))):  # no time twice
                    index = None
        if not (index is not None and _within(defaults, 0) and _within(times, 1)
                and _within(weights, 0)):
            index = tuple(map(_override_row, count(), defaults, rows))
            times = tuple(chain.from_iterable(index))
        object.__setattr__(self, "_override_index", index)  # per edge, time -> weight
        object.__setattr__(self, "_latest_override", max(times, default=0))
        if columns is None:
            del self.__dict__["overrides"]  # the rows as given: derived again on first read
            defaults = tuple(map(int, defaults))  # the loader's are exact ints already
        object.__setattr__(self, "defaults", defaults)
        return self

    def _sorted_rows(self) -> tuple[tuple[tuple[Time, int], ...], ...]:
        """The index as ``overrides`` rows: per edge, its pairs in time order."""
        return tuple([tuple(sorted(row.items())) if row else () for row in self._override_index])

    @classmethod
    def uniform(cls, edge_count: int, weight: int) -> "TraversalSpec":
        return cls((weight,) * edge_count, ((),) * edge_count)

    @classmethod
    def from_maps(
        cls,
        defaults: Sequence[int],
        overrides: Mapping[Edge, Mapping[Time, int]] | None = None,
    ) -> "TraversalSpec":
        entries = ((e, t, w) for e, row in (overrides or {}).items() for t, w in row.items())
        return cls.from_entries(len(defaults), defaults, *zip(*entries))

    @cached_property
    def _override_times(self) -> tuple[tuple[Time, ...], ...]:
        """Per edge, its override times in ascending order: the full
        temporal graph's departures besides each edge's default slot, which
        searches compute from the override index."""
        return tuple([tuple(sorted(row)) if row else () for row in self._override_index])

    def weight(self, e: Edge, t: Time) -> int:
        """Evaluated traversal weight ``tr(e, t)``."""
        if not 0 <= e < len(self.defaults):  # a negative id would wrap
            raise ValidationError(f"no edge {e}")
        return self._override_index[e].get(t, self.defaults[e])


# A table derives its ``overrides`` rows from the index on first read and
# keeps them.  The descriptor is set once the dataclass has made the
# field, as a class attribute in the body would be taken for its default.
TraversalSpec.overrides = cached_property(TraversalSpec._sorted_rows)
TraversalSpec.overrides.__set_name__(TraversalSpec, "overrides")


def _check_times(label_sets: Sequence[Sequence[Time]], tau: int) -> None:
    # The label sets of a ``Labeling`` are sorted and hold no time below 1.
    for e, times in enumerate(label_sets):
        if times and times[-1] > tau:
            t = next(t for t in times if t > tau)
            raise ValidationError(f"label on edge {e}: time {t} outside 1..{tau}")


def _label_rows(rows, exact=False):
    """Every row through ``_label_row``, after a bulk accept test: when every
    row is a sized collection of exact ints (known with ``exact``) of at
    least 1, tuple or list rows that already increase strictly are kept as
    they are, and other rows are sorted and must hold no time twice."""
    try:
        counts = tuple(map(len, rows))
        flat = tuple(chain.from_iterable(rows))
    except TypeError:
        counts = None
    if counts is not None and (exact or set(map(type, flat)) <= {int}) and _within(flat, 1):
        if set(map(type, rows)) <= {tuple, list}:
            # Every row increases strictly when each adjacent pair of
            # ``flat`` that does not is a seam between two rows.
            filled = tuple(filter(None, rows))
            seams = map(ge, map(itemgetter(-1), filled), map(itemgetter(0), filled[1:]))
            if sum(map(ge, flat, flat[1:])) == sum(seams):
                return tuple(map(tuple, rows))
        norm = tuple(map(tuple, map(sorted, rows)))
        if tuple(map(len, map(set, norm))) == counts:
            return norm
    return tuple(map(_label_row, count(), rows))


def _label_row(e, times):
    """Edge ``e``'s label set as a sorted tuple; raises on the row's first
    fault."""
    ts = tuple(sorted(set(int(t) for t in times)))
    if len(ts) != len(tuple(times)):
        raise ValidationError(f"edge {e} labels not sorted/duplicate-free")
    if any(t < 1 for t in ts):
        raise ValidationError(f"edge {e} has a label < 1")
    return ts


@dataclass(frozen=True)
class Labeling:
    """Per-edge sorted, duplicate-free sets of scheduled times.

    Empty sets are allowed: an edge may be left unscheduled.
    """

    times_by_edge: tuple[tuple[Time, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "times_by_edge", _label_rows(tuple(self.times_by_edge)))

    @classmethod
    def _from_int_rows(cls, rows: Sequence[Sequence[Time]]) -> "Labeling":
        """``Labeling(rows)`` for rows that hold exact ints, past the int test."""
        self = object.__new__(cls)
        object.__setattr__(self, "times_by_edge", _label_rows(rows, exact=True))
        return self

    @classmethod
    def empty(cls, edge_count: int) -> "Labeling":
        return cls(((),) * edge_count)

    @classmethod
    def from_dict(cls, edge_count: int, by_edge: Mapping[Edge, Iterable[Time]]) -> "Labeling":
        table: list[tuple[Time, ...]] = [() for _ in range(edge_count)]
        for e, times in by_edge.items():
            if not 0 <= e < edge_count:  # a negative id would wrap
                raise ValidationError(f"edge {e} outside 0..{edge_count - 1}")
            table[e] = tuple(sorted(set(times)))
        return cls(tuple(table))

    @property
    def edge_count(self) -> int:
        return len(self.times_by_edge)

    def times(self, e: Edge) -> tuple[Time, ...]:
        if not 0 <= e < len(self.times_by_edge):  # a negative id would wrap
            raise ValidationError(f"no edge {e}")
        return self.times_by_edge[e]

    def available(self, e: Edge, t: Time) -> bool:
        times = self.times(e)
        i = bisect_left(times, t)
        return i < len(times) and times[i] == t

    def label_count(self) -> int:
        return sum(len(ts) for ts in self.times_by_edge)

    def respects_multiplicity(self, instance: "Instance") -> bool:
        return self.edge_count == instance.graph.edge_count and all(
            len(times) <= mu for times, mu in zip(self.times_by_edge, instance.multiplicity)
        )

    def union(self, other: "Labeling") -> "Labeling":
        if self.edge_count != other.edge_count:
            raise ValidationError("labelings cover different edge sets")
        return Labeling(
            tuple(
                tuple(sorted(set(a) | set(b)))
                for a, b in zip(self.times_by_edge, other.times_by_edge)
            )
        )


@dataclass(frozen=True)
class FullAvailability:
    """Marker for the full temporal graph: every edge available at 1..tau.

    Distance operations interpret this without ever materializing the
    ``tau * m`` label table.
    """

    tau: int

    def available(self, e: Edge, t: Time) -> bool:
        return 1 <= t <= self.tau

    def times(self, e: Edge) -> range:
        return range(1, self.tau + 1)


Availability = Union[Labeling, FullAvailability]


def _check_multiplicity(multiplicity: tuple[int, ...], tau: int) -> None:
    if _within(multiplicity, 1, tau):
        return
    for e, mu in enumerate(multiplicity):
        if not (1 <= mu <= tau):
            raise ValidationError(f"multiplicity of edge {e} outside 1..tau")


def _check_model(model: Instance | ReachFastInstance, rows: Sequence, what: str,
                 check_rows: Callable[[Sequence, int], None]) -> None:
    """The checks both formulations share, in the order both report them:
    the horizon, at least two vertices, the sources, ``rows`` (the
    multiplicities or the label sets, named ``what``) covering every edge
    and passing ``check_rows(rows, tau)``, then the traversal, whose
    override times lie within the horizon."""
    graph, tau = model.graph, model.tau
    if tau < 1:
        raise ValidationError("tau must be positive")
    if graph.vertex_count < 2:
        # Objectives range over (source, other vertex) pairs.
        raise ValidationError("instance needs at least two vertices")
    if not model.sources:
        raise ValidationError("instance needs at least one source")
    for s in model.sources:
        if not (0 <= s < graph.vertex_count):
            raise ValidationError(f"source {s} out of range")
    if len(rows) != graph.edge_count:
        raise ValidationError(f"{what} must cover every edge")
    check_rows(rows, tau)
    if len(model.traversal.defaults) != graph.edge_count:
        raise ValidationError("traversal must cover every edge")
    if model.traversal._latest_override > tau:
        for e, row in enumerate(model.traversal._override_index):
            if late := [t for t in row if t > tau]:
                raise ValidationError(f"override time {min(late)} on edge {e} beyond tau")


@dataclass(frozen=True)
class Instance:
    """A broadcast-scheduling instance: graph, sources, traversal, bounds.

    ``multiplicity[e]`` bounds how many labels a feasible labeling may put on
    edge ``e``;  ``tau`` is the scheduling horizon (labels live in 1..tau).
    """

    graph: StaticGraph
    sources: frozenset[Vertex]
    traversal: TraversalSpec
    multiplicity: tuple[int, ...]
    tau: int

    def __post_init__(self):
        object.__setattr__(self, "sources", frozenset(self.sources))
        object.__setattr__(self, "multiplicity", tuple(map(int, self.multiplicity)))
        _check_model(self, self.multiplicity, "multiplicity", _check_multiplicity)

    def full_availability(self) -> FullAvailability:
        return FullAvailability(self.tau)


@dataclass(frozen=True)
class ReachFastInstance:
    """The shifting formulation: a concrete labeling instead of multiplicities."""

    graph: StaticGraph
    sources: frozenset[Vertex]
    traversal: TraversalSpec
    labels: Labeling
    tau: int

    def __post_init__(self):
        object.__setattr__(self, "sources", frozenset(self.sources))
        _check_model(self, self.labels.times_by_edge, "labels", _check_times)


@dataclass(frozen=True)
class TemporalPath:
    """A time-respecting traversal of a simple static path.

    ``vertices`` is the full vertex sequence (length ``len(steps) + 1``), so
    the traversal direction of each undirected edge is unambiguous.
    """

    vertices: tuple[Vertex, ...]
    steps: tuple[tuple[Edge, Time], ...]

    def __post_init__(self):
        if not self.steps:
            raise ValidationError("a temporal path has at least one step")
        if len(self.vertices) != len(self.steps) + 1:
            raise ValidationError("vertex sequence must have one more entry than steps")

    @property
    def endpoints(self) -> tuple[Vertex, Vertex]:
        return (self.vertices[0], self.vertices[-1])

    @classmethod
    def from_steps(
        cls, graph: StaticGraph, start: Vertex, steps: Sequence[tuple[Edge, Time]]
    ) -> "TemporalPath":
        """Resolve the vertex sequence by walking the steps from ``start``."""
        vertices = [start]
        for e, _ in steps:
            vertices.append(graph.other_endpoint(e, vertices[-1]))
        return cls(tuple(vertices), tuple((int(e), int(t)) for e, t in steps))


@dataclass(frozen=True)
class PathStats:
    departure: int
    arrival: int
    duration: int
    travel: int
    waiting: int
    hops: int


def path_stats(path: TemporalPath, traversal: TraversalSpec) -> PathStats:
    """Departure/arrival/duration/travel/waiting/hops of a temporal path.

    Raises ValidationError for a step on an edge the traversal does not
    cover, and InvalidPath if the steps are not time-respecting, i.e. some
    step departs before the previous one arrives.
    """
    departure = path.steps[0][1]
    arrival = departure
    travel = 0
    waiting = 0
    first = True
    for e, t in path.steps:
        if not 0 <= e < len(traversal.defaults):  # a negative id would wrap
            raise ValidationError(f"no edge {e}")
        if not first:
            if t < arrival:
                raise InvalidPath(
                    f"step on edge {e} departs at {t} before arrival {arrival}"
                )
            waiting += t - arrival
        first = False
        w = traversal.weight(e, t)
        travel += w
        arrival = t + w
    return PathStats(
        departure=departure,
        arrival=arrival,
        duration=arrival - departure,
        travel=travel,
        waiting=waiting,
        hops=len(path.steps),
    )


def validate_path(
    path: TemporalPath,
    availability: Availability,
    traversal: TraversalSpec,
    graph: StaticGraph,
) -> bool:
    """True iff the path is simple, scheduled, and time-respecting.

    Checks that the underlying edges form a simple static path between the
    endpoints, that every departure time is available on its edge, and that
    consecutive steps satisfy ``t_j + tr(e_j, t_j) <= t_{j+1}``.
    """
    if len(set(path.vertices)) != len(path.vertices):
        return False
    if len(set(e for e, _ in path.steps)) != len(path.steps):
        return False
    arrival = None
    for (e, t), u, v in zip(path.steps, path.vertices, path.vertices[1:]):
        if not (0 <= e < graph.edge_count):
            return False
        if {u, v} != set(graph.endpoints(e)):
            return False
        if not availability.available(e, t):
            return False
        if arrival is not None and t < arrival:
            return False
        arrival = t + traversal.weight(e, t)
    return True


class CandidateTable:
    """Per-edge departure times of one (availability, traversal) pair, built
    once and shared by every search over the pair: every source, every
    latest-departure or fastest probe.

    ``times[e]`` lists the edge's departure times in ascending order: its
    scheduled times on a labeling, as given, or its override times on the
    full temporal graph (``tau`` not None, computed once per traversal),
    where the edge also departs at its default weight at the first
    non-override time at or after the current arrival.  A departure at
    ``t`` arrives at ``t + overrides[e].get(t, defaults[e])``, where
    ``overrides`` is the traversal's per-edge time -> weight index, and
    searches compute that where they read a departure.  A labeling may also
    be given as per-edge tuples already sorted and duplicate-free, as the
    brute-force oracle enumerates them.  On a labeling, ``plain[e]`` is true
    when none of the edge's times is an override time, so every departure
    has the default weight.
    """

    __slots__ = ("tau", "defaults", "overrides", "times", "plain")

    def __init__(self, availability: Availability | Sequence[tuple[Time, ...]],
                 traversal: TraversalSpec):
        self.defaults = traversal.defaults
        self.overrides = traversal._override_index
        if isinstance(availability, FullAvailability):
            self.tau = availability.tau
            self.times = traversal._override_times
            return
        if isinstance(availability, Labeling):
            availability = availability.times_by_edge
        self.tau = None
        self.times = tuple(availability)
        self.plain = [not per_edge or per_edge.keys().isdisjoint(times)
                      for times, per_edge in zip(self.times, self.overrides)]

    def candidates(self, e: Edge, lo: Time) -> list[tuple[Time, Time]]:
        """(departure, arrival) pairs worth trying at or after ``lo`` when
        minimizing, in the order the front search's seeds and the
        minimum-waiting search try them.  The kernel and the front search's
        later steps read the full temporal graph's default slot first and
        skip the departures that cannot win.

        A later departure at the default weight costs the same travel, waits
        longer and arrives later than an earlier one, so only the first
        default-weight departure at or after ``lo`` is kept: on a labeling
        the scheduled times minus later default-weight ones, on the full
        temporal graph the override times, then that default slot.  On a
        labeling's ``plain`` edge that is the first scheduled time at or
        after ``lo`` alone.
        """
        times = self.times[e]
        per_edge = self.overrides[e]
        default = self.defaults[e]
        if self.tau is None:
            i = bisect_left(times, lo)
            if self.plain[e]:
                return [(t, t + default) for t in times[i:i + 1]]
            out = []
            saw_default = False
            for t in times[i:]:
                w = per_edge.get(t)
                if w is None:
                    if saw_default:
                        continue
                    saw_default = True
                    w = default
                out.append((t, t + w))
            return out
        if lo > self.tau:
            return []
        out = [(t, t + per_edge[t]) for t in times[bisect_left(times, lo):]]
        t = lo
        while t in per_edge:
            t += 1
        if t <= self.tau:
            out.append((t, t + default))
        return out

    def available(self, e: Edge) -> list[tuple[Time, Time]]:
        """Every available (departure, arrival) pair of the edge."""
        weight = self.overrides[e].get
        default = self.defaults[e]
        times = self.times[e] if self.tau is None else range(1, self.tau + 1)
        return [(t, t + weight(t, default)) for t in times]


_NEVER = float("inf")


def earliest_arrival(
    graph: StaticGraph,
    table: CandidateTable,
    source: Vertex,
    start: Time = 1,
    stop: Vertex | None = None,
) -> tuple[list[Time | None], list[tuple[Vertex, Edge, Time] | None]]:
    """Earliest arrival at every vertex from ``source``: (arrivals, parents).

    Dijkstra over (arrival, vertex), relaxing edges in adjacency order.  The
    walk starts at time ``start`` (1 by default), so its first step departs
    then or later, and no walk re-enters the source.  ``arrivals[v]`` is
    None for the source and for unreached vertices; ``parents[v]`` is
    ``(previous vertex, edge, departure)``, and the parent forest realizes
    the arrivals.  Within an edge the departure is the first of
    ``table.candidates`` with the least arrival, read in place: the scan
    runs up the edge's ``table.times`` from the current arrival, computing
    each arrival from the override index, and stops once a departure time
    reaches the best arrival so far.  On the full temporal graph the
    default slot, the first non-override time at or after the current
    arrival, is read first, and the override scan runs only up to the best
    arrival, so mostly not at all; the slot still wins no tie, as it comes
    last among the candidates.  A labeling's ``plain`` edge needs no scan: its first time
    at or after the current arrival is that departure.
    With ``stop`` the run ends once that vertex is settled: its arrival and
    its path in the forest are final, other entries may not be.

    This one mode serves every first-departure search.  Waiting is allowed,
    so arrivals never fall as ``start`` grows (FIFO; Dean 2004): a vertex's
    latest departure is the first start, latest first, whose run reaches
    it, and its least duration is the least arrival minus start, first
    reached at the earliest optimal departure.
    """
    n = graph.vertex_count
    adjacency = graph.adjacency
    all_times = table.times
    tau = table.tau
    full = tau is not None
    overrides = table.overrides
    defaults = table.defaults
    plain = () if full else table.plain
    arrival: list = [_NEVER] * n
    parents: list = [None] * n
    done = [False] * n
    heap: list[tuple[Time, Vertex]] = [(start, source)]
    pop = heapq.heappop
    push = heapq.heappush
    unsettled = n
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
            times = all_times[e]
            if full:
                per_edge = overrides[e]
                slot = now
                while slot in per_edge:
                    slot += 1
                best = slot + defaults[e] if slot <= tau else _NEVER
                best_t = slot
                i = bisect_left(times, now)
                if i < len(times) and times[i] <= best:  # else no override can win
                    for t in times[i:]:
                        if t > best:
                            break  # departs after the best arrival: cannot beat it
                        a = t + per_edge[t]
                        if a < best or a == best and best_t == slot:
                            best = a
                            best_t = t
            elif plain[e]:
                i = bisect_left(times, now)
                if i == len(times):
                    continue
                best_t = times[i]
                best = best_t + defaults[e]
            else:
                if times and times[0] < now:
                    times = times[bisect_left(times, now):]
                best = _NEVER
                per_edge = overrides[e]
                default = defaults[e]
                for t in times:
                    if t >= best:
                        break
                    a = t + per_edge.get(t, default)
                    if a < best:
                        best = a
                        best_t = t
            if best < arrival[w]:
                arrival[w] = best
                parents[w] = (u, e, best_t)
                push(heap, (best, w))
    return [None if a is _NEVER else a for a in arrival], parents


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
    ``t`` with ``t + tr(e, t) <= Y``: a scan down the edge's ``table.times``
    at or before ``Y``, and on the full temporal graph also the latest
    non-override time up to ``min(tau, Y - default)``.  The run ends when
    the source pops, its latest time the answer; the source is never
    expanded, so no walk passes through it.  The walks are those of
    ``earliest_arrival``, so the answer is the latest start whose forward
    run reaches ``target``.
    """
    adjacency = graph.adjacency
    all_times = table.times
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
            per_edge = overrides[e]
            default = defaults[e]
            if full:
                t = min(tau, deadline - default)
                while t in per_edge:
                    t -= 1
                if t > 0:
                    best = t
            times = all_times[e]
            i = len(times)
            if i and times[-1] > deadline:
                i = bisect_right(times, deadline)
            while i:
                i -= 1
                t = times[i]
                if t <= best:
                    break
                if t + per_edge.get(t, default) <= deadline:
                    best = t
                    break
            if best > latest[x]:
                latest[x] = best
                push(heap, (-best, x))
    return None


def _check_cover(graph: StaticGraph, labeling: Labeling) -> None:
    m = graph.edge_count
    if labeling.edge_count != m:
        raise ValidationError(f"labeling covers {labeling.edge_count} edges, instance has {m}")


def _check_labeling(instance: Instance, labeling: Labeling, quota: bool = True) -> None:
    """Raise ValidationError when the labeling does not cover the instance's
    edges, MultiplicityViolation (when ``quota``) for an edge over its
    multiplicity, then ValidationError for a label outside ``1..tau``."""
    _check_cover(instance.graph, labeling)
    if quota:
        for e, (times, mu) in enumerate(zip(labeling.times_by_edge, instance.multiplicity)):
            if len(times) > mu:
                raise MultiplicityViolation(f"edge {e} has {len(times)} labels, multiplicity {mu}")
    _check_times(labeling.times_by_edge, instance.tau)


def is_feasible(instance: Instance, labeling: Labeling) -> bool:
    """True iff every source temporally reaches every other vertex.

    Raises MultiplicityViolation if the labeling exceeds some edge's
    multiplicity (that is an input error, not infeasibility), and
    ValidationError if it covers other edges than the instance's or has a
    label outside ``1..tau``.
    """
    _check_labeling(instance, labeling)
    return _feasible_arrivals(instance, CandidateTable(labeling, instance.traversal)) is not None


def _too_sparse(graph: StaticGraph) -> bool:
    """True when there are over twice as many vertices as edges, as some
    vertex then has no edge and no source reaches every vertex."""
    return graph.vertex_count > 2 * graph.edge_count


def _feasible_arrivals(instance: Instance, table: CandidateTable) -> dict | None:
    """The kernel's (arrivals, parents) from each source in order, or None
    at the first source that misses a vertex; None before allocating
    anything per vertex when the graph is ``_too_sparse``."""
    graph = instance.graph
    if _too_sparse(graph):
        return None
    forests = {}
    for s in sorted(instance.sources):
        forests[s] = earliest_arrival(graph, table, s)
        if forests[s][0].count(None) > 1:
            return None
    return forests


def reaches_all(
    graph: StaticGraph,
    availability: Availability,
    traversal: TraversalSpec,
    source: Vertex,
) -> bool:
    """True iff ``source`` temporally reaches every vertex of the graph.

    Raises ValidationError when the source is not a vertex, or when the
    labeling or the traversal covers other edges than the graph's."""
    if not 0 <= source < graph.vertex_count:
        raise ValidationError(f"source {source} out of range")
    if isinstance(availability, Labeling):
        _check_cover(graph, availability)
    if len(traversal.defaults) != graph.edge_count:
        raise ValidationError("traversal must cover every edge")
    arrivals, _ = earliest_arrival(graph, CandidateTable(availability, traversal), source)
    return arrivals.count(None) == 1
