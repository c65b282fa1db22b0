"""Temporal spanning out-trees: one label per tree edge, root reaches all.

Two constructions:

* the earliest-arrival tree records, for every vertex, the temporal in-edge
  that first achieved its final earliest arrival, over the walks whose first
  step departs at a given start or later.  From start 1 the tree realizes
  every earliest-arrival distance of the input availability.  From the
  floor L* = min_v ld(v), the latest start whose run still reaches every
  vertex (``distances._ld_floor``, whose last run is the one from L*, so
  the exact solvers build the tree from it), every tree path departs the
  root at L* or later, so every tree distance under latest departure is at
  least the worst one of the input graph: the exact solvers' ld tree;
* the latest-departure merge tree admits vertices in nondecreasing order of
  their latest-departure value and grafts each one's path, edge by edge,
  from the kernel's run from that value, re-run once per distinct value:
  a vertex keeps the first in-edge it gets, which no later path beats.  It
  meets the same bound and serves only the FT/MW approximation, whose
  schedules and ft/mw objectives the floor tree would change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from tmbcast.core import (
    Availability,
    Instance,
    Labeling,
    ReachFastInstance,
    StaticGraph,
    TraversalSpec,
    Unreachable,
    ValidationError,
    earliest_arrival,
)
from tmbcast.distances import _availability_table, _latest_departures


@dataclass(frozen=True)
class Tsot:
    """A spanning tree whose edges each carry exactly one time label.

    ``parent[v]`` is ``(edge id, time, parent vertex)`` for every vertex
    except the root, which maps to None.  The root temporally reaches every
    vertex along its unique tree path.
    """

    root: int
    parent: tuple[tuple[int, int, int] | None, ...]
    traversal: TraversalSpec

    def tree_edges(self) -> dict[int, int]:
        """edge id -> scheduled time, one entry per tree edge."""
        out: dict[int, int] = {}
        for entry in self.parent:
            if entry is not None:
                e, t, _ = entry
                if e in out:
                    raise ValidationError(f"edge {e} used twice in tree")
                out[e] = t
        return out

    def to_labeling(self, edge_count: int) -> Labeling:
        """The schedule of the tree's labels on a graph of ``edge_count``
        edges: one time per tree edge, none elsewhere."""
        rows: list[tuple[int, ...]] = [()] * edge_count
        for e, t in self.tree_edges().items():
            if not 0 <= e < edge_count:  # a negative id would wrap
                raise ValidationError(f"edge {e} outside 0..{edge_count - 1}")
            rows[e] = (t,)
        return Labeling(tuple(rows))

    def path_stats(self) -> list[tuple[int, int, int, int] | None]:
        """Per vertex, ``(departure, arrival, travel, hops)`` of its tree
        path, None for the root: what ``core.path_stats`` gives for that
        path (duration is arrival minus departure, waiting that minus
        travel).  A vertex's path is its parent's and one more step; one
        memoized climb per vertex finds its parent's first, since no order
        of the vertices is known to put parents first.  Raises
        ValidationError on a climb longer than the vertex count, which only
        a cycle of parent entries makes."""
        root, parent, weight = self.root, self.parent, self.traversal.weight
        n = len(parent)
        stats: list[tuple[int, int, int, int] | None] = [None] * n
        for v in range(n):
            climbed = []
            while stats[v] is None and v != root:
                if len(climbed) == n:
                    raise ValidationError(f"parent entries from {climbed[0]} form a cycle")
                climbed.append(v)
                v = parent[v][2]
            for w in reversed(climbed):
                e, t, u = parent[w]
                step = weight(e, t)
                if u == root:
                    stats[w] = (t, t + step, step, 1)
                else:
                    departure, _, travel, hops = stats[u]
                    stats[w] = (departure, t + step, travel + step, hops + 1)
        return stats

    def is_valid(self, graph: StaticGraph) -> bool:
        """Spanning tree, one label per edge, time-respecting from the root.

        Each parent entry is checked once: its edge is one of the graph's
        and joins the two vertices.  ``path_stats`` then climbs every
        vertex to the root, failing on a cycle, and each entry must depart
        no earlier than its parent's path arrives, so the whole check is
        linear in the vertex count.
        """
        root, parent = self.root, self.parent
        if (len(parent) != graph.vertex_count or not 0 <= root < len(parent)
                or parent[root] is not None):
            return False
        try:
            self.tree_edges()
        except ValidationError:
            return False
        for v, entry in enumerate(parent):
            if v == root:
                continue
            if entry is None:
                return False
            e, _, u = entry
            if not 0 <= e < graph.edge_count or {u, v} != set(graph.endpoints(e)):
                return False
        try:
            stats = self.path_stats()
        except ValidationError:
            return False  # a cycle of parent entries
        return all(entry is None or entry[2] == root or stats[entry[2]][1] <= entry[1]
                   for entry in parent)


def build_ea_tsot(
    root: int,
    instance: Union[Instance, ReachFastInstance],
    availability: Availability | None = None,
    start: int = 1,
    forest: tuple | None = None,
) -> Tsot:
    """Tree realizing every earliest-arrival distance of the availability
    over the walks whose first step departs at ``start`` or later.

    Defaults to the full temporal graph for plain instances and to the given
    labels for the shifting formulation.  ``forest`` is the kernel's
    ``(arrivals, parents)`` from ``start``, if the caller has it; without
    it, ``_availability_table`` checks the availability (a labeling's cover
    and labels within ``1..tau``, a full graph's horizon).  Raises
    ValidationError when the root is not a vertex or that check fails, and
    Unreachable when the root cannot reach some vertex.
    """
    graph = instance.graph
    if not 0 <= root < graph.vertex_count:  # a negative id would wrap
        raise ValidationError(f"no vertex {root}")
    arrivals, parents = forest or earliest_arrival(
        graph, _availability_table(instance, availability), root, start=start)
    parent: list[tuple[int, int, int] | None] = [None] * graph.vertex_count
    for v in range(graph.vertex_count):
        if v == root:
            continue
        if arrivals[v] is None:
            raise Unreachable(f"root {root} cannot reach vertex {v}")
        u, e, t = parents[v]
        parent[v] = (e, t, u)
    return Tsot(root, tuple(parent), instance.traversal)


def build_ld_tsot(
    root: int,
    instance: Union[Instance, ReachFastInstance],
    availability: Availability | None = None,
) -> Tsot:
    """Tree whose every latest departure is at least the graph's worst one.

    The availability defaults and is checked by ``_availability_table`` as
    in ``build_ea_tsot``.  Raises Unreachable when the root cannot reach
    some vertex."""
    graph = instance.graph
    table = _availability_table(instance, availability)
    others = [v for v in range(graph.vertex_count) if v != root]
    latest = _latest_departures(graph, table, root)
    by_start: dict[int, list[int]] = {}
    for v in others:
        if latest[v] is None:
            raise Unreachable(f"root {root} cannot reach vertex {v}")
        by_start.setdefault(latest[v], []).append(v)

    # Vertices are admitted in nondecreasing latest-departure order, each
    # grafting its path in the kernel's run from its latest departure, the
    # run that first reached it, root side first; every vertex keeps the
    # first in-edge it gets.  A path's step into a vertex is its parent in
    # that run's forest, so it arrives at that run's earliest arrival.  Runs
    # come in ascending start order, one alive at a time, and a later
    # start's walks are a subset of an earlier start's (FIFO under
    # waiting), so a later step never arrives before the in-edge its head
    # already has: keeping that one keeps every tree arrival no later than
    # any path's, and the tree time-respecting.  A climb stops at a vertex
    # an earlier path of the same run climbed through, whose prefix is
    # already grafted, so each run reads a parent entry at most twice.
    parent: dict[int, tuple[int, int, int] | None] = {root: None}
    for t0 in sorted(by_start):
        _, parents = earliest_arrival(graph, table, root, start=t0)
        climbed = {root}
        for v in by_start[t0]:
            if v in parent:
                continue
            pending = []
            while v not in climbed:
                climbed.add(v)
                pending.append(v)
                v = parents[v][0]
            for w in reversed(pending):
                u, e, t = parents[w]
                parent.setdefault(w, (e, t, u))
    return Tsot(root, tuple(parent[v] for v in range(graph.vertex_count)), instance.traversal)
