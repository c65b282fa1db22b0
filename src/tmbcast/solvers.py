"""Exact solvers for the tractable regimes, the FT/MW approximation, and the
brute-force oracle.

Tractable regimes (earliest-arrival and latest-departure objectives only):

* one source: the measure's spanning out-tree on the full temporal graph is
  optimal outright;
* any number of sources when every multiplicity is at least the source
  count: each edge inherits the label it gets in any of the per-source
  trees;
* trees with multiplicity at least two on every edge between two sources
  (the sources' subtree, see ``_thin_source_edge``): per-source solutions
  merged edge by edge, keeping the latest label per traversal direction.

The brute-force oracle searches, per edge, the subsets of the horizon of
size exactly ``min(mu, tau)``: extra labels only ever help, so maximal label
sets dominate and nothing smaller needs to be tried.  It is a depth-first
branch and bound over the edges in id order, with an explicit stack.  A
node's undecided edges carry every time in ``1..tau``; since feasibility
and every pair optimum are monotone under added labels, the node's
objective bounds every labeling below it.  Infeasible nodes and nodes whose
bound is not strictly better than the best labeling so far are pruned.
Until a labeling is held, only feasibility can prune, so the internal
nodes visited before then are tested for feasibility alone.
Leaves come in lexicographic order and only a strict improvement replaces
the best, so the answer and its tie-break are those of the full
enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from tmbcast.core import (
    CandidateTable,
    Instance,
    Labeling,
    MultiplicityTooSmall,
    NAMED_SPACE,
    NotATree,
    SearchSpaceTooLarge,
    StaticGraph,
    TmbError,
    TraversalSpec,
    Unreachable,
    ValidationError,
    WrongSourceCount,
    _feasible_arrivals,
    _too_sparse,
)
from tmbcast.distances import (
    Bounds,
    Measure,
    _STATISTIC,
    _availability_table,
    _ld_floor,
    _table_pairs,
    ft_mw_bounds,
)
from tmbcast.tsot import Tsot, build_ea_tsot, build_ld_tsot


class NoTractableRegime(TmbError):
    """No polynomial-time regime applies to the given instance and measure."""


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    APPROXIMATE = "approximate"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolveResult:
    """A schedule with its objective.

    ``per_source_distances`` maps every (source, other vertex) pair to its
    distance value under the schedule, an int, sources ascending, then
    vertices (``sssp`` or ``distance`` on the labeling gives a witness
    path).  A schedule written from trees takes the values from the tree
    paths when they are exact (one tree, or earliest arrival; see
    ``_from_trees``); the others' values come from ``_table_pairs`` on the
    schedule (for the oracle, from the search it made of its best labeling).
    """

    labeling: Labeling
    objective: int | None
    per_source_distances: dict[tuple[int, int], int]
    status: SolveStatus
    regime: str | None = None
    bounds: Bounds | None = None


@dataclass(frozen=True)
class OracleLimits:
    max_edges: int = 16
    max_tau: int = 10
    max_labelings: int = 500_000


_EXACT_MEASURES = (Measure.EARLIEST_ARRIVAL, Measure.LATEST_DEPARTURE)
_APPROX_MEASURES = (Measure.FASTEST, Measure.MIN_WAIT)


def _require_measure(measure: Measure, allowed, what: str) -> None:
    if measure not in allowed:
        codes = "/".join(m.code for m in allowed)
        raise ValidationError(f"{what} supports only {codes}, not {measure.code}")


_UNREACHABLE = "source {} cannot reach every vertex even in the full graph"


def _full_graph_trees(instance: Instance, measure: Measure) -> list[Tsot]:
    """The measure's spanning out-tree of the full temporal graph for every
    source, in source order: the earliest-arrival tree from start 1 under
    earliest arrival, and from the floor L* under latest departure (see
    ``tsot``), built from the floor search's run from L*.  Raises
    Unreachable naming the first source that misses a vertex: at once when
    the graph is too sparse for any source to reach every vertex, else from
    the first search of each source, the tree's own under earliest arrival
    and the floor search's first run under latest departure."""
    sources = sorted(instance.sources)
    if _too_sparse(instance.graph):
        raise Unreachable(_UNREACHABLE.format(sources[0]))
    table = _availability_table(instance)
    trees = []
    for s in sources:
        start, forest = 1, None
        if measure is Measure.LATEST_DEPARTURE:
            start, forest = _ld_floor(instance.graph, table, s) or (None, None)
        try:
            if start is None:
                raise Unreachable
            trees.append(build_ea_tsot(s, instance, start=start, forest=forest))
        except Unreachable:
            raise Unreachable(_UNREACHABLE.format(s)) from None
    return trees


def _tree_pairs(trees: list[Tsot], measure: Measure) -> dict[tuple[int, int], int]:
    """measure(root, v) for every tree's root and every other vertex, in
    ``_table_pairs``' order (roots ascending as given, then vertices), on a
    schedule where each tree path is the vertex's only temporal path or,
    for earliest arrival, the earliest one: the path's ``Tsot.path_stats``
    read as ``Measure.statistic`` reads ``core.path_stats``."""
    pick = _STATISTIC[measure]
    return {
        (tree.root, v): pick(*stats)
        for tree in trees
        for v, stats in enumerate(tree.path_stats())
        if stats is not None
    }


def _finish(instance, labeling, measure, regime, status=SolveStatus.OPTIMAL,
            bounds=None, pairs=None):
    """The result for ``labeling``, a feasible schedule.  ``pairs`` are its
    pair values, ints, when the caller already has them: from the oracle's
    search, or from the trees the schedule was written from
    (``_from_trees``).  Without them, ``_table_pairs`` searches the
    schedule, one search per source: the tree regime, and multi-source
    latest departure."""
    if pairs is None:
        pairs = _table_pairs(instance, CandidateTable(labeling, instance.traversal), measure)
    return SolveResult(
        labeling=labeling,
        objective=measure.worst(pairs.values()),
        per_source_distances=pairs,
        status=status,
        regime=regime,
        bounds=bounds,
    )


def _from_trees(instance, trees, measure, regime, status=SolveStatus.OPTIMAL, bounds=None):
    """The result for the union of spanning out-trees of the full temporal
    graph, each edge labeled with every time a tree gives it.  The pair
    values come from the tree paths when those are exact: with one tree,
    each vertex's tree path is its only temporal path; under earliest
    arrival, a source's tree realizes its full-graph values, which no
    schedule beats, and the union holds the tree.  Under latest departure
    the union's values can exceed the trees', so ``_finish`` searches it."""
    rows: list[tuple[int, ...]] = [()] * instance.graph.edge_count
    for tree in trees:
        for e, t in tree.tree_edges().items():
            if t not in rows[e]:
                rows[e] += (t,)
    exact = len(trees) == 1 or measure is Measure.EARLIEST_ARRIVAL
    return _finish(instance, Labeling(tuple(rows)), measure, regime, status, bounds,
                   _tree_pairs(trees, measure) if exact else None)


def solve_single_source(instance: Instance, measure: Measure) -> SolveResult:
    """Optimal schedule for one source under EA or LD."""
    _require_measure(measure, _EXACT_MEASURES, "solve_single_source")
    if len(instance.sources) != 1:
        raise WrongSourceCount(
            f"single-source solver got {len(instance.sources)} sources"
        )
    return _from_trees(instance, _full_graph_trees(instance, measure), measure,
                       "single-source")


def solve_multi_full_mu(instance: Instance, measure: Measure) -> SolveResult:
    """Optimal multi-source schedule when every multiplicity is >= |S|."""
    _require_measure(measure, _EXACT_MEASURES, "solve_multi_full_mu")
    k = len(instance.sources)
    for e, mu in enumerate(instance.multiplicity):
        if mu < k:
            raise MultiplicityTooSmall(
                f"edge {e} has multiplicity {mu} < source count {k}"
            )
    return _from_trees(instance, _full_graph_trees(instance, measure), measure,
                       "multi-source-full-mu")


def _thin_source_edge(instance: Instance) -> int | None:
    """The first edge, in id order, between two sources whose multiplicity
    is below 2, or None; the graph must be a tree.

    The edges between two sources, those on some source-to-source path,
    are the ones left once every leaf that is not a source is removed,
    again until no such leaf is left: the sources' subtree.  With one
    source, none is left.
    """
    graph, sources = instance.graph, instance.sources
    degree = list(map(len, graph.adjacency))
    kept = [True] * graph.edge_count
    leaves = [v for v, d in enumerate(degree) if d == 1 and v not in sources]
    while leaves:
        for e, w in graph.adjacency[leaves.pop()]:
            if kept[e]:  # the leaf's one edge left
                kept[e] = False
                degree[w] -= 1
                if degree[w] == 1 and w not in sources:
                    leaves.append(w)
    return next((e for e, mu in enumerate(instance.multiplicity) if kept[e] and mu < 2), None)


def tree_mu_diagnostic(instance: Instance) -> bool:
    """The tree regime's condition: multiplicity >= 2 on every edge between
    two sources (see ``solve_tree``).  Raises NotATree off trees."""
    if not instance.graph.is_tree():
        raise NotATree("diagnostic applies to trees only")
    return _thin_source_edge(instance) is None


def solve_tree(instance: Instance, measure: Measure) -> SolveResult:
    """Optimal multi-source schedule on trees with multiplicity >= 2 on
    every edge between two sources (``tree_mu_diagnostic``).

    Per-source optimal schedules are merged per edge and direction: the
    sources on each side of an edge share one slot, which keeps their
    latest label.  A source's tree crosses the edge from the endpoint on
    its side, the parent vertex of its tree entry for the edge.  With every
    multiplicity at least 2 the merge is optimal.  An edge off the sources'
    subtree has every source on one side, so every tree crosses it from the
    same endpoint and the merge writes one label there.  The schedule is
    thus the one written with those quotas raised to 2, which is optimal
    there; raising a quota cannot worsen the optimum and the schedule fits
    the original quotas, so it is optimal for the instance as given.
    """
    _require_measure(measure, _EXACT_MEASURES, "solve_tree")
    graph = instance.graph
    if not graph.is_tree():
        raise NotATree("solve_tree needs the underlying graph to be a tree")
    if (e := _thin_source_edge(instance)) is not None:
        raise MultiplicityTooSmall(f"edge {e} lies between two sources and has multiplicity 1 < 2")
    slots: list[dict[int, int]] = [{} for _ in range(graph.edge_count)]
    for tree in _full_graph_trees(instance, measure):
        for e, t, u in filter(None, tree.parent):  # the root's entry is None
            slots[e][u] = max(t, slots[e].get(u, 0))
    labeling = Labeling(tuple(tuple(sorted(set(slot.values()))) for slot in slots))
    return _finish(instance, labeling, measure, regime="tree")


def approx_ft_mw(instance: Instance, measure: Measure) -> SolveResult:
    """Feasible single-source schedule with a duration/waiting certificate.

    Returns the latest-departure merge tree of the full temporal graph
    (``tsot.build_ld_tsot``, which grafts witness paths in ascending
    latest-departure order, each vertex keeping its first in-edge); its
    objective is at most the reported ft_max (resp. mw_max) while no
    schedule can beat ft_min (resp. mw_min).  Any spanning schedule meets
    the certificate, but the exact solvers' cheaper ld tree, the
    earliest-arrival tree from the floor L*, writes other schedules with
    other ft and mw objectives, so this solver keeps the merge tree and the
    outputs it has always given.
    """
    _require_measure(measure, _APPROX_MEASURES, "approx_ft_mw")
    if len(instance.sources) != 1:
        raise WrongSourceCount(
            f"approximation needs one source, got {len(instance.sources)}"
        )
    (s,) = instance.sources
    bounds = ft_mw_bounds(s, instance)  # raises Unreachable when hopeless
    return _from_trees(instance, [build_ld_tsot(s, instance)], measure, "approx-ld-tree",
                       SolveStatus.APPROXIMATE, bounds)


def add_super_source(instance: Instance) -> Instance:
    """Single-source relaxation: a fresh source wired to every original one.

    The new vertex connects to each original source by an edge with zero
    traversal weight at every time and multiplicity tau, so scheduling from
    the new source models "some source covers each vertex".
    """
    if len(instance.sources) < 2:
        raise WrongSourceCount("super-source relaxation needs at least 2 sources")
    n = instance.graph.vertex_count
    star = n
    new_edges = list(instance.graph.edges)
    defaults = list(instance.traversal.defaults)
    overrides = list(instance.traversal.overrides)
    multiplicity = list(instance.multiplicity)
    for s in sorted(instance.sources):
        new_edges.append((s, star))
        defaults.append(0)
        overrides.append(())
        multiplicity.append(instance.tau)
    return Instance(
        graph=StaticGraph(n + 1, tuple(new_edges)),
        sources=frozenset({star}),
        traversal=TraversalSpec(tuple(defaults), tuple(overrides)),
        multiplicity=tuple(multiplicity),
        tau=instance.tau,
    )


# ---------------------------------------------------------------------------
# Brute force


def search_space_size(instance: Instance) -> int:
    """The exact number of labelings ``brute_force`` enumerates; its digits
    grow with tau and the multiplicities (see ``_space_size_within``)."""
    return _space_size_within(instance, math.inf)


def _space_size_within(instance: Instance, bound: int | float) -> int | None:
    """The product over the edges of ``comb(tau, min(mu, tau))`` when it is
    at most ``bound`` (always, for ``math.inf``), else None, building no
    integer past ``bound`` squared (or ``bound`` times tau): one factor per
    distinct multiplicity, and a product that stops once past ``bound``."""
    tau = instance.tau
    factors = {mu: _comb_within(tau, min(mu, tau), bound) for mu in set(instance.multiplicity)}
    if None in factors.values():
        return None
    total = 1
    for mu in instance.multiplicity:
        total *= factors[mu]
        if total > bound:
            return None
    return total


def _comb_within(n: int, k: int, bound: int) -> int | None:
    """``comb(n, k)`` when it is at most ``bound``, else None.  Step ``i``
    holds ``comb(n - k + i, i)`` with ``k <= n - k``, so each step at least
    doubles it: at most ``bound.bit_length()`` steps are taken."""
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > bound:
            return None
    return c


def brute_force(
    instance: Instance,
    measure: Measure,
    limits: OracleLimits | None = None,
) -> SolveResult:
    """Exact solve over maximal label sets by branch and bound.

    The labelings tried are those of the cross product, over the edges in
    id order, of every subset of the horizon of size exactly
    ``min(mu, tau)`` in lexicographic order.  The search fixes the edges
    with a single such subset, then assigns the others depth first in that
    order, the undecided edges carrying every time in ``1..tau``.  Each node
    evaluates its partial labeling once.  Every completion's labels are a
    subset of the node's, and feasibility and every pair optimum only
    improve when labels are added, so the node's value bounds every
    completion's and equals it at a leaf.  A node is pruned when it is
    infeasible or its value is not strictly better than the best labeling
    found so far; the search ends once that best equals the root's value,
    which nothing can beat.  The root (whose value is that ceiling), every
    leaf and every node after the first best is held get their pair values
    from ``_table_pairs``.  An internal node before then can only be pruned
    as infeasible, so it takes ``_feasible_arrivals``' start-1 kernel run
    per source, which decides feasibility as ``_table_pairs`` does and
    stops at the first source that misses a vertex.  Leaves are visited in
    cross-product order and the best changes only on a strict improvement,
    so the result is the lexicographically first optimal labeling, the one
    the plain enumeration returns.  Raises SearchSpaceTooLarge before
    searching anything when the edges, tau or the cross product, tested in
    that order, exceed their limits; the cross product is counted only up to
    ``NAMED_SPACE`` (or the labelings limit, if larger), so a huge one is
    refused at once.
    """
    limits = limits or OracleLimits()
    cardinality = _space_size_within(instance, max(limits.max_labelings, NAMED_SPACE))
    for cap, size, limit in (
        ("edges", instance.graph.edge_count, limits.max_edges),
        ("tau", instance.tau, limits.max_tau),
        ("labelings", cardinality, limits.max_labelings),
    ):
        if size is None or size > limit:
            raise SearchSpaceTooLarge(cardinality, limit, cap, size)

    trav = instance.traversal
    horizon = tuple(range(1, instance.tau + 1))
    per_edge = [
        list(itertools.combinations(horizon, min(mu, instance.tau)))
        for mu in instance.multiplicity
    ]
    table = [choices[0] if len(choices) == 1 else horizon for choices in per_edge]
    free = [e for e, choices in enumerate(per_edge) if len(choices) > 1]

    def evaluate() -> tuple[int | None, dict | None]:
        """The table's value and its pair values."""
        pairs = _table_pairs(instance, CandidateTable(table, trav), measure)
        return (None if pairs is None else measure.worst(pairs.values())), pairs

    best_value: int | None = None
    best_table: tuple | None = None
    best_pairs: dict | None = None
    ceiling, pairs = evaluate()
    if ceiling is not None and not free:
        best_value, best_table, best_pairs = ceiling, tuple(table), pairs
    # nxt[d] is the index of the next subset to try on edge free[d].
    nxt = [0] if ceiling is not None and free else []
    while nxt:
        depth = len(nxt) - 1
        e = free[depth]
        i = nxt[depth]
        if i == len(per_edge[e]):
            table[e] = horizon
            nxt.pop()
            continue
        nxt[depth] = i + 1
        table[e] = per_edge[e][i]
        leaf = depth + 1 == len(free)
        if best_value is None and not leaf:
            # With nothing held the prune test reads feasibility alone.
            if _feasible_arrivals(instance, CandidateTable(table, trav)) is not None:
                nxt.append(0)
            continue
        bound, pairs = evaluate()
        if bound is None or (
            best_value is not None and not measure.better(bound, best_value)
        ):
            continue
        if not leaf:
            nxt.append(0)
            continue
        best_value, best_table, best_pairs = bound, tuple(table), pairs
        if best_value == ceiling:
            break

    if best_value is None:
        return SolveResult(
            labeling=Labeling.empty(instance.graph.edge_count),
            objective=None,
            per_source_distances={},
            status=SolveStatus.INFEASIBLE,
            regime="oracle",
        )
    return _finish(
        instance, Labeling(best_table), measure, regime="oracle", pairs=best_pairs
    )


def pick_regime(instance: Instance, measure: Measure) -> str:
    """Name the exact tractable regime for this instance, if any."""
    if measure in _EXACT_MEASURES:
        if len(instance.sources) == 1:
            return "single-source"
        if all(mu >= len(instance.sources) for mu in instance.multiplicity):
            return "multi-source-full-mu"
        if instance.graph.is_tree() and _thin_source_edge(instance) is None:
            return "tree"
    raise NoTractableRegime(
        f"no exact polynomial regime for measure {measure.code} on this instance"
    )


def solve_auto(instance: Instance, measure: Measure) -> SolveResult:
    """Dispatch to the applicable exact solver (see pick_regime)."""
    regime = pick_regime(instance, measure)
    if regime == "single-source":
        return solve_single_source(instance, measure)
    if regime == "multi-source-full-mu":
        return solve_multi_full_mu(instance, measure)
    return solve_tree(instance, measure)
