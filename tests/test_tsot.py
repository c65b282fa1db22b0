from __future__ import annotations

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmbcast import tsot
from tmbcast.core import (
    FullAvailability,
    Instance,
    Labeling,
    ReachFastInstance,
    StaticGraph,
    TraversalSpec,
    Unreachable,
    ValidationError,
    earliest_arrival,
)
from tmbcast.distances import Measure, sssp
from tmbcast.tsot import Tsot, build_ea_tsot, build_ld_tsot

import oracles
import reference_search as reference


def full_sssp(inst, source, measure):
    return sssp(source, FullAvailability(inst.tau), inst, measure)


def labeling_sssp(inst, labeling, source, measure):
    return sssp(source, labeling, inst, measure)


def test_ea_tsot_on_star_uses_earliest_labels():
    graph = StaticGraph(4, ((0, 1), (0, 2), (0, 3)))
    trav = TraversalSpec.uniform(3, 1)
    inst = Instance(graph, frozenset({0}), trav, (1,) * 3, 4)
    tree = build_ea_tsot(0, inst)
    assert tree.is_valid(graph)
    assert tree.tree_edges() == {0: 1, 1: 1, 2: 1}


def test_ea_tsot_prefers_faster_two_hop_route():
    # Direct edge 0-2 is slow at its only cheap time; 0-1-2 arrives earlier.
    graph = StaticGraph(3, ((0, 1), (1, 2), (0, 2)))
    trav = TraversalSpec((1, 1, 5), ((),) * 3)
    inst = Instance(graph, frozenset({0}), trav, (1,) * 3, 4)
    tree = build_ea_tsot(0, inst)
    assert tree.is_valid(graph)
    by_vertex = {v: tree.parent[v][0] for v in (1, 2)}
    assert by_vertex[2] == 1  # in-edge of vertex 2 is {1,2}, not the direct edge
    full = full_sssp(inst, 0, Measure.EARLIEST_ARRIVAL)
    assert tree.path_stats()[2][1] == full[2].value == 3


def test_ea_tsot_exactness_random():
    rng = random.Random(42)
    done = 0
    while done < 60:
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 6), extra_edges=rng.randint(0, 3),
            tau=rng.randint(1, 5),
        )
        full = full_sssp(inst, 0, Measure.EARLIEST_ARRIVAL)
        if any(full[v].value is None for v in range(1, inst.graph.vertex_count)):
            with pytest.raises(Unreachable):
                build_ea_tsot(0, inst)
            continue
        tree = build_ea_tsot(0, inst)
        assert tree.is_valid(inst.graph)
        lab = tree.to_labeling(inst.graph.edge_count)
        tree_ea = labeling_sssp(inst, lab, 0, Measure.EARLIEST_ARRIVAL)
        for v in range(1, inst.graph.vertex_count):
            assert tree_ea[v].value == full[v].value
        done += 1


def test_ld_tsot_single_edge_keeps_latest_label():
    graph = StaticGraph(2, ((0, 1),))
    trav = TraversalSpec.uniform(1, 1)
    rf = ReachFastInstance(graph, frozenset({0}), trav, Labeling(((2, 5),)), 6)
    tree = build_ld_tsot(0, rf)
    assert tree.tree_edges() == {0: 5}


def test_ld_tsot_forced_first_edge_departure():
    # r -- a -- b with labels {1,4} and {5}: reaching b forces departure 4.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 1)
    labels = Labeling(((1, 4), (5,)))
    rf = ReachFastInstance(graph, frozenset({0}), trav, labels, 6)
    tree = build_ld_tsot(0, rf)
    assert tree.is_valid(graph)
    assert tree.tree_edges() == {0: 4, 1: 5}
    inst = Instance(graph, frozenset({0}), trav, (1, 1), 6)
    ld = labeling_sssp(inst, labels, 0, Measure.LATEST_DEPARTURE)
    assert ld[1].value == 4 and ld[2].value == 4


def test_ld_tsot_keeps_the_first_in_edge_of_a_vertex():
    # Star around vertex 3.  Vertex 1 (ld 2) is admitted first and grafts
    # 0 -> 3 at time 2 (arriving 3), then 3 -> 1 at time 4.  Vertex 2 (ld 4)
    # comes next; its witness 0 -> 3 at 4 arrives at 5, later than the edge
    # vertex 3 already has, so 3 keeps it.  Taking the later link instead
    # would leave 3 -> 1 departing at 4, before 3 arrives.
    graph = StaticGraph(4, ((0, 3), (2, 3), (1, 3)))
    trav = TraversalSpec.from_maps([1, 6, 3], {0: {5: 1}, 1: {5: 0}, 2: {2: 4, 1: 4}})
    inst = Instance(graph, frozenset({0}), trav, (1, 1, 1), 5)
    labels = Labeling(((2, 4, 5), (4, 5), (2, 4)))
    tree = build_ld_tsot(0, inst, labels)
    assert tree.parent == reference.build_ld_tsot(0, inst, labels).parent
    assert tree.parent == (None, (2, 4, 3), (1, 5, 3), (0, 2, 0))
    assert tree.is_valid(graph)


def test_ld_tsot_bound_random_full_graph():
    rng = random.Random(43)
    done = 0
    while done < 60:
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 6), extra_edges=rng.randint(0, 3),
            tau=rng.randint(1, 6),
        )
        full = full_sssp(inst, 0, Measure.LATEST_DEPARTURE)
        if any(full[v].value is None for v in range(1, inst.graph.vertex_count)):
            continue
        tree = build_ld_tsot(0, inst)
        assert tree.is_valid(inst.graph)
        floor = min(full[v].value for v in range(1, inst.graph.vertex_count))
        lab = tree.to_labeling(inst.graph.edge_count)
        tree_ld = labeling_sssp(inst, lab, 0, Measure.LATEST_DEPARTURE)
        for v in range(1, inst.graph.vertex_count):
            assert tree_ld[v].value is not None
            assert tree_ld[v].value >= floor
        done += 1


def test_ld_tsot_bound_random_labeled():
    rng = random.Random(44)
    done = 0
    while done < 60:
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 5), extra_edges=rng.randint(0, 2), tau=5
        )
        labels = oracles.random_labeling(rng, inst, max_labels=2)
        rf = ReachFastInstance(
            inst.graph, frozenset({0}), inst.traversal, labels, inst.tau
        )
        ld = labeling_sssp(inst, labels, 0, Measure.LATEST_DEPARTURE)
        if any(ld[v].value is None for v in range(1, inst.graph.vertex_count)):
            continue
        tree = build_ld_tsot(0, rf)
        assert tree.is_valid(inst.graph)
        floor = min(ld[v].value for v in range(1, inst.graph.vertex_count))
        tree_lab = tree.to_labeling(inst.graph.edge_count)
        tree_ld = labeling_sssp(inst, tree_lab, 0, Measure.LATEST_DEPARTURE)
        for v in range(1, inst.graph.vertex_count):
            assert tree_ld[v].value is not None
            assert tree_ld[v].value >= floor
        done += 1


def test_tsot_outputs_single_label_per_edge():
    rng = random.Random(45)
    for _ in range(20):
        inst = oracles.random_instance(rng, n=rng.randint(2, 5), extra_edges=1, tau=4)
        full = full_sssp(inst, 0, Measure.EARLIEST_ARRIVAL)
        if any(full[v].value is None for v in range(1, inst.graph.vertex_count)):
            continue
        for build in (build_ea_tsot, build_ld_tsot):
            tree = build(0, inst)
            lab = tree.to_labeling(inst.graph.edge_count)
            assert all(len(ts) <= 1 for ts in lab.times_by_edge)
            assert lab.respects_multiplicity(inst)


def test_ld_tsot_walks_each_witness_link_once_on_a_long_path(monkeypatch):
    # On a zero-weight path one run reaches every vertex, and admitting the
    # vertices one by one used to walk each one's whole witness path again.
    n = 1100
    graph = StaticGraph(n, tuple((v, v + 1) for v in range(n - 1)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(n - 1, 0), (1,) * (n - 1), 3)
    reads = []

    class CountingParents(list):
        def __getitem__(self, v):
            reads.append(v)
            return super().__getitem__(v)

    def counting(*args, **kwargs):
        arrivals, parents = earliest_arrival(*args, **kwargs)
        return arrivals, CountingParents(parents)

    monkeypatch.setattr(tsot, "earliest_arrival", counting)
    tree = build_ld_tsot(0, inst)
    assert tree.tree_edges() == {e: 3 for e in range(n - 1)}
    # One climb to the root and one graft per vertex.
    assert len(reads) == 2 * (n - 1) == 2198


def test_is_valid_is_linear_on_a_long_path(monkeypatch):
    # Climbing to the root from every vertex took 1.86 s here: quadratic.
    n = 3000
    graph = StaticGraph(n, tuple((v, v + 1) for v in range(n - 1)))
    trav = TraversalSpec.uniform(n - 1, 1)
    tree = Tsot(0, (None, *((v - 1, v, v - 1) for v in range(1, n))), trav)
    weighed = []
    weight = TraversalSpec.weight

    def counting(self, e, t):
        weighed.append(e)
        return weight(self, e, t)

    monkeypatch.setattr(TraversalSpec, "weight", counting)
    started = time.perf_counter()
    assert tree.is_valid(graph)
    assert time.perf_counter() - started < 0.5
    assert len(weighed) == n - 1  # path_stats weighs each tree edge once


def test_is_valid_rejects_a_cycle_that_misses_the_root():
    # 1 -> 2 -> 3 -> 1 on zero-weight edges at one time: every entry joins
    # its vertices, departs when its parent arrives and uses its own edge.
    graph = StaticGraph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))
    trav = TraversalSpec.uniform(4, 0)
    assert not Tsot(0, (None, (3, 1, 3), (1, 1, 1), (2, 1, 2)), trav).is_valid(graph)
    assert Tsot(0, (None, (0, 1, 0), (1, 1, 1), (2, 1, 2)), trav).is_valid(graph)


def test_is_valid_rejects_an_edge_id_outside_the_graph():
    # Python reads a negative id from the end of the edge list.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 1)
    assert not Tsot(0, (None, (-2, 1, 0), (-1, 2, 1)), trav).is_valid(graph)
    assert not Tsot(0, (None, (0, 1, 0), (2, 2, 1)), trav).is_valid(graph)
    # Vertex 1's entry is fine, its parent's is not: never weighed.
    assert not Tsot(0, (None, (1, 2, 2), (9, 1, 0)), trav).is_valid(graph)


def test_builders_reject_a_root_outside_the_graph():
    # Python reads a negative id from the end of the vertex list.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 5)
    for root in (-1, 7):
        for build in (build_ea_tsot, build_ld_tsot):
            with pytest.raises(ValidationError, match=f"no vertex {root}"):
                build(root, inst)


def test_builders_reject_what_sssp_rejects():
    # Unit weights on the path 0-1-2 with tau 5: one row short, one row too
    # many, a label past tau, and a full graph of another horizon.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 5)
    for availability, message in (
        (Labeling(((1,),)), "labeling covers 1 edges, instance has 2"),
        (Labeling(((1,), (3,), (4,))), "labeling covers 3 edges, instance has 2"),
        (Labeling(((1,), (9,))), "label on edge 1: time 9 outside 1..5"),
        (FullAvailability(100), "full availability horizon 100 is not tau 5"),
    ):
        with pytest.raises(ValidationError, match=message):
            sssp(0, availability, inst, Measure.EARLIEST_ARRIVAL)
        for build in (build_ea_tsot, build_ld_tsot):
            with pytest.raises(ValidationError, match=message):
                build(0, inst, availability)


def test_to_labeling_rejects_negative_edge_ids():
    # Read from the end of the table, -2 and -1 labeled edges 0 and 1.
    trav = TraversalSpec.uniform(2, 1)
    with pytest.raises(ValidationError, match="edge -2 outside 0..1"):
        Tsot(0, (None, (-2, 1, 0), (-1, 2, 1)), trav).to_labeling(2)


def test_to_labeling_rejects_an_edge_id_past_the_last_edge():
    trav = TraversalSpec.uniform(2, 1)
    with pytest.raises(ValidationError, match="edge 5 outside 0..1"):
        Tsot(0, (None, (0, 1, 0), (5, 2, 1)), trav).to_labeling(2)


def test_is_valid_rejects_misplaced_parent_entries():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 1)
    assert Tsot(0, (None, (0, 1, 0), (1, 2, 1)), trav).is_valid(graph)
    assert not Tsot(0, (None, (0, 1, 0)), trav).is_valid(graph)  # one vertex short
    assert not Tsot(1, (None, (0, 1, 0), (1, 2, 1)), trav).is_valid(graph)  # root has a parent
    assert not Tsot(0, (None, None, (1, 2, 1)), trav).is_valid(graph)  # vertex 1 has none
    assert not Tsot(5, (None, (0, 1, 0), (1, 2, 1)), trav).is_valid(graph)  # root not a vertex


def test_is_valid_rejects_a_reused_edge():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 0)
    assert not Tsot(0, (None, (1, 1, 2), (1, 1, 1)), trav).is_valid(graph)


def test_is_valid_rejects_a_departure_before_the_parent_arrives():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 2)  # edge 0 at time 1 arrives at 3
    assert not Tsot(0, (None, (0, 1, 0), (1, 2, 1)), trav).is_valid(graph)
    assert Tsot(0, (None, (0, 1, 0), (1, 3, 1)), trav).is_valid(graph)


def _valid_by_brute_force(tree: Tsot, graph: StaticGraph) -> bool:
    """``Tsot.is_valid`` from its definition: one entry per vertex, None at
    the root only; each entry's edge joins its two vertices and no edge
    serves twice; and every vertex's parent chain reaches the root within
    the vertex count, each step departing when the one before arrives."""
    n, root = graph.vertex_count, tree.root
    if len(tree.parent) != n or tree.parent[root] is not None:
        return False
    used = []
    for v, entry in enumerate(tree.parent):
        if v != root:
            if entry is None:
                return False
            e, _, u = entry
            if e not in range(graph.edge_count) or sorted(graph.edges[e]) != sorted((u, v)):
                return False
            used.append(e)
    if len(set(used)) != len(used):
        return False
    for v in range(n):
        steps = []
        while v != root:
            if len(steps) == n:
                return False  # the chain never reaches the root
            e, t, v = tree.parent[v]
            steps.append((e, t))
        arrival = None
        for e, t in reversed(steps):
            if arrival is not None and t < arrival:
                return False
            arrival = t + tree.traversal.weight(e, t)
    return True


@st.composite
def parent_tuples(draw):
    """(tree, graph): a root and parent entries on a small graph with
    weights from zero past tau.  Vertices come in a random order, root
    first, and the graph mostly spans them along it.  Most entries name an
    edge to a neighbour earlier in the order, departing when that
    neighbour's entry arrives or at a random time; the others name any
    vertex, a wrong or out-of-range edge, or none, which makes cycles,
    reused edges and misplaced entries.  The tuple may be one short."""
    n = draw(st.integers(1, 5))
    root = draw(st.integers(0, n - 1))
    order = [root] + draw(st.permutations([v for v in range(n) if v != root]))
    # Mostly a spanning tree along the order, plus a few other edges.
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    spanning = {tuple(sorted((draw(st.sampled_from(order[:i])), v)))
                for i, v in enumerate(order) if i and draw(st.integers(0, 9))}
    extra = draw(st.sets(st.sampled_from(pairs), max_size=3)) if pairs else set()
    edges = draw(st.permutations(sorted(spanning | extra)))
    graph = StaticGraph(n, tuple(edges))
    tau = draw(st.integers(1, 4))
    weights = st.integers(0, tau + 1)
    trav = TraversalSpec.from_maps(
        [draw(weights) for _ in edges],
        {e: draw(st.dictionaries(st.integers(1, tau), weights, max_size=2))
         for e in range(len(edges))})
    parent = [None] * n
    arrival = {root: 1}  # when each vertex's chain arrives, while it is known
    for i, v in enumerate(order):
        kind = draw(st.integers(0, 19))
        earlier = [(e, u) for e, u in graph.incident(v) if u in order[:i]]
        if v == root and kind or kind == 0:
            continue
        if earlier and kind > 2:
            e, u = draw(st.sampled_from(earlier))
        else:
            e, u = draw(st.integers(-1, len(edges))), draw(st.integers(0, n - 1))
        if u in arrival and kind > 5:
            t = arrival[u] + draw(st.integers(0, 1))
        else:
            t = draw(st.integers(1, tau + 1))
        parent[v] = (e, t, u)
        if 0 <= e < len(edges):
            arrival[v] = t + trav.weight(e, t)
    if draw(st.integers(0, 19)) == 0:
        parent.pop()
    return Tsot(root, tuple(parent), trav), graph


# A cycle that misses the root; a reused edge; a departure before the parent
# arrives; a chain of zero-weight edges at one time.
@example((Tsot(0, (None, (3, 1, 3), (1, 1, 1), (2, 1, 2)), TraversalSpec.uniform(4, 0)),
          StaticGraph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))))
@example((Tsot(0, (None, (1, 1, 2), (1, 1, 1)), TraversalSpec.uniform(2, 0)),
          StaticGraph(3, ((0, 1), (1, 2)))))
@example((Tsot(0, (None, (0, 1, 0), (1, 2, 1)), TraversalSpec.uniform(2, 2)),
          StaticGraph(3, ((0, 1), (1, 2)))))
@example((Tsot(0, (None, (0, 1, 0), (1, 1, 1), (2, 1, 2)), TraversalSpec.uniform(3, 0)),
          StaticGraph(4, ((0, 1), (1, 2), (2, 3)))))
@settings(max_examples=1000, deadline=None)
@given(parent_tuples())
def test_is_valid_matches_a_brute_force_check(case):
    tree, graph = case
    assert tree.is_valid(graph) == _valid_by_brute_force(tree, graph)
