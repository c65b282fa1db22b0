from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmbcast.core import (
    CandidateTable,
    FullAvailability,
    Instance,
    InvalidPath,
    Labeling,
    MultiplicityViolation,
    StaticGraph,
    TemporalPath,
    TraversalSpec,
    ValidationError,
    is_feasible,
    path_stats,
    reaches_all,
    validate_path,
)

import worked_example as fig
import oracles
import reference_loader as ref


def make_path_instance(n=3, tau=5, mu=1, weights=None):
    graph = StaticGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    traversal = TraversalSpec.uniform(graph.edge_count, 1)
    if weights is not None:
        traversal = TraversalSpec(tuple(weights), ((),) * graph.edge_count)
    return Instance(graph, frozenset({0}), traversal, (mu,) * graph.edge_count, tau)


# ---------------------------------------------------------------------------
# Graph and labeling validation


def test_graph_rejects_self_loop():
    with pytest.raises(ValidationError):
        StaticGraph(2, ((0, 0),))


def test_graph_rejects_duplicate_edges():
    with pytest.raises(ValidationError):
        StaticGraph(3, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range_endpoint():
    with pytest.raises(ValidationError):
        StaticGraph(2, ((0, 2),))


def test_graph_normalizes_endpoint_order():
    g = StaticGraph(3, ((2, 0), (1, 2)))
    assert g.edges == ((0, 2), (1, 2))
    assert g.other_endpoint(0, 2) == 0
    assert g.edge_id(2, 1) == 1
    with pytest.raises(ValidationError, match="vertex 1 is not an endpoint of edge 0"):
        g.other_endpoint(0, 1)


def test_tree_detection():
    assert StaticGraph(3, ((0, 1), (1, 2))).is_tree()
    assert not StaticGraph(3, ((0, 1),)).is_tree()
    assert not StaticGraph(3, ((0, 1), (1, 2), (0, 2))).is_tree()
    # n - 1 edges, but a triangle and an isolated vertex.
    assert not StaticGraph(4, ((0, 1), (1, 2), (0, 2))).is_tree()
    assert StaticGraph(1, ()).is_tree()


def test_labeling_rejects_nonpositive_times():
    with pytest.raises(ValidationError):
        Labeling(((0,),))


def test_labeling_rejects_rows_and_edges_that_do_not_fit():
    # A bare time as a row raises what the reference raises.
    def made(cls):
        try:
            return cls((5,)).times_by_edge
        except Exception as err:  # the class and the message are compared
            return type(err), str(err)

    assert made(Labeling) == made(ref.Labeling)
    assert made(Labeling)[0] is TypeError
    for e in (-1, 2):  # a negative id would wrap
        with pytest.raises(ValidationError, match=f"edge {e} outside 0..1"):
            Labeling.from_dict(2, {e: (1,)})
    with pytest.raises(ValidationError, match="labelings cover different edge sets"):
        Labeling(((1,),)).union(Labeling(((1,), (2,))))


# Edges whose endpoints are not exact ints, or that come as lists, a triple
# or a one-shot iterable; each case is a function making the edges, so that
# every constructor gets a fresh iterator.
GRAPH_CASES = [
    lambda: ((math.nan, 1),),
    lambda: ((0, math.nan),),
    lambda: ((math.nan, math.nan),),
    lambda: ((math.inf, 1),),
    lambda: ((1, -math.inf),),
    lambda: ((True, 0), (1.0, 2)),
    lambda: ((2, False), (True, 2.0)),
    lambda: ((True, 1),),
    lambda: ((0, 1.0), (1, 0)),
    lambda: ((1.5, 0), (0, 2)),
    lambda: ((0, "1"),),
    lambda: [[2, 0], [1, 2]],
    lambda: [[0, 1, 2]],
    lambda: iter([(2, 0), (1, 2)]),
    lambda: (pair for pair in ((0, 1), (1, 0))),
]


@pytest.mark.parametrize("make_edges", GRAPH_CASES)
def test_graph_matches_the_reference_on_other_values(make_edges):
    def made(cls):
        try:
            graph = cls(3, make_edges())
        except Exception as err:  # the class and the message are compared
            return type(err), str(err)
        return [(type(x), x) for pair in graph.edges for x in pair]

    assert made(StaticGraph) == made(ref.StaticGraph)


@pytest.mark.parametrize("make_rows", [
    lambda: [iter([(2, -1)]), 5],
    lambda: [iter([(3, 1), (2, 1)]), iter([])],
    lambda: ["ab", ()],
    lambda: [((2, 1), (2, 3)), ()],  # "edge 0 has duplicate override times"
])
def test_traversal_with_odd_rows_matches_the_reference(make_rows):
    def made(cls):
        try:
            return cls((1, 1), make_rows()).overrides
        except Exception as err:  # the class and the message are compared
            return type(err), str(err)

    assert made(TraversalSpec) == made(ref.TraversalSpec)


def test_traversal_from_other_values_matches_the_exact_int_build():
    # Floats, numeric strings, bools and list pairs miss the bulk accept
    # test, so the per-row checks build this table.
    exact = TraversalSpec((2, 1, 0), (((1, 0), (3, 5)), (), ((2, 1),)))
    loose = TraversalSpec(
        [2.0, True, False], [[["3", 5.0], (True, False)], [], [[2.0, True]]]
    )
    assert loose == exact
    assert loose._override_index == exact._override_index
    assert {type(x) for row in loose._override_index for x in (*row, *row.values())} == {int}
    assert {type(d) for d in loose.defaults} == {int}
    tau = 6
    for e in range(3):
        for t in range(tau + 2):
            assert loose.weight(e, t) == exact.weight(e, t)
            assert type(loose.weight(e, t)) is int
    for availability in (Labeling(((1, 2, 3), (4,), (2, 6))), FullAvailability(tau)):
        got = CandidateTable(availability, loose)
        want = CandidateTable(availability, exact)
        assert got.times == want.times
        assert {type(t) for row in got.times for t in row} == {int}
        for e in range(3):
            assert got.available(e) == want.available(e)
            for lo in range(1, tau + 2):
                assert got.candidates(e, lo) == want.candidates(e, lo)


def test_instance_rejects_a_traversal_of_other_edges():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    with pytest.raises(ValidationError, match="traversal must cover every edge"):
        Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1, 1), 3)


def test_instance_rejects_a_single_vertex():
    with pytest.raises(ValidationError, match="two vertices"):
        Instance(StaticGraph(1, ()), frozenset({0}), TraversalSpec.uniform(0, 1), (), 3)


def test_instance_rejects_multiplicity_above_tau():
    graph = StaticGraph(2, ((0, 1),))
    with pytest.raises(ValidationError):
        Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (4,), 3)


def test_instance_rejects_override_beyond_tau():
    graph = StaticGraph(2, ((0, 1),))
    trav = TraversalSpec((1,), (((9, 1),),))
    with pytest.raises(ValidationError):
        Instance(graph, frozenset({0}), trav, (1,), 3)


# ---------------------------------------------------------------------------
# path_stats


def test_temporal_path_needs_a_step_and_one_vertex_more():
    with pytest.raises(ValidationError, match="at least one step"):
        TemporalPath((0,), ())
    with pytest.raises(ValidationError, match="one more entry than steps"):
        TemporalPath((0, 1, 2), ((0, 1),))


def test_path_stats_single_step():
    inst = make_path_instance(2, weights=None)
    trav = TraversalSpec((1,), ((),))
    path = TemporalPath.from_steps(inst.graph, 0, [(0, 2)])
    stats = path_stats(path, trav)
    assert (stats.departure, stats.arrival, stats.duration) == (2, 3, 1)
    assert (stats.travel, stats.waiting, stats.hops) == (1, 0, 1)


def test_path_stats_worked_example_two_hop():
    # Supplier M to v2 via v3 at times 2 and 4 with unit weights.
    inst = fig.build_instance()
    path = TemporalPath.from_steps(inst.graph, fig.M, [(6, 2), (3, 4)])
    stats = path_stats(path, inst.traversal)
    assert stats.departure == 2
    assert stats.arrival == 5
    assert stats.duration == 3
    assert stats.travel == 2
    assert stats.waiting == 1
    assert stats.hops == 2


def test_path_stats_rejects_time_violation():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 2)
    path = TemporalPath.from_steps(graph, 0, [(0, 3), (1, 4)])
    with pytest.raises(InvalidPath):
        path_stats(path, trav)


def test_path_stats_and_available_reject_an_edge_outside_the_graph():
    # Python reads a negative id from the end of the edge list.
    trav = TraversalSpec.uniform(2, 1)
    lab = Labeling(((1,), (2,)))
    for e in (-1, 7):
        path = TemporalPath((0, 1), ((e, 2),))
        with pytest.raises(ValidationError, match=f"no edge {e}"):
            path_stats(path, trav)
        with pytest.raises(ValidationError, match=f"no edge {e}"):
            lab.available(e, 2)
        with pytest.raises(ValidationError, match=f"no edge {e}"):
            lab.times(e)
        with pytest.raises(ValidationError, match=f"no edge {e}"):
            trav.weight(e, 2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_duration_is_travel_plus_waiting(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    inst = oracles.random_instance(rng, n=rng.randint(2, 6), tau=5)
    avail = FullAvailability(inst.tau)
    paths = oracles.simple_paths(inst.graph, rng.randrange(inst.graph.vertex_count))
    if not paths:
        return
    vertices, edges = paths[rng.randrange(len(paths))]
    assignments = list(
        itertools.islice(oracles.time_assignments(edges, avail, inst.traversal), 50)
    )
    if not assignments:
        return
    times = assignments[rng.randrange(len(assignments))]
    path = TemporalPath(tuple(vertices), tuple(zip(edges, times)))
    stats = path_stats(path, inst.traversal)
    assert stats.duration == stats.travel + stats.waiting
    assert min(stats.departure, stats.arrival, stats.travel, stats.waiting) >= 0


# ---------------------------------------------------------------------------
# validate_path


def test_validate_path_rejects_early_departure():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 2)
    lab = Labeling(((3,), (4,)))
    path = TemporalPath.from_steps(graph, 0, [(0, 3), (1, 4)])
    assert not validate_path(path, lab, trav, graph)


def test_validate_path_rejects_unscheduled_departure():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 1)
    lab = Labeling(((3,), (5,)))
    path = TemporalPath.from_steps(graph, 0, [(0, 3), (1, 4)])
    assert not validate_path(path, lab, trav, graph)


def test_validate_path_rejects_nonsimple():
    graph = StaticGraph(3, ((0, 1), (1, 2), (0, 2)))
    trav = TraversalSpec.uniform(3, 1)
    lab = Labeling(((1,), (2,), (3,)))
    path = TemporalPath((0, 1, 2, 0), ((0, 1), (1, 2), (2, 3)))
    assert not validate_path(path, lab, trav, graph)
    # Simple in its vertices, but edge 0 twice.
    assert not validate_path(TemporalPath((0, 1, 2), ((0, 1), (0, 2))), lab, trav, graph)


def test_validate_path_rejects_steps_off_the_graph():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 1)
    lab = Labeling(((1,), (2,)))
    for path in (
        TemporalPath((0, 1), ((5, 1),)),  # no edge 5
        TemporalPath((0, 2), ((0, 1),)),  # edge 0 joins 0 and 1
    ):
        assert not validate_path(path, lab, trav, graph)


def test_validate_path_worked_example():
    inst = fig.build_instance()
    path = TemporalPath.from_steps(inst.graph, fig.M, [(6, 2), (3, 4)])
    assert validate_path(path, fig.LABELING_EA, inst.traversal, inst.graph)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_validate_path_monotone_in_labeling(seed):
    rng = random.Random(seed)
    inst = oracles.random_instance(rng, n=rng.randint(2, 5), tau=4)
    lab = oracles.random_labeling(rng, inst)
    bigger = Labeling(
        tuple(
            tuple(sorted(set(ts) | {rng.randint(1, inst.tau)}))
            for ts in lab.times_by_edge
        )
    )
    for vertices, edges in oracles.simple_paths(inst.graph, 0):
        for times in oracles.time_assignments(edges, lab, inst.traversal):
            path = TemporalPath(tuple(vertices), tuple(zip(edges, times)))
            if validate_path(path, lab, inst.traversal, inst.graph):
                assert validate_path(path, bigger, inst.traversal, inst.graph)


# ---------------------------------------------------------------------------
# full temporal graph marker


def test_full_availability_membership():
    avail = FullAvailability(3)
    assert avail.available(0, 1)
    assert avail.available(0, 3)
    assert not avail.available(0, 4)
    assert not avail.available(0, 0)


def test_full_temporal_graph_marker():
    inst = make_path_instance(2, tau=3)
    avail = inst.full_availability()
    assert isinstance(avail, FullAvailability)
    assert avail.tau == 3


def test_full_matches_materialized_reachability():
    rng = random.Random(7)
    for _ in range(60):
        inst = oracles.random_instance(rng, n=rng.randint(2, 5), tau=rng.randint(1, 5))
        full = FullAvailability(inst.tau)
        materialized = Labeling(
            tuple(
                tuple(range(1, inst.tau + 1))
                for _ in range(inst.graph.edge_count)
            )
        )
        for s in range(inst.graph.vertex_count):
            assert reaches_all(
                inst.graph, full, inst.traversal, s
            ) == reaches_all(inst.graph, materialized, inst.traversal, s)


def test_reaches_all_rejects_a_source_or_cover_that_does_not_fit_the_graph():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    trav = TraversalSpec.uniform(2, 1)
    labeling = Labeling(((1,), (2,)))
    assert reaches_all(graph, labeling, trav, 0)
    for source in (7, -1):
        with pytest.raises(ValidationError, match=f"source {source} out of range"):
            reaches_all(graph, labeling, trav, source)
    with pytest.raises(ValidationError, match="labeling covers 1 edges, instance has 2"):
        reaches_all(graph, Labeling(((1,),)), trav, 0)
    with pytest.raises(ValidationError, match="traversal must cover every edge"):
        reaches_all(graph, FullAvailability(3), TraversalSpec.uniform(1, 1), 0)


# ---------------------------------------------------------------------------
# is_feasible


def test_feasible_star_single_source():
    graph = StaticGraph(4, ((0, 1), (0, 2), (0, 3)))
    inst = Instance(
        graph, frozenset({0}), TraversalSpec.uniform(3, 1), (1, 1, 1), 3
    )
    lab = Labeling(((1,), (2,), (3,)))
    assert is_feasible(inst, lab)


def test_feasibility_agrees_with_oracle_on_two_source_path():
    # s1 -- v -- s2 with one label per edge: exhaustively check all 9 pairs.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(
        graph, frozenset({0, 2}), TraversalSpec.uniform(2, 1), (1, 1), 3
    )
    feasible_pairs = []
    for t1 in range(1, 4):
        for t2 in range(1, 4):
            lab = Labeling(((t1,), (t2,)))
            got = is_feasible(inst, lab)
            assert got == oracles.exhaustive_feasible(inst, lab)
            if got:
                feasible_pairs.append((t1, t2))
    # One shared label per edge cannot serve both directions of the middle.
    assert feasible_pairs == []


def test_worked_example_schedule_is_feasible():
    inst = fig.build_instance()
    assert is_feasible(inst, fig.LABELING_EA)
    assert is_feasible(inst, fig.LABELING_FT)
    assert is_feasible(inst, fig.LABELING_ST)


def test_multiplicity_violation_is_an_error():
    inst = make_path_instance(3, mu=1)
    lab = Labeling(((1, 2), (3,)))
    with pytest.raises(MultiplicityViolation):
        is_feasible(inst, lab)


def test_is_feasible_agrees_with_oracle_randomly():
    rng = random.Random(11)
    for _ in range(80):
        inst = oracles.random_instance(
            rng,
            n=rng.randint(2, 5),
            tau=rng.randint(2, 4),
            source_count=rng.randint(1, 2),
            mu_choices=(1, 2, 3),
        )
        lab = oracles.random_labeling(rng, inst, max_labels=2)
        if not lab.respects_multiplicity(inst):
            continue
        assert is_feasible(inst, lab) == oracles.exhaustive_feasible(inst, lab)


def test_is_feasible_monotone():
    rng = random.Random(13)
    for _ in range(40):
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 5), tau=3, mu_choices=(3,), source_count=1
        )
        lab = oracles.random_labeling(rng, inst, max_labels=1)
        bigger = Labeling(
            tuple(
                tuple(sorted(set(ts) | {rng.randint(1, inst.tau)}))
                for ts in lab.times_by_edge
            )
        )
        if is_feasible(inst, lab):
            assert is_feasible(inst, bigger)


def test_a_vertex_without_edges_fails_before_any_search(monkeypatch):
    import tmbcast.core as core
    from tmbcast.distances import Measure, objective
    from tmbcast.solvers import SolveStatus, brute_force

    # More than twice as many vertices as edges leaves a vertex with no
    # edge: infeasible with no search and nothing allocated per vertex.
    monkeypatch.setattr(core, "earliest_arrival", None)
    graph = StaticGraph(10**6, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1,), 5)
    labeling = Labeling(((1,),))
    assert is_feasible(inst, labeling) is False
    for measure in Measure:
        assert objective(inst, labeling, measure) is None
    assert brute_force(inst, Measure.EARLIEST_ARRIVAL).status is SolveStatus.INFEASIBLE
    assert "adjacency" not in vars(graph)
