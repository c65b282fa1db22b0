from __future__ import annotations

import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmbcast.core import (
    CandidateTable,
    FullAvailability,
    Instance,
    Labeling,
    MultiplicityViolation,
    SameVertex,
    StaticGraph,
    TraversalSpec,
    Unreachable,
    ValidationError,
    is_feasible,
    path_stats,
    validate_path,
)
from tmbcast.distances import (
    _HOP,
    _KEEP,
    Bounds,
    Measure,
    _cost_fronts,
    _first_departure_times,
    _fronts,
    _min_wait_run,
    _table_pairs,
    distance,
    ft_mw_bounds,
    objective,
    sssp,
)

from tmbcast.solvers import solve_multi_full_mu, solve_single_source
from tmbcast.tsot import build_ld_tsot

import worked_example as fig
import oracles
import reference_search as reference

ALL_MEASURES = tuple(Measure)


def single_edge_instance(label_time=3, weight=2, tau=5):
    graph = StaticGraph(2, ((0, 1),))
    trav = TraversalSpec((weight,), ((),))
    inst = Instance(graph, frozenset({0}), trav, (1,), tau)
    lab = Labeling(((label_time,),))
    return inst, lab


def test_single_edge_all_six_measures():
    inst, lab = single_edge_instance()
    expected = {"ea": 5, "ld": 3, "ft": 2, "st": 2, "mh": 1, "mw": 0}
    for m in ALL_MEASURES:
        res = distance(0, 1, lab, inst, m)
        assert res.value == expected[m.code]
        assert validate_path(res.witness, lab, inst.traversal, inst.graph)
        assert Measure.from_code(m.code.upper()) is m
    with pytest.raises(ValidationError, match="unknown measure 'zz'"):
        Measure.from_code("zz")


def test_distance_rejects_same_vertex():
    inst, lab = single_edge_instance()
    with pytest.raises(SameVertex):
        distance(0, 0, lab, inst, Measure.EARLIEST_ARRIVAL)


def test_vertices_outside_the_graph_are_rejected():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 3)
    full = FullAvailability(3)
    with pytest.raises(ValidationError, match="source -1 out of range"):
        sssp(-1, full, inst, Measure.EARLIEST_ARRIVAL)
    with pytest.raises(ValidationError, match="vertex out of range"):
        distance(0, 7, full, inst, Measure.EARLIEST_ARRIVAL)
    # Python reads a negative id from the end of the vertex list.
    for source in (-1, 7):
        with pytest.raises(ValidationError, match=f"source {source} out of range"):
            ft_mw_bounds(source, inst)


def test_full_availability_must_share_the_instance_horizon():
    # Unit weights on the path 0-1-2 with tau 3: a full graph to 100 would
    # answer ld(0, 2) = 99, outside 1..tau, where a label past tau is
    # rejected.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 3)
    for tau in (2, 100):
        for measure in ALL_MEASURES:
            with pytest.raises(ValidationError, match=f"horizon {tau} is not tau 3"):
                distance(0, 2, FullAvailability(tau), inst, measure)
            with pytest.raises(ValidationError, match=f"horizon {tau} is not tau 3"):
                sssp(0, FullAvailability(tau), inst, measure)
    assert distance(0, 2, FullAvailability(3), inst, Measure.LATEST_DEPARTURE).value == 2


def test_worked_example_ea_to_last_vertex():
    inst = fig.build_instance()
    res = distance(fig.M, fig.V1, fig.LABELING_EA, inst, Measure.EARLIEST_ARRIVAL)
    assert res.value == 10


def test_worked_example_center_max_duration():
    inst = fig.build_instance()
    results = sssp(fig.M, fig.LABELING_FT, inst, Measure.FASTEST)
    values = [r.value for v, r in enumerate(results) if v != fig.M]
    assert all(v is not None for v in values)
    assert max(values) == 3


def test_objective_worked_example():
    inst = fig.build_instance()
    assert objective(inst, fig.LABELING_EA, Measure.EARLIEST_ARRIVAL) == 10
    assert objective(inst, fig.LABELING_ST, Measure.SHORTEST_TRAVEL) == 3
    assert objective(inst, fig.LABELING_FT, Measure.FASTEST) == 3


def test_objective_single_edge():
    inst, lab = single_edge_instance()
    assert objective(inst, lab, Measure.EARLIEST_ARRIVAL) == 5
    assert objective(inst, lab, Measure.MIN_WAIT) == 0


def test_objective_checks_multiplicity():
    inst, _ = single_edge_instance()
    with pytest.raises(MultiplicityViolation):
        objective(inst, Labeling(((1, 2),)), Measure.EARLIEST_ARRIVAL)


def test_objective_rejects_what_is_feasible_rejects():
    # Label 9 lies past tau = 3; (2, 9) also exceeds multiplicity 1, which
    # is reported first.
    inst, _ = single_edge_instance(tau=3)
    for lab, error in ((Labeling(((9,),)), ValidationError),
                       (Labeling(((2, 9),)), MultiplicityViolation)):
        with pytest.raises(error) as feasible:
            is_feasible(inst, lab)
        for m in ALL_MEASURES:
            with pytest.raises(error) as got:
                objective(inst, lab, m)
            assert str(got.value) == str(feasible.value)


def test_labeling_must_cover_the_instance_edges():
    # One edge short, and one extra row of seven labels past the last edge.
    inst = fig.build_instance()
    rows = fig.LABELING_EA.times_by_edge
    for lab, count in ((Labeling(rows[:-1]), 9), (Labeling(rows + ((1, 2, 3, 4, 5, 6, 7),)), 11)):
        assert not lab.respects_multiplicity(inst)
        message = f"labeling covers {count} edges, instance has 10"
        with pytest.raises(ValidationError, match=message):
            is_feasible(inst, lab)
        for m in ALL_MEASURES:
            with pytest.raises(ValidationError, match=message):
                objective(inst, lab, m)


def test_distance_and_sssp_reject_what_the_core_rejects():
    # One edge short, one extra row, and a label past tau = 14.  The quota
    # is not checked: a distance is defined on any schedule.
    inst = fig.build_instance()
    rows = fig.LABELING_EA.times_by_edge
    late = rows[:8] + ((19,),) + rows[9:]
    for lab, message in (
        (Labeling(rows[:-1]), "labeling covers 9 edges, instance has 10"),
        (Labeling(rows + ((1, 2, 3, 4, 5, 6, 7),)), "labeling covers 11 edges, instance has 10"),
        (Labeling(late), "label on edge 8: time 19 outside 1..14"),
    ):
        for m in ALL_MEASURES:
            with pytest.raises(ValidationError, match=message):
                distance(fig.E, fig.V4, lab, inst, m)
            with pytest.raises(ValidationError, match=message):
                sssp(fig.M, lab, inst, m)
    over_quota = Labeling(rows[:8] + ((2, 6),) + rows[9:])
    assert distance(fig.M, fig.V1, over_quota, inst, Measure.EARLIEST_ARRIVAL).value == 10


def test_objective_none_when_unreachable():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 3)
    lab = Labeling(((1,), ()))
    assert objective(inst, lab, Measure.EARLIEST_ARRIVAL) is None


# ---------------------------------------------------------------------------
# Oracle equivalence on labeled availabilities


def assert_matches_oracle(inst, avail, pairs=None):
    graph = inst.graph
    vertices = range(graph.vertex_count)
    pairs = pairs or [(u, v) for u in vertices for v in vertices if u != v]
    for u, v in pairs:
        for m in ALL_MEASURES:
            want = oracles.exhaustive_distance(
                graph, avail, inst.traversal, u, v, m.code
            )
            got = distance(u, v, avail, inst, m)
            assert got.value == want, (u, v, m, got.value, want)
            if want is not None:
                w = got.witness
                assert validate_path(w, avail, inst.traversal, graph)
                assert m.statistic(path_stats(w, inst.traversal)) == want


def test_distances_match_oracle_on_random_labelings():
    rng = random.Random(101)
    for _ in range(60):
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 6), extra_edges=rng.randint(0, 3),
            tau=rng.randint(2, 5),
        )
        lab = oracles.random_labeling(rng, inst, max_labels=2)
        assert_matches_oracle(inst, lab)


def test_distances_match_oracle_on_full_availability():
    rng = random.Random(202)
    for _ in range(40):
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 5), extra_edges=rng.randint(0, 2),
            tau=rng.randint(1, 4),
        )
        assert_matches_oracle(inst, FullAvailability(inst.tau))


def test_full_marker_agrees_with_materialized_labels():
    rng = random.Random(303)
    for _ in range(30):
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 5), extra_edges=1, tau=rng.randint(1, 5)
        )
        full = FullAvailability(inst.tau)
        materialized = Labeling(
            tuple(tuple(range(1, inst.tau + 1)) for _ in range(inst.graph.edge_count))
        )
        for m in ALL_MEASURES:
            for v in range(1, inst.graph.vertex_count):
                a = distance(0, v, full, inst, m)
                b = distance(0, v, materialized, inst, m)
                assert a.value == b.value


# ---------------------------------------------------------------------------
# sssp


def test_sssp_star_earliest_arrivals():
    graph = StaticGraph(4, ((0, 1), (0, 2), (0, 3)))
    trav = TraversalSpec((1, 2, 1), ((),) * 3)
    inst = Instance(graph, frozenset({0}), trav, (1, 1, 1), 5)
    lab = Labeling(((2,), (3,), (5,)))
    results = sssp(0, lab, inst, Measure.EARLIEST_ARRIVAL)
    assert [r.value for r in results] == [None, 3, 5, 6]


def test_sssp_forced_chain():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 3)
    lab = Labeling(((1,), (2,)))
    assert sssp(0, lab, inst, Measure.EARLIEST_ARRIVAL)[2].value == 3
    assert sssp(0, lab, inst, Measure.MIN_HOP)[2].value == 2
    assert sssp(0, lab, inst, Measure.MIN_WAIT)[2].value == 0


def test_sssp_agrees_with_pairwise_distance():
    rng = random.Random(404)
    for _ in range(25):
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 5), extra_edges=1, tau=rng.randint(2, 4)
        )
        lab = oracles.random_labeling(rng, inst)
        s = rng.randrange(inst.graph.vertex_count)
        for m in ALL_MEASURES:
            vec = sssp(s, lab, inst, m)
            for v in range(inst.graph.vertex_count):
                if v == s:
                    continue
                assert vec[v].value == distance(s, v, lab, inst, m).value


# ---------------------------------------------------------------------------
# Work counts: kernel runs do not change from machine to machine.


def grid_instance(seed, k, tau):
    """k x k grid from vertex 0, random default weights 1-3 and three
    random overrides (weight 0-3) per edge, as in the benchmark's plans."""
    rng = random.Random(seed)
    edges = [(v, v + 1) for v in range(k * k) if v % k < k - 1]
    edges += [(v, v + k) for v in range(k * (k - 1))]
    defaults = tuple(rng.randint(1, 3) for _ in edges)
    overrides = tuple(
        tuple(sorted((t, rng.randint(0, 3)) for t in rng.sample(range(1, tau + 1), 3)))
        for _ in edges
    )
    return Instance(StaticGraph(k * k, tuple(edges)), frozenset({0}),
                    TraversalSpec(defaults, overrides), (1,) * len(edges), tau)


@pytest.fixture
def kernel_runs(monkeypatch):
    """One ``(kernel name, table)`` entry per kernel run, forward
    (``earliest_arrival``) or backward (``latest_departure``), made by
    ``distances`` or by the tree builders of ``tsot``."""
    import tmbcast.distances as distances
    import tmbcast.tsot as tsot

    runs = []

    def counting(name, kernel):
        def run(graph, table, *args, **kwargs):
            runs.append((name, table))
            return kernel(graph, table, *args, **kwargs)
        return run

    for module, name in ((distances, "earliest_arrival"), (distances, "latest_departure"),
                         (tsot, "earliest_arrival")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return runs


def test_sssp_latest_departure_stops_at_the_least_value(monkeypatch):
    import tmbcast.distances as distances

    starts = []
    kernel = distances.earliest_arrival

    def run(graph, table, source, start=1, stop=None):
        starts.append(start)
        return kernel(graph, table, source, start=start, stop=stop)

    monkeypatch.setattr(distances, "earliest_arrival", run)
    inst = grid_instance(400, 10, 400)
    full = inst.full_availability()
    values = [r.value for r in sssp(0, full, inst, Measure.LATEST_DEPARTURE)]
    least = min(v for v in values if v is not None)
    # The sweep runs from tau down to the least latest departure and no
    # further: the source, never reached, does not keep it going.  Then one
    # witness run per distinct value re-runs the start that attained it.
    sweep = list(range(inst.tau, least - 1, -1))
    distinct = set(values) - {None}
    assert (len(sweep), len(distinct)) == (24, 20)
    assert starts[:len(sweep)] == sweep
    assert sorted(starts[len(sweep):]) == sorted(distinct)


def test_one_target_distance_runs_few_searches(kernel_runs):
    inst = grid_instance(401, 10, 400)
    full = inst.full_availability()
    target = inst.graph.vertex_count - 1
    results = {}
    for measure in (Measure.FASTEST, Measure.LATEST_DEPARTURE, Measure.EARLIEST_ARRIVAL):
        kernel_runs.clear()
        results[measure] = distance(0, target, full, inst, measure)
        results[measure, "runs"] = [name for name, _ in kernel_runs]
    # The sweep ran one probe per first departure in 1..tau and one for
    # the witness; latest departure is one backward run, then the witness.
    assert len(results[Measure.FASTEST, "runs"]) < (inst.tau + 1) / 2
    assert results[Measure.LATEST_DEPARTURE, "runs"] == ["latest_departure", "earliest_arrival"]
    assert results[Measure.EARLIEST_ARRIVAL, "runs"] == ["earliest_arrival"]
    for measure in (Measure.FASTEST, Measure.LATEST_DEPARTURE):
        assert results[measure].value == sssp(0, full, inst, measure)[target].value


@pytest.mark.parametrize("measure", [Measure.FASTEST, Measure.LATEST_DEPARTURE])
def test_one_target_distance_answers_an_unreachable_target_in_one_run(kernel_runs, measure):
    # The first step arrives at 3, past tau = 2, so vertex 2 is never reached.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 2), (1, 1), 2)
    assert distance(0, 2, inst.full_availability(), inst, measure).value is None
    assert len(kernel_runs) == 1


def test_single_source_ld_solve_takes_three_full_graph_runs(kernel_runs):
    inst = grid_instance(402, 10, 400)
    result = solve_single_source(inst, Measure.LATEST_DEPARTURE)
    full_graph = [name for name, table in kernel_runs if table.tau is not None]
    # The floor's first run, the backward run from the vertex it reached
    # last, and the run from that bound, which reaches every vertex and
    # gives the tree; the bisection took 1 + ceil(log2 400) = 10 and the
    # tree one more.
    assert full_graph == ["earliest_arrival", "latest_departure", "earliest_arrival"]
    values = sssp(0, inst.full_availability(), inst, Measure.LATEST_DEPARTURE)
    assert result.objective == min(r.value for r in values[1:])


@pytest.mark.parametrize("step", [_HOP, _KEEP], ids=["hop", "keep"])
def test_full_graph_fronts_push_one_departure_per_edge(monkeypatch, step):
    import tmbcast.distances as distances

    inst = grid_instance(404, 10, 400)
    graph = inst.graph
    table = CandidateTable(inst.full_availability(), inst.traversal)
    pushed = []
    heappush = distances.heapq.heappush

    def counting(heap, item):
        pushed.append(item)
        heappush(heap, item)

    monkeypatch.setattr(distances.heapq, "heappush", counting)
    # Seeds as the searches make them: from the source's candidates at 1.
    seeds = [(t, reach, w, e, t, 0) for e, w in graph.adjacency[0]
             for t, reach in table.candidates(e, 1)]
    if step == _HOP:
        fronts = _cost_fronts(graph, table, 0, Measure.MIN_HOP)
    else:
        fronts = _fronts(graph, table, (0,), seeds, _KEEP, cap=inst.tau)
    # All of an edge's departures share a key, so an expansion pushes at
    # most one per edge, not every override time ahead of it.
    kept = sum(len(graph.adjacency[v]) * len(front) for v, front in enumerate(fronts))
    assert pushed and len(pushed) <= len(seeds) + kept


def test_min_wait_objective_reuses_the_feasibility_runs(monkeypatch):
    import tmbcast.core as core
    import tmbcast.distances as distances

    searched = []
    kernel = core.earliest_arrival

    def counting(graph, table, source, **kwargs):
        searched.append(source)
        return kernel(graph, table, source, **kwargs)

    for module in (core, distances):
        monkeypatch.setattr(module, "earliest_arrival", counting)
    inst = fig.build_instance()
    assert objective(inst, fig.LABELING_EA, Measure.MIN_WAIT) is not None
    # One run per source decides feasibility and seeds the mw bound.
    assert sorted(searched) == sorted(inst.sources)


def tree_schedule(k, sources, tau=400):
    """A k x k ``grid_instance`` with the given sources and quota |S|, and
    the union of their full-graph earliest-arrival trees, one label per
    edge per source, as in the benchmark's check workload."""
    grid = grid_instance(403, k, tau)
    inst = Instance(grid.graph, frozenset(sources), grid.traversal,
                    (len(sources),) * grid.graph.edge_count, tau)
    return inst, solve_multi_full_mu(inst, Measure.EARLIEST_ARRIVAL).labeling


@pytest.fixture
def objective_runs(monkeypatch, kernel_runs):
    """``kernel_runs`` with the feasibility runs of ``core`` counted too,
    each as ``("feasible", table)``."""
    import tmbcast.core as core

    kernel = core.earliest_arrival

    def run(graph, table, *args, **kwargs):
        kernel_runs.append(("feasible", table))
        return kernel(graph, table, *args, **kwargs)

    monkeypatch.setattr(core, "earliest_arrival", run)
    return kernel_runs


def test_ld_objective_takes_each_sources_floor_from_its_feasibility_run(objective_runs):
    inst, lab = tree_schedule(10, (0, 9, 90, 99))
    objective_runs.clear()
    got = objective(inst, lab, Measure.LATEST_DEPARTURE)
    runs = [name for name, _ in objective_runs]
    # One feasibility run per source, then per source the floor's backward
    # run from the vertex that run reached last and the forward run that
    # confirms it; the feasibility run is the floor's first run.
    assert runs == (
        ["feasible"] * 4 + ["latest_departure", "earliest_arrival"] * 4)
    assert got == min(r.value for s in sorted(inst.sources)
                      for r in sssp(s, lab, inst, Measure.LATEST_DEPARTURE) if r.value is not None)


def test_ft_objective_takes_each_sources_first_start_from_its_feasibility_run(objective_runs):
    inst, lab = tree_schedule(10, (0, 9, 90, 99))
    objective_runs.clear()
    got = objective(inst, lab, Measure.FASTEST)
    runs = [name for name, _ in objective_runs]
    table = CandidateTable(lab, inst.traversal)
    starts = {s: len(_first_departure_times(inst.graph, table, s)) for s in sorted(inst.sources)}
    assert starts == {0: 4, 9: 5, 90: 5, 99: 4}
    # The start-1 runs bound the sources' worst pairs by 25, 23, 23 and 25.
    # Source 0, first of the largest bound, attains 25, so no other source
    # can raise it: only source 0's other candidate first departures run.
    assert runs == ["feasible"] * 4 + ["earliest_arrival"] * (starts[0] - 1)
    assert got == max(r.value for s in sorted(inst.sources)
                      for r in sssp(s, lab, inst, Measure.FASTEST) if r.value is not None)


def test_mw_objective_searches_only_the_sources_whose_bound_can_raise_the_worst(monkeypatch):
    import tmbcast.distances as distances

    inst, lab = tree_schedule(10, (0, 9, 90, 99))
    searched = []
    search = distances._min_wait_run

    def counting(graph, table, source, forest=None):
        searched.append(source)
        return search(graph, table, source, forest)

    monkeypatch.setattr(distances, "_min_wait_run", counting)
    got = objective(inst, lab, Measure.MIN_WAIT)
    # The start-1 forests' largest waitings are 3, 0, 0 and 0; source 0
    # attains 3, so the minimum-waiting search runs once.
    assert searched == [0]
    assert got == 3 == max(r.value for s in sorted(inst.sources)
                           for r in sssp(s, lab, inst, Measure.MIN_WAIT) if r.value is not None)


@st.composite
def schedules(draw):
    """1 to 3 sources on 2 to 5 vertices with zero weights, weights past
    the horizon and overrides at 1 and at tau, and a schedule of up to two
    labels per edge; empty label sets make many schedules infeasible."""
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1, max_size=7))
    tau = draw(st.integers(1, 6))
    weights = st.integers(0, tau + 2)
    defaults = [draw(weights) for _ in edges]
    overrides = {e: draw(st.dictionaries(st.sampled_from((1, tau)), weights, max_size=2))
                 for e in range(len(edges))}
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    quota = min(2, tau)
    rows = [tuple(sorted(draw(st.sets(st.integers(1, tau), max_size=quota)))) for _ in edges]
    instance = Instance(StaticGraph(n, tuple(edges)), frozenset(sources),
                        TraversalSpec.from_maps(defaults, overrides), (quota,) * len(edges), tau)
    return instance, Labeling(tuple(rows))


def two_source_case(n, edges, weights, sources, rows, tau):
    return (Instance(StaticGraph(n, edges), frozenset(sources), TraversalSpec.from_maps(weights, {}),
                     (2,) * len(edges), tau), Labeling(rows))


# Under ft, sources 1 and 2 both have bound 3; source 1, searched first,
# attains 1 and source 2 attains 3.
@example(two_source_case(3, ((0, 1), (1, 2)), (1, 1), (1, 2), ((3,), (1,)), 3))
# A first-searched source whose bound 3 overstates its worst 1, while the
# other source, bound 2, attains 2: under ft, then under mw.
@example(two_source_case(3, ((0, 1), (0, 2)), (1, 0), (0, 2), ((1, 5), (4, 6)), 6))
@example(two_source_case(4, ((0, 2), (1, 3), (1, 2)), (3, 1, 0), (1, 3), ((5,), (2, 4), (2, 4)), 5))
@settings(max_examples=300, deadline=None)
@given(schedules())
def test_objectives_and_pair_tables_match_the_reference_pairs(case):
    instance, labeling = case
    table = CandidateTable(labeling, instance.traversal)
    for measure in Measure:
        pairs = reference._pair_values(instance, labeling, measure)
        assert objective(instance, labeling, measure) == reference._worst(measure, pairs.values())
        got = _table_pairs(instance, table, measure)
        if None in pairs.values():
            assert got is None
        else:
            assert list(got.items()) == list(pairs.items())


def test_ld_pair_values_run_each_sources_sweep_and_no_feasibility_run(objective_runs):
    inst, lab = tree_schedule(10, (0, 9, 90, 99))
    table = CandidateTable(lab, inst.traversal)
    objective_runs.clear()
    pairs = _table_pairs(inst, table, Measure.LATEST_DEPARTURE)
    runs = [name for name, _ in objective_runs]
    # Per source, one run from each candidate first departure, latest
    # first, down to the source's least value; nothing runs before them.
    sweeps = 0
    for s in sorted(inst.sources):
        floor = min(pairs[s, v] for v in range(inst.graph.vertex_count) if v != s)
        sweeps += sum(t >= floor for t in _first_departure_times(inst.graph, table, s))
    assert runs == ["earliest_arrival"] * sweeps
    assert list(pairs.values()) == [
        r.value for s in sorted(inst.sources)
        for v, r in enumerate(sssp(s, lab, inst, Measure.LATEST_DEPARTURE)) if v != s]


def test_ld_pair_values_stop_at_the_second_source_when_it_misses_a_vertex(objective_runs):
    # On the path 0-1-2-3, source 0's one candidate reaches every vertex;
    # source 2's candidates, 5 then 3, both miss vertex 0, so source 3
    # (one more candidate) is never searched.
    graph = StaticGraph(4, ((0, 1), (1, 2), (2, 3)))
    inst = Instance(graph, frozenset({0, 2, 3}), TraversalSpec.uniform(3, 1), (1, 1, 1), 6)
    table = CandidateTable(Labeling(((1,), (3,), (5,))), inst.traversal)
    assert _table_pairs(inst, table, Measure.LATEST_DEPARTURE) is None
    assert [name for name, _ in objective_runs] == ["earliest_arrival"] * 3


@pytest.fixture
def front_searches(monkeypatch):
    """The source of every shortest-travel or minimum-hop front search."""
    import tmbcast.distances as distances

    searched = []
    search = distances._cost_fronts

    def run(graph, table, source, *args, **kwargs):
        searched.append(source)
        return search(graph, table, source, *args, **kwargs)

    monkeypatch.setattr(distances, "_cost_fronts", run)
    return searched


@pytest.mark.parametrize("measure", [Measure.SHORTEST_TRAVEL, Measure.MIN_HOP])
def test_st_mh_objective_decides_feasibility_from_its_front_searches(
        objective_runs, front_searches, measure):
    inst, lab = tree_schedule(10, (0, 9, 90, 99))
    objective_runs.clear()
    got = objective(inst, lab, measure)
    assert objective_runs == []
    assert front_searches == sorted(inst.sources)
    assert got == max(r.value for s in sorted(inst.sources)
                      for r in sssp(s, lab, inst, measure) if r.value is not None)


@pytest.mark.parametrize("measure", [Measure.SHORTEST_TRAVEL, Measure.MIN_HOP])
def test_st_mh_objective_stops_at_the_first_source_that_misses_a_vertex(
        objective_runs, front_searches, measure):
    # On the path 0-1-2-3, source 0 reaches every vertex, source 2 misses
    # vertex 0 (its edge is labeled before 2 can get there), and source 3
    # is never searched.
    graph = StaticGraph(4, ((0, 1), (1, 2), (2, 3)))
    inst = Instance(graph, frozenset({0, 2, 3}), TraversalSpec.uniform(3, 1), (1, 1, 1), 6)
    lab = Labeling(((1,), (3,), (5,)))
    assert objective(inst, lab, measure) is None
    assert front_searches == [0, 2]
    assert objective_runs == []


@pytest.mark.parametrize("measure", [Measure.SHORTEST_TRAVEL, Measure.MIN_HOP])
def test_st_mh_objective_on_a_too_sparse_graph_runs_no_search(
        objective_runs, front_searches, measure):
    graph = StaticGraph(5, ((0, 1), (2, 3)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 4)
    assert objective(inst, Labeling(((1,), (1,))), measure) is None
    assert front_searches == [] and objective_runs == []


class CountingTable(CandidateTable):
    """A candidate table that counts the edge scans made through it."""

    __slots__ = ("scans",)

    def candidates(self, e, lo):
        self.scans += 1
        return super().candidates(e, lo)


def test_seeded_min_wait_scans_a_tenth_of_the_unseeded_candidates():
    inst = grid_instance(0, 8, 100)
    scans = []
    for search in (_min_wait_run, reference._min_wait_run_unseeded):
        table = CountingTable(inst.full_availability(), inst.traversal)
        table.scans = 0
        search(inst.graph, table, 0)
        scans.append(table.scans)
    seeded, unseeded = scans
    assert 10 * seeded <= unseeded


# ---------------------------------------------------------------------------
# Properties


def test_min_wait_on_a_1500_vertex_path():
    # The depth of the minimum-waiting search grows with the path; its
    # objective is the sum of the gaps before the far end.
    rng = random.Random(1500)
    n = 1500
    weights = [rng.randint(1, 2) for _ in range(n - 1)]
    times, t = [], 1
    for w in weights:
        times.append(t)
        t += w + rng.randint(0, 2)
    graph = StaticGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    inst = Instance(
        graph, frozenset({0}), TraversalSpec(tuple(weights), ((),) * (n - 1)),
        (1,) * (n - 1), times[-1],
    )
    lab = Labeling(tuple((t,) for t in times))
    waiting = sum(times[i + 1] - (times[i] + weights[i]) for i in range(n - 2))
    assert objective(inst, lab, Measure.MIN_WAIT) == waiting


def test_monotone_in_labels():
    rng = random.Random(505)
    for _ in range(40):
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 5), extra_edges=1, tau=4, mu_choices=(4,)
        )
        lab = oracles.random_labeling(rng, inst, max_labels=2)
        bigger = Labeling(
            tuple(
                tuple(sorted(set(ts) | {rng.randint(1, inst.tau)}))
                for ts in lab.times_by_edge
            )
        )
        for m in ALL_MEASURES:
            for v in range(1, inst.graph.vertex_count):
                a = distance(0, v, lab, inst, m).value
                b = distance(0, v, bigger, inst, m).value
                if a is None:
                    continue
                assert b is not None
                if m.maximize:
                    assert b >= a
                else:
                    assert b <= a


def test_full_graph_ea_stable_under_longer_horizon():
    rng = random.Random(606)
    for _ in range(25):
        inst = oracles.random_instance(rng, n=rng.randint(2, 5), extra_edges=1, tau=3)
        longer = Instance(
            inst.graph, inst.sources, inst.traversal, inst.multiplicity, inst.tau + 3
        )
        for v in range(1, inst.graph.vertex_count):
            a = distance(0, v, FullAvailability(inst.tau), inst, Measure.EARLIEST_ARRIVAL)
            b = distance(0, v, FullAvailability(longer.tau), longer, Measure.EARLIEST_ARRIVAL)
            if a.value is not None:
                assert a.value == b.value


# ---------------------------------------------------------------------------
# ft_mw_bounds


def exhaustive_bounds(inst, source):
    graph, trav = inst.graph, inst.traversal
    avail = FullAvailability(inst.tau)
    per_vertex = {}
    for vertices, edges in oracles.simple_paths(graph, source):
        v = vertices[-1]
        for times in oracles.time_assignments(edges, avail, trav):
            st = oracles.stats_of(edges, times, trav)
            cur = per_vertex.setdefault(v, [None, None, None, None])
            dur, wait = st["ft"], st["mw"]
            cur[0] = dur if cur[0] is None else min(cur[0], dur)
            cur[1] = dur if cur[1] is None else max(cur[1], dur)
            cur[2] = wait if cur[2] is None else min(cur[2], wait)
            cur[3] = wait if cur[3] is None else max(cur[3], wait)
    others = [v for v in range(graph.vertex_count) if v != source]
    if any(v not in per_vertex for v in others):
        return None
    return Bounds(
        ft_min=max(per_vertex[v][0] for v in others),
        ft_max=max(per_vertex[v][1] for v in others),
        mw_min=max(per_vertex[v][2] for v in others),
        mw_max=max(per_vertex[v][3] for v in others),
    )


def test_bounds_on_unit_path():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 4)
    b = ft_mw_bounds(0, inst)
    assert b.ft_min == 2
    assert b.mw_min == 0
    assert b.ft_min <= b.ft_max and b.mw_min <= b.mw_max


def test_bounds_unreachable():
    graph = StaticGraph(3, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1,), 3)
    with pytest.raises(Unreachable):
        ft_mw_bounds(0, inst)


def test_bounds_name_ten_unreached_vertices_and_the_count():
    # Source 0 reaches vertex 1 alone; the other 28 vertices sit in pairs.
    graph = StaticGraph(30, tuple((v, v + 1) for v in range(0, 30, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(15, 1), (1,) * 15, 10**9)
    with pytest.raises(Unreachable, match=r"reach 28 of 29 vertices: 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, \.\.\.$"):
        ft_mw_bounds(0, inst)


def test_bounds_on_a_5x5_grid_with_tau_60():
    # Random default weights 1-3 and three overrides per edge, as in the
    # benchmark's approximation instances.
    rng = random.Random(60)
    k, tau = 5, 60
    edges = [(v, v + 1) for v in range(k * k) if v % k < k - 1]
    edges += [(v, v + k) for v in range(k * (k - 1))]
    defaults = tuple(rng.randint(1, 3) for _ in edges)
    overrides = tuple(
        tuple(sorted((t, rng.randint(0, 3)) for t in rng.sample(range(1, tau + 1), 3)))
        for _ in edges
    )
    inst = Instance(
        StaticGraph(k * k, tuple(edges)), frozenset({12}),
        TraversalSpec(defaults, overrides), (1,) * len(edges), tau,
    )
    started = time.perf_counter()
    b = ft_mw_bounds(12, inst)
    # Tens of milliseconds here; the enumeration took about 50 s.
    assert time.perf_counter() - started < 5
    tree = build_ld_tsot(12, inst).to_labeling(len(edges))
    assert b.ft_min <= objective(inst, tree, Measure.FASTEST) <= b.ft_max
    assert b.mw_min <= objective(inst, tree, Measure.MIN_WAIT) <= b.mw_max


def test_bounds_match_exhaustive_enumeration():
    rng = random.Random(707)
    checked = 0
    while checked < 30:
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 5), extra_edges=rng.randint(0, 2),
            tau=rng.randint(1, 5),
        )
        want = exhaustive_bounds(inst, 0)
        if want is None:
            with pytest.raises(Unreachable):
                ft_mw_bounds(0, inst)
            continue
        assert ft_mw_bounds(0, inst) == want
        checked += 1
