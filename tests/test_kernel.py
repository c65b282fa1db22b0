"""Differential tests of the earliest-arrival kernel, the minimum-waiting
search, the shortest-travel and minimum-hop front search, the one-target
fastest and latest-departure searches, the backward latest-departure
search, the certificate maxima, the latest-departure floor and trees, the
connectivity test, the nonseparating-path search, the tree solver and the branch-and-bound oracle
against the code they replaced (``reference_search``), and of reachability
against exhaustive enumeration."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmbcast.core import (
    CandidateTable,
    FullAvailability,
    Instance,
    Labeling,
    StaticGraph,
    TmbError,
    TraversalSpec,
    Unreachable,
    connected_after_removal,
    earliest_arrival,
    latest_departure,
    path_stats,
    reaches_all,
    validate_path,
)
from tmbcast.distances import (
    Measure,
    _chain_path,
    _cost_fronts,
    _fastest,
    _first_departure_times,
    _ld_floor,
    _max_stats,
    _min_wait_run,
    _search,
    distance,
    objective,
    sssp,
)
from tmbcast.reductions import find_nonseparating_path
from tmbcast.solvers import (
    brute_force,
    solve_multi_full_mu,
    solve_single_source,
    solve_tree,
    tree_mu_diagnostic,
)
from tmbcast.tsot import build_ea_tsot, build_ld_tsot

import oracles
import reference_search as reference


@st.composite
def networks(draw, max_vertices=6, max_edges=8, min_vertices=1):
    """(graph, traversal, tau) on small graphs.

    Weights start at zero and run past the horizon, so zero-weight edges and
    arrivals after tau both occur; every edge may have override times.
    """
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    tau = draw(st.integers(1, 6))
    weights = st.integers(0, tau + 2)
    defaults = [draw(weights) for _ in edges]
    overrides = {e: draw(st.dictionaries(st.integers(1, tau), weights, max_size=3)) for e in range(len(edges))}
    return StaticGraph(n, tuple(edges)), TraversalSpec.from_maps(defaults, overrides), tau


def labelings(graph, tau):
    """Labelings with up to three labels per edge, empty label sets included."""
    return st.tuples(*(
        st.sets(st.integers(1, tau), max_size=3).map(lambda ts: tuple(sorted(ts)))
        for _ in graph.edges
    )).map(Labeling)


@st.composite
def searches(draw, max_vertices=6, max_edges=8):
    """(graph, traversal, availability, source, start) on small graphs.

    The availability is a labeling (label sets may be empty) or the full
    temporal graph; ``start`` is a start time in 1..tau + 1.
    """
    graph, traversal, tau = draw(networks(max_vertices, max_edges))
    if draw(st.booleans()):
        availability = FullAvailability(tau)
    else:
        availability = draw(labelings(graph, tau))
    source = draw(st.integers(0, graph.vertex_count - 1))
    start = draw(st.integers(1, tau + 1))
    return graph, traversal, availability, source, start


@settings(max_examples=400, deadline=None)
@given(searches())
def test_earliest_arrival_matches_reference(case):
    graph, traversal, availability, source, start = case
    table = CandidateTable(availability, traversal)
    arrivals, parents = earliest_arrival(graph, table, source)
    want_arrivals, want_parents = reference._ea_run(graph, availability, traversal, source)
    assert {v: a for v, a in enumerate(arrivals) if a is not None} == want_arrivals
    assert {v: p for v, p in enumerate(parents) if p is not None} == want_parents
    assert earliest_arrival(graph, table, source, start) == reference.earliest_arrival(
        graph, table, source, start=start)
    if isinstance(availability, Labeling):
        raw = CandidateTable(availability.times_by_edge, traversal)
        assert raw.departures == table.departures


@settings(max_examples=300, deadline=None)
@given(searches())
def test_free_start_is_the_least_exact_start_at_or_after_it(case):
    graph, traversal, availability, source, start = case
    table = CandidateTable(availability, traversal)
    arrivals, _ = earliest_arrival(graph, table, source, start=start)
    later = [t for t in _first_departure_times(graph, table, source) if t >= start]
    exact = [reference._ea_run(graph, availability, traversal, source, first_time=t)[0]
             for t in later]
    for v in range(graph.vertex_count):
        want = min((run[v] for run in exact if v in run), default=None)
        assert arrivals[v] == want
        if v == source:
            continue
        # Stopped at v, the run still settles v's arrival; the first
        # departure of its path attains it as an exact start.
        stopped, parents = earliest_arrival(graph, table, source, start=start, stop=v)
        assert stopped[v] == want
        if want is not None:
            u = v
            while parents[u][0] != source:
                u = parents[u][0]
            first = parents[u][2]
            assert first >= start and exact[later.index(first)][v] == want


# A source with no edges; a target the source cannot reach; zero-weight
# edges whose first departures tie; an arrival past tau on the full
# temporal graph; and a labeling that leaves an edge without labels.
@example((StaticGraph(3, ((1, 2),)), TraversalSpec.uniform(1, 1), FullAvailability(3), 0, 1))
@example((StaticGraph(4, ((0, 1), (2, 3))), TraversalSpec.uniform(2, 1),
          Labeling(((1, 2), (1,))), 0, 1))
@example((StaticGraph(3, ((0, 1), (0, 2), (1, 2))), TraversalSpec.uniform(3, 0),
          FullAvailability(3), 0, 1))
@example((StaticGraph(3, ((0, 1), (1, 2))), TraversalSpec.from_maps([1, 4], {0: {2: 0}}),
          FullAvailability(3), 0, 1))
@example((StaticGraph(3, ((0, 1), (1, 2))), TraversalSpec.uniform(2, 1),
          Labeling(((1, 3), ())), 0, 1))
@settings(max_examples=400, deadline=None)
@given(searches())
def test_one_target_ft_ld_match_reference(case):
    graph, traversal, availability, source, _ = case
    table = CandidateTable(availability, traversal)
    others = [v for v in range(graph.vertex_count) if v != source]
    duration, start = reference._fastest(graph, table, source)
    latest, chains = reference._latest_departures_with_chains(graph, table, source, others)
    arrivals, parents = reference.earliest_arrival(graph, table, source)
    want = {
        Measure.FASTEST: (duration, reference._probe_paths(
            graph, table, source, start, [v for v in others if duration[v] is not None])),
        Measure.LATEST_DEPARTURE: (latest, {
            v: _chain_path(graph, source, chains[v]) for v in others if latest[v] is not None}),
        Measure.EARLIEST_ARRIVAL: (arrivals, {
            v: reference._path_from_parents(graph, parents, source, v)
            for v in others if arrivals[v] is not None}),
    }
    for measure, (want_values, want_paths) in want.items():
        # Every vertex at once, then each target alone.
        values, witnesses = _search(graph, table, source, measure)
        assert values == want_values
        assert witnesses(list(want_paths)) == want_paths
        for v in others:
            values, witnesses = _search(graph, table, source, measure, target=v)
            assert values[v] == want_values[v]
            if values[v] is not None:
                assert witnesses([v])[v] == want_paths[v]


@st.composite
def pair_queries(draw):
    """(instance, availability, u, v): two distinct vertices of a
    ``networks()`` graph, the instance's one source ``u``, and a labeling or
    the full temporal graph."""
    graph, traversal, tau = draw(networks(min_vertices=2))
    availability = FullAvailability(tau) if draw(st.booleans()) else draw(labelings(graph, tau))
    u, v = draw(st.lists(st.integers(0, graph.vertex_count - 1), min_size=2, max_size=2,
                         unique=True))
    instance = Instance(graph, frozenset({u}), traversal, (1,) * graph.edge_count, tau)
    return instance, availability, u, v


# A target the source cannot reach; zero-weight edges whose first departures
# tie; overrides at 1 and at tau; an arrival past tau on the last edge; and a
# labeling that leaves an edge without labels.
@example((Instance(StaticGraph(3, ((1, 2),)), frozenset({0}), TraversalSpec.uniform(1, 1),
                   (1,), 3), FullAvailability(3), 0, 2))
@example((Instance(StaticGraph(3, ((0, 1), (0, 2), (1, 2))), frozenset({0}),
                   TraversalSpec.uniform(3, 0), (1,) * 3, 3), FullAvailability(3), 0, 2))
@example((Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0}),
                   TraversalSpec.from_maps([2, 1], {0: {1: 0, 4: 0}, 1: {1: 3, 4: 0}}),
                   (1, 1), 4), FullAvailability(4), 0, 2))
@example((Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0}),
                   TraversalSpec.from_maps([1, 4], {0: {2: 0}}), (1, 1), 3),
          FullAvailability(3), 0, 2))
@example((Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0}),
                   TraversalSpec.uniform(2, 1), (1, 1), 3), Labeling(((1, 3), ())), 0, 2))
@settings(max_examples=400, deadline=None)
@given(pair_queries())
def test_one_target_distance_matches_sssp_and_an_unstopped_rerun(case):
    instance, availability, u, v = case
    table = CandidateTable(availability, instance.traversal)
    for measure in (Measure.LATEST_DEPARTURE, Measure.FASTEST):
        got = distance(u, v, availability, instance, measure)
        assert got == sssp(u, availability, instance, measure)[v]
        if got.value is not None:
            # The run from the witness's first departure, not stopped at v.
            first = got.witness.steps[0][1]
            assert got.witness == reference._probe_paths(
                instance.graph, table, u, {v: first}, [v])[v]


# A source with no edges; a target the source cannot reach; zero-weight
# edges whose latest departures tie; overrides at 1 and at tau; an arrival
# past tau on the last edge; and a labeling that leaves an edge without
# labels.
@example((StaticGraph(3, ((1, 2),)), TraversalSpec.uniform(1, 1), FullAvailability(3), 0, 1))
@example((StaticGraph(4, ((0, 1), (2, 3))), TraversalSpec.uniform(2, 1),
          Labeling(((1, 2), (1,))), 0, 1))
@example((StaticGraph(3, ((0, 1), (0, 2), (1, 2))), TraversalSpec.uniform(3, 0),
          FullAvailability(3), 0, 1))
@example((StaticGraph(3, ((0, 1), (1, 2))),
          TraversalSpec.from_maps([2, 1], {0: {1: 0, 4: 0}, 1: {1: 3, 4: 0}}),
          FullAvailability(4), 0, 1))
@example((StaticGraph(3, ((0, 1), (1, 2))), TraversalSpec.from_maps([1, 4], {0: {2: 0}}),
          FullAvailability(3), 0, 1))
@example((StaticGraph(3, ((0, 1), (1, 2))), TraversalSpec.uniform(2, 1),
          Labeling(((1, 3), ())), 0, 1))
@settings(max_examples=500, deadline=None)
@given(searches(max_vertices=7, max_edges=10))
def test_backward_ld_and_floor_match_the_reference_bisection(case):
    graph, traversal, availability, source, _ = case
    table = CandidateTable(availability, traversal)
    for v in range(graph.vertex_count):
        if v != source:
            want = reference._latest_departure_to(graph, table, source, v)
            assert latest_departure(graph, table, source, v) == want
    want = reference._latest_departure_to(graph, table, source)
    floor = _ld_floor(graph, table, source)
    if want is None:
        assert floor is None
    else:
        # The forest is the run from the floor itself, as the tree needs.
        assert floor == (want, earliest_arrival(graph, table, source, start=want))


@settings(max_examples=400, deadline=None)
@given(searches())
def test_fastest_from_the_start_1_run_matches_reference(case):
    graph, traversal, availability, source, _ = case
    table = CandidateTable(availability, traversal)
    want = reference._fastest(graph, table, source)
    assert _fastest(graph, table, source) == want
    # The start-1 run stands in for the run from the first candidate.
    assert _fastest(graph, table, source, earliest_arrival(graph, table, source)) == want


@st.composite
def objective_cases(draw):
    """(instance, labeling): one to three sources on ``networks()``, every
    multiplicity min(3, tau), and a labeling with up to three labels per
    edge, which that quota admits."""
    graph, traversal, tau = draw(networks(min_vertices=2))
    sources = draw(st.sets(st.integers(0, graph.vertex_count - 1), min_size=1, max_size=3))
    instance = Instance(graph, frozenset(sources), traversal, (min(3, tau),) * graph.edge_count, tau)
    return instance, draw(labelings(graph, tau))


@settings(max_examples=400, deadline=None)
@given(objective_cases())
def test_ld_and_ft_objectives_match_the_reference_sweeps(case):
    instance, labeling = case
    graph = instance.graph
    table = CandidateTable(labeling, instance.traversal)
    feasible = all(reference._reaches_all(graph, table, s) for s in instance.sources)
    pairs = {Measure.LATEST_DEPARTURE: [], Measure.FASTEST: []}
    for s in instance.sources:
        others = [v for v in range(graph.vertex_count) if v != s]
        latest = reference._latest_departures(graph, table, s, others)
        duration, _ = reference._fastest(graph, table, s)
        pairs[Measure.LATEST_DEPARTURE] += [latest[v] for v in others]
        pairs[Measure.FASTEST] += [duration[v] for v in others]
    for measure, values in pairs.items():
        want = measure.worst(values) if feasible else None
        assert objective(instance, labeling, measure) == want


# A path whose second source misses the first, so the search stops there,
# and a triangle of zero-weight edges every source spans.
@example((Instance(StaticGraph(4, ((0, 1), (1, 2), (2, 3))), frozenset({0, 2, 3}),
                   TraversalSpec.uniform(3, 1), (1, 1, 1), 6), Labeling(((1,), (3,), (5,)))))
@example((Instance(StaticGraph(3, ((0, 1), (0, 2), (1, 2))), frozenset({0, 1}),
                   TraversalSpec.from_maps([0, 0, 0], {2: {2: 1}}), (2, 2, 2), 3),
          Labeling(((1, 2), (1, 3), (2,)))))
@settings(max_examples=400, deadline=None)
@given(objective_cases())
def test_st_and_mh_objectives_match_the_reference_searches(case):
    instance, labeling = case
    graph = instance.graph
    table = CandidateTable(labeling, instance.traversal)
    feasible = all(reference._reaches_all(graph, table, s) for s in instance.sources)
    for measure in (Measure.SHORTEST_TRAVEL, Measure.MIN_HOP):
        want = None
        if feasible:
            want = max(cost for s in instance.sources
                       for cost, _ in reference.st_mh_search(graph, table, s, measure).values())
        assert objective(instance, labeling, measure) == want


@settings(max_examples=300, deadline=None)
@given(networks(max_vertices=4), st.data())
def test_schedule_candidates_match_the_reference(network, data):
    # Zero weights, overrides at scheduled times and empty rows all occur;
    # ``lo`` runs from below every label to past tau.
    graph, traversal, tau = network
    labeling = data.draw(labelings(graph, tau))
    for availability in (labeling, labeling.times_by_edge):
        table = CandidateTable(availability, traversal)
        for e in range(graph.edge_count):
            for lo in range(tau + 3):
                want = reference._min_candidates(labeling, traversal, e, lo)
                assert list(table.candidates(e, lo)) == [(t, t + w) for t, w in want]


@settings(max_examples=200, deadline=None)
@given(searches(max_vertices=5))
def test_min_wait_matches_reference(case):
    graph, traversal, availability, source, _ = case
    best = _min_wait_run(graph, CandidateTable(availability, traversal), source)
    got = {
        v: (waiting, _chain_path(graph, source, steps).steps)
        for v, (waiting, steps) in best.items()
    }
    assert got == reference._min_wait_run(graph, availability, traversal, source)


@st.composite
def min_wait_searches(draw):
    """(graph, traversal, availability, source) on up to 8 vertices, with
    zero weights and override times near 1 and near tau; a labeling may
    leave edges without labels, and the graph need not be connected."""
    n = draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10))
    tau = draw(st.integers(1, 12))
    weights = st.integers(0, 3)
    near = st.sampled_from(sorted({1, 2, max(tau - 1, 1), tau}))
    defaults = [draw(weights) for _ in edges]
    overrides = {e: draw(st.dictionaries(near, weights, max_size=3)) for e in range(len(edges))}
    graph = StaticGraph(n, tuple(edges))
    if draw(st.booleans()):
        availability = FullAvailability(tau)
    else:
        availability = draw(labelings(graph, tau))
    source = draw(st.integers(0, n - 1))
    return graph, TraversalSpec.from_maps(defaults, overrides), availability, source


# Two zero-weight edges give vertices 2 and 1 the same arrival, 4; vertex 4
# is reached through 1 with waiting 4, the largest, so it is lost by a seed
# that climbs the forest in arrival order or that skips prefixes reaching
# the forest's largest waiting.
@example((StaticGraph(5, ((0, 3), (2, 3), (1, 2), (1, 4))),
          TraversalSpec.from_maps([1, 0, 0, 1], {}), Labeling(((1,), (4,), (4,), (6,))), 0))
@settings(max_examples=300, deadline=None)
@given(min_wait_searches())
def test_seeded_min_wait_matches_the_unseeded_search(case):
    graph, traversal, availability, source = case
    table = CandidateTable(availability, traversal)
    assert _min_wait_run(graph, table, source) == reference._min_wait_run_unseeded(
        graph, table, source)


# A zero-weight triangle, an arrival past tau on the full temporal graph,
# and a labeling that leaves an edge without labels.
@example((StaticGraph(3, ((0, 1), (0, 2), (1, 2))), TraversalSpec.uniform(3, 0),
          FullAvailability(2), 0, 1))
@example((StaticGraph(3, ((0, 1), (1, 2))), TraversalSpec.from_maps([1, 4], {0: {2: 0}}),
          FullAvailability(3), 0, 1))
@example((StaticGraph(3, ((0, 1), (1, 2))), TraversalSpec.uniform(2, 1),
          Labeling(((1,), ())), 0, 1))
@settings(max_examples=300, deadline=None)
@given(searches())
def test_st_mh_match_reference(case):
    graph, traversal, availability, source, _ = case
    table = CandidateTable(availability, traversal)
    for measure in (Measure.SHORTEST_TRAVEL, Measure.MIN_HOP):
        fronts = _cost_fronts(graph, table, source, measure)
        frontier = reference._pareto_run(graph, table, source, measure is Measure.MIN_HOP)
        assert {v: [(k, a) for k, a, _ in front] for v, front in enumerate(fronts) if front} == {
            v: sorted((s.cost, s.arrival) for s in states)
            for v, states in frontier.items() if v != source and states
        }
        values, witnesses = _search(graph, table, source, measure)
        want = reference.st_mh_search(graph, table, source, measure)
        assert {v: x for v, x in enumerate(values) if x is not None} == {
            v: cost for v, (cost, _) in want.items()
        }
        for v, path in witnesses(list(want)).items():
            assert path.endpoints == (source, v)
            # Simple, on available times, and time-respecting.
            assert validate_path(path, availability, traversal, graph)
            assert measure.statistic(path_stats(path, traversal)) == values[v]
            assert _search(graph, table, source, measure, target=v)[0][v] == values[v]


@settings(max_examples=200, deadline=None)
@given(searches(max_vertices=5))
def test_reaches_all_matches_exhaustive(case):
    graph, traversal, availability, source, _ = case
    reached = oracles.exhaustive_reachable(graph, availability, traversal, source)
    assert reaches_all(graph, availability, traversal, source) == (
        reached == set(range(graph.vertex_count))
    )


# A source of degree one on a zero-weight path, and a source of degree three
# whose edges have overrides, one of them at weight zero and one arriving
# past tau.
@example((StaticGraph(4, ((0, 1), (1, 2), (2, 3))), TraversalSpec.uniform(3, 0), 3, 0))
@example((
    StaticGraph(5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4))),
    TraversalSpec.from_maps([1, 2, 0, 1, 3], {0: {2: 0}, 1: {1: 5, 3: 1}, 4: {4: 0}}),
    4, 0,
))
@settings(max_examples=300, deadline=None)
@given(networks().flatmap(lambda net: st.tuples(
    st.just(net[0]), st.just(net[1]), st.just(net[2]),
    st.integers(0, net[0].vertex_count - 1),
)))
def test_max_stats_match_reference(case):
    graph, traversal, tau, source = case
    table = CandidateTable(FullAvailability(tau), traversal)
    max_dur, max_wait = _max_stats(graph, table, source)
    want = reference._max_stats_run(graph, FullAvailability(tau), traversal, source)
    assert (
        {v: d for v, d in enumerate(max_dur) if d is not None},
        {v: w for v, w in enumerate(max_wait) if w is not None},
    ) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ld_tree_matches_reference(data):
    graph, traversal, tau = data.draw(networks(min_vertices=2))  # an Instance has two or more
    root = data.draw(st.integers(0, graph.vertex_count - 1))
    instance = Instance(graph, frozenset({root}), traversal, (1,) * graph.edge_count, tau)
    availability = data.draw(st.none() | labelings(graph, tau))
    try:
        want = reference.build_ld_tsot(root, instance, availability).parent
    except Unreachable:
        want = Unreachable
    try:
        got = build_ld_tsot(root, instance, availability).parent
    except Unreachable:
        got = Unreachable
    assert got == want


@st.composite
def ld_solves(draw):
    """(instance, availability): one or two sources (at most tau) on
    ``networks()``, every multiplicity the source count, and a labeling or
    None (the full temporal graph)."""
    graph, traversal, tau = draw(networks(min_vertices=2))  # an Instance has two or more
    sources = draw(st.sets(st.integers(0, graph.vertex_count - 1), min_size=1,
                           max_size=min(2, tau)))
    instance = Instance(graph, frozenset(sources), traversal,
                        (len(sources),) * graph.edge_count, tau)
    return instance, draw(st.none() | labelings(graph, tau))


# A zero-weight triangle; an arrival past tau on the full temporal graph,
# where the floor sits below the far vertex's first departure; two sources
# on one path; and a labeling that leaves an edge without labels.
@example((Instance(StaticGraph(3, ((0, 1), (0, 2), (1, 2))), frozenset({0}),
                   TraversalSpec.uniform(3, 0), (1, 1, 1), 3), None))
@example((Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0}),
                   TraversalSpec.from_maps([1, 4], {0: {2: 0}}), (1, 1), 3), None))
@example((Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0, 2}),
                   TraversalSpec.uniform(2, 1), (2, 2), 4), None))
@example((Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0}),
                   TraversalSpec.uniform(2, 1), (1, 1), 3), Labeling(((1, 3), ()))))
@settings(max_examples=400, deadline=None)
@given(ld_solves())
def test_ld_floor_and_tree_match_the_reference_sweep(case):
    instance, availability = case
    graph = instance.graph
    avail = instance.full_availability() if availability is None else availability
    table = CandidateTable(avail, instance.traversal)
    unreachable = False
    want_labeling = Labeling.empty(graph.edge_count)
    for root in sorted(instance.sources):
        others = [v for v in range(graph.vertex_count) if v != root]
        found = _ld_floor(graph, table, root)
        floor = None if found is None else found[0]
        try:
            want_tree = reference.build_ld_tsot(root, instance, availability)
        except Unreachable:
            assert floor is None
            unreachable = True
            continue
        latest = reference._latest_departures(graph, table, root, others)
        assert floor == min(latest[v] for v in others)
        tree = build_ea_tsot(root, instance, availability, start=floor)
        assert tree.is_valid(graph)
        for v in others:
            while tree.parent[v][2] != root:
                v = tree.parent[v][2]
            assert tree.parent[v][1] >= floor  # the path departs the root then or later
        want_labeling = want_labeling.union(want_tree.to_labeling(graph.edge_count))
    if availability is not None:
        return
    solves = [solve_multi_full_mu]
    if len(instance.sources) == 1:
        solves.append(solve_single_source)
    for solve in solves:
        if unreachable:
            with pytest.raises(Unreachable):
                solve(instance, Measure.LATEST_DEPARTURE)
        else:
            got = solve(instance, Measure.LATEST_DEPARTURE).objective
            assert got == objective(instance, want_labeling, Measure.LATEST_DEPARTURE)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_connected_after_removal_matches_reference(data):
    graph, _, _ = data.draw(networks(max_vertices=7, max_edges=12))
    drop = data.draw(st.lists(st.booleans(), min_size=graph.edge_count,
                              max_size=graph.edge_count))
    removed = {e for e, dropped in enumerate(drop) if dropped}
    assert connected_after_removal(graph, removed) == reference.connected_after_removal(
        graph, removed)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nonseparating_path_matches_reference(data):
    graph, _, _ = data.draw(networks(max_vertices=7, max_edges=12))
    s1, s2 = data.draw(st.tuples(*[st.integers(0, graph.vertex_count - 1)] * 2))
    want = next(reference.nonseparating_paths(graph, s1, s2), None)
    assert find_nonseparating_path(graph, s1, s2) == want



@st.composite
def tree_instances(draw, max_vertices=8, min_multiplicity=2):
    """Instances on random trees with one to three sources and every
    multiplicity at least ``min_multiplicity``; weights start at zero and run
    past tau."""
    n = draw(st.integers(2, max_vertices))
    names = draw(st.permutations(range(n)))
    edges = tuple(
        tuple(sorted((names[draw(st.integers(0, v - 1))], names[v]))) for v in range(1, n)
    )
    tau = draw(st.integers(2, 6))
    weights = st.integers(0, tau + 2)
    defaults = [draw(weights) for _ in edges]
    overrides = {e: draw(st.dictionaries(st.integers(1, tau), weights, max_size=2))
                 for e in range(len(edges))}
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    multiplicity = tuple(draw(st.integers(min_multiplicity, tau)) for _ in edges)
    return Instance(StaticGraph(n, edges), frozenset(sources),
                    TraversalSpec.from_maps(defaults, overrides), multiplicity, tau)


# Zero-weight edges, where distances cannot tell the two sides of an edge
# apart, with sources on both sides of the middle edge.
@example(Instance(StaticGraph(4, ((0, 1), (1, 2), (2, 3))), frozenset({0, 3}),
                  TraversalSpec.uniform(3, 0), (2, 2, 2), 3), Measure.EARLIEST_ARRIVAL)
@settings(max_examples=300, deadline=None)
@given(tree_instances(), st.sampled_from([Measure.EARLIEST_ARRIVAL, Measure.LATEST_DEPARTURE]))
def test_solve_tree_matches_reference(instance, measure):
    try:
        want = reference.solve_tree(instance, measure)
    except TmbError as err:
        want = type(err)
    try:
        got = solve_tree(instance, measure)
    except TmbError as err:
        got = type(err)
    assert got == want


# One source: no edge lies between two sources.
@example(Instance(StaticGraph(4, ((0, 1), (1, 2), (2, 3))), frozenset({1}),
                  TraversalSpec.uniform(3, 1), (1, 1, 1), 3))
# Every vertex a source: every edge counts, the middle one has mu 1.
@example(Instance(StaticGraph(4, ((0, 1), (1, 2), (2, 3))), frozenset({0, 1, 2, 3}),
                  TraversalSpec.uniform(3, 1), (2, 1, 2), 3))
# A star whose leaves are the sources: every edge counts, the last has mu 1.
@example(Instance(StaticGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4))), frozenset({1, 2, 3, 4}),
                  TraversalSpec.uniform(4, 1), (2, 2, 2, 1), 3))
@settings(max_examples=300, deadline=None)
@given(tree_instances(max_vertices=10, min_multiplicity=1))
def test_tree_mu_diagnostic_matches_reference(instance):
    assert tree_mu_diagnostic(instance) == reference.tree_mu_diagnostic(instance)


@st.composite
def oracle_instances(draw, max_labelings=400):
    """Instances with one or two sources whose cross product of maximal
    label sets stays small: an edge whose subsets would push it past
    ``max_labelings`` gets multiplicity tau, a single choice.  Graphs may
    be disconnected and quotas tight, so infeasible instances occur."""
    graph, traversal, tau = draw(networks(max_vertices=5, max_edges=6, min_vertices=2))
    sources = draw(st.sets(st.integers(0, graph.vertex_count - 1), min_size=1, max_size=2))
    multiplicity = []
    space = 1
    for _ in graph.edges:
        mu = draw(st.integers(1, tau))
        if space * math.comb(tau, mu) > max_labelings:
            mu = tau
        space *= math.comb(tau, mu)
        multiplicity.append(mu)
    return Instance(graph, frozenset(sources), traversal, tuple(multiplicity), tau)


# A single-choice edge (mu = tau) between two branching ones; two sources
# that no labeling serves (one label per edge on a path), under a measure
# whose pair search decides feasibility by itself and under the two that
# run the kernel first; and two sources on zero-weight edges with optimal
# labelings after the first one, which a search replacing its best on a tie
# would return.
@example(
    Instance(StaticGraph(4, ((0, 1), (1, 2), (2, 3))), frozenset({0}),
             TraversalSpec.from_maps([1, 0, 2], {1: {2: 3}}), (1, 3, 2), 3),
    Measure.MIN_WAIT,
)
@example(
    Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0, 2}),
             TraversalSpec.uniform(2, 1), (1, 1), 3),
    Measure.EARLIEST_ARRIVAL,
)
@example(
    Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0, 2}),
             TraversalSpec.uniform(2, 1), (1, 1), 3),
    Measure.FASTEST,
)
@example(
    Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0, 2}),
             TraversalSpec.uniform(2, 1), (1, 1), 3),
    Measure.MIN_WAIT,
)
@example(
    Instance(StaticGraph(4, ((0, 2), (0, 3), (2, 3), (1, 2))), frozenset({0, 1}),
             TraversalSpec.from_maps([0, 0, 0, 1], {2: {4: 1}}), (1, 1, 1, 1), 4),
    Measure.LATEST_DEPARTURE,
)
@settings(max_examples=300, deadline=None)
@given(oracle_instances(), st.sampled_from(list(Measure)))
def test_brute_force_matches_reference(instance, measure):
    got = brute_force(instance, measure)
    want = reference.brute_force(instance, measure)
    assert (got.status, got.objective, got.labeling.times_by_edge) == (
        want.status, want.objective, want.labeling.times_by_edge
    )
    assert got.per_source_distances == want.per_source_distances
