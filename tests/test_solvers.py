from __future__ import annotations

import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmbcast.core import (
    FullAvailability,
    Instance,
    Labeling,
    MultiplicityTooSmall,
    NotATree,
    SearchSpaceTooLarge,
    StaticGraph,
    TraversalSpec,
    Unreachable,
    ValidationError,
    WrongSourceCount,
    is_feasible,
)
from tmbcast.distances import Bounds, Measure, distance, ft_mw_bounds, objective, sssp
from tmbcast.solvers import (
    NoTractableRegime,
    OracleLimits,
    SolveStatus,
    _space_size_within,
    add_super_source,
    approx_ft_mw,
    brute_force,
    pick_regime,
    search_space_size,
    solve_auto,
    solve_multi_full_mu,
    solve_single_source,
    solve_tree,
    tree_mu_diagnostic,
)

import worked_example as fig
import oracles

EA = Measure.EARLIEST_ARRIVAL
LD = Measure.LATEST_DEPARTURE
FT = Measure.FASTEST
MW = Measure.MIN_WAIT


def reachable_instance(rng, **kwargs):
    """Random instance whose sources reach everything in the full graph."""
    while True:
        inst = oracles.random_instance(rng, **kwargs)
        avail = FullAvailability(inst.tau)
        from tmbcast.core import reaches_all

        if all(
            reaches_all(inst.graph, avail, inst.traversal, s)
            for s in inst.sources
        ):
            return inst


def check_result_invariants(inst, result, measure):
    assert result.labeling.respects_multiplicity(inst)
    if result.status is not SolveStatus.INFEASIBLE:
        assert is_feasible(inst, result.labeling)
        assert objective(inst, result.labeling, measure) == result.objective


# ---------------------------------------------------------------------------
# solve_single_source


def test_single_source_star_ea():
    graph = StaticGraph(4, ((0, 1), (0, 2), (0, 3)))
    trav = TraversalSpec.from_maps((5, 5, 5), {0: {1: 1}, 1: {2: 2}, 2: {3: 1}})
    inst = Instance(graph, frozenset({0}), trav, (1, 1, 1), 5)
    result = solve_single_source(inst, EA)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 4  # spoke arrivals 2, 4, 4
    check_result_invariants(inst, result, EA)


def test_single_source_rejects_multi_source():
    inst = fig.build_instance()
    with pytest.raises(WrongSourceCount):
        solve_single_source(inst, EA)


def test_single_source_rejects_an_approximation_measure():
    graph = StaticGraph(2, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1,), 2)
    with pytest.raises(ValidationError, match="solve_single_source supports only ea/ld"):
        solve_single_source(inst, Measure.FASTEST)


def test_single_source_unreachable():
    graph = StaticGraph(3, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1,), 2)
    with pytest.raises(Unreachable):
        solve_single_source(inst, EA)


def test_ea_solve_searches_each_source_once(monkeypatch):
    import tmbcast.core as core
    import tmbcast.distances as distances
    import tmbcast.tsot as tsot

    # A 3x3 grid with unit weights, one source in a corner.
    edges = [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
    edges += [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)]
    graph = StaticGraph(9, tuple(edges))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(12, 1), (1,) * 12, 8)
    searched = []
    kernel = core.earliest_arrival

    def counting(graph, table, source, **kwargs):
        searched.append(source)
        return kernel(graph, table, source, **kwargs)

    for module in (core, distances, tsot):
        monkeypatch.setattr(module, "earliest_arrival", counting)
    assert solve_single_source(inst, EA).objective == 5
    # The tree's search, which also decides reachability; the schedule's
    # distances come from the tree.
    assert searched == [0]


def count_kernel_runs(monkeypatch) -> dict[str, list[int]]:
    """Count the sources of every forward and backward kernel run, split by
    table: ``full`` for the full temporal graph, ``schedule`` for a
    labeling."""
    import tmbcast.core as core
    import tmbcast.distances as distances
    import tmbcast.tsot as tsot

    runs = {"full": [], "schedule": []}

    def counting(kernel):
        def run(graph, table, source, *args, **kwargs):
            runs["schedule" if table.tau is None else "full"].append(source)
            return kernel(graph, table, source, *args, **kwargs)
        return run

    for name in ("earliest_arrival", "latest_departure"):
        wrapped = counting(getattr(core, name))
        for module in (core, distances, tsot):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    return runs


def grid3(tau: int, sources, mu: int) -> Instance:
    """A 3x3 grid with unit weights and one zero-weight override."""
    edges = [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
    edges += [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)]
    traversal = TraversalSpec.from_maps((1,) * 12, {4: {2: 0}})
    return Instance(StaticGraph(9, tuple(edges)), frozenset(sources), traversal,
                    (mu,) * 12, tau)


def test_multi_source_ea_runs_once_per_source_on_the_full_graph(monkeypatch):
    runs = count_kernel_runs(monkeypatch)
    inst = grid3(8, {0, 8, 4}, 3)
    result = solve_multi_full_mu(inst, EA)
    # One tree per source, which also decides reachability; every pair
    # value comes from the source's tree.
    assert runs == {"full": [0, 4, 8], "schedule": []}
    pairs = result.per_source_distances
    assert pairs == distances_on_schedule(inst, result.labeling, EA)
    assert result.objective == objective(inst, result.labeling, EA)


@pytest.mark.parametrize("solve, measure", [
    (solve_single_source, LD), (approx_ft_mw, FT), (approx_ft_mw, MW),
])
def test_tree_schedules_are_not_searched_again(monkeypatch, solve, measure):
    runs = count_kernel_runs(monkeypatch)
    inst = grid3(8, {0}, 1)
    result = solve(inst, measure)
    assert runs["full"] and not runs["schedule"]
    pairs = result.per_source_distances
    assert pairs == distances_on_schedule(inst, result.labeling, measure)
    assert result.objective == objective(inst, result.labeling, measure)


def distances_on_schedule(inst, labeling, measure):
    """Every (source, vertex) value from ``sssp`` on the schedule."""
    return {
        (s, v): r.value
        for s in sorted(inst.sources)
        for v, r in enumerate(sssp(s, labeling, inst, measure))
        if v != s
    }


def test_ld_solve_bisects_for_the_floor(monkeypatch):
    import tmbcast.core as core
    import tmbcast.distances as distances
    import tmbcast.tsot as tsot

    # A 10x10 grid with weight 3 and a few overrides: the far corner is 54
    # time units from either source, so a sweep down from tau would take
    # some 55 runs per source before every vertex is reached.
    k, tau = 10, 1000
    edges = [(r * k + c, r * k + c + 1) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c, r * k + c + k) for r in range(k - 1) for c in range(k)]
    graph = StaticGraph(k * k, tuple(edges))
    traversal = TraversalSpec.from_maps([3] * len(edges), {0: {990: 0}, 7: {995: 1}})
    searched = []
    kernel = core.earliest_arrival

    def counting(graph, table, source, **kwargs):
        if table.tau is not None:  # the full graph, not the written schedule
            searched.append(source)
        return kernel(graph, table, source, **kwargs)

    for module in (core, distances, tsot):
        monkeypatch.setattr(module, "earliest_arrival", counting)
    most = math.ceil(math.log2(tau)) + 2  # at most a bisection over 1..tau and the tree's run
    for solve, sources in ((solve_single_source, {0}), (solve_multi_full_mu, {0, k * k - 1})):
        inst = Instance(graph, frozenset(sources), traversal, (len(sources),) * len(edges), tau)
        searched.clear()
        result = solve(inst, LD)
        for s in sources:
            assert 0 < searched.count(s) <= most
        floors = [
            min(r.value for v, r in enumerate(sssp(s, FullAvailability(tau), inst, LD)) if v != s)
            for s in sources
        ]
        assert result.objective == min(floors)


@pytest.mark.parametrize("measure", [EA, LD])
def test_unreachable_solves_name_the_first_source_that_misses_a_vertex(measure):
    graph = StaticGraph(4, ((0, 1), (2, 3)))
    traversal = TraversalSpec.uniform(2, 1)
    cases = (
        (solve_single_source, Instance(graph, frozenset({0}), traversal, (1, 1), 3)),
        (solve_multi_full_mu, Instance(graph, frozenset({3, 1}), traversal, (2, 2), 3)),
    )
    for solve, inst in cases:
        first = min(inst.sources)
        with pytest.raises(Unreachable) as err:
            solve(inst, measure)
        assert str(err.value) == (
            f"source {first} cannot reach every vertex even in the full graph"
        )


@pytest.mark.parametrize("measure", [EA, LD])
def test_a_vertex_without_edges_fails_solve_before_any_search(monkeypatch, measure):
    import tmbcast.core as core
    import tmbcast.distances as distances
    import tmbcast.tsot as tsot

    # More than twice as many vertices as edges leaves a vertex with no
    # edge: Unreachable for the first source, with no search and nothing
    # allocated per vertex.
    for module in (core, distances, tsot):
        monkeypatch.setattr(module, "earliest_arrival", None)
    for module in (core, distances):
        monkeypatch.setattr(module, "latest_departure", None)
    graph = StaticGraph(10**6, ((0, 1),))
    traversal = TraversalSpec.uniform(1, 1)
    cases = (
        (solve_single_source, Instance(graph, frozenset({0}), traversal, (1,), 5)),
        (solve_multi_full_mu, Instance(graph, frozenset({7, 3}), traversal, (2,), 5)),
    )
    for solve, inst in cases:
        with pytest.raises(Unreachable) as err:
            solve(inst, measure)
        assert str(err.value) == (
            f"source {min(inst.sources)} cannot reach every vertex even in the full graph"
        )
    assert "adjacency" not in vars(graph)


def test_single_source_matches_oracle():
    rng = random.Random(900)
    for trial in range(30):
        inst = reachable_instance(
            rng, n=rng.randint(2, 5), extra_edges=rng.randint(0, 2),
            tau=rng.randint(2, 4), mu_choices=(1, 2), source_count=1,
        )
        if search_space_size(inst) > 40_000:
            continue
        for m in (EA, LD):
            got = solve_single_source(inst, m)
            want = brute_force(inst, m)
            assert want.status is SolveStatus.OPTIMAL
            assert got.objective == want.objective, (inst, m.code)
            check_result_invariants(inst, got, m)


def test_single_source_worked_example_m_only():
    inst0 = fig.build_instance()
    inst = Instance(
        inst0.graph, frozenset({fig.M}), inst0.traversal, inst0.multiplicity, inst0.tau
    )
    got = solve_single_source(inst, EA)
    assert got.objective <= 10
    # Brute force over the listed schedule options per edge: labels at
    # sentinel-weight times arrive later than any listed option, so the
    # optimum over option combinations is the true optimum.
    import itertools

    option_times = [
        [t for t, _ in inst.traversal.overrides[e]]
        for e in range(inst.graph.edge_count)
    ]
    best = None
    for combo in itertools.product(*option_times):
        lab = Labeling(tuple((t,) for t in combo))
        value = objective(inst, lab, EA)
        if value is not None and (best is None or value < best):
            best = value
    assert got.objective == best
    check_result_invariants(inst, got, EA)


def test_single_source_ea_per_vertex_optimality():
    rng = random.Random(901)
    for _ in range(20):
        inst = reachable_instance(
            rng, n=rng.randint(2, 6), extra_edges=rng.randint(0, 3),
            tau=rng.randint(1, 5), source_count=1,
        )
        (s,) = inst.sources
        got = solve_single_source(inst, EA)
        full = sssp(s, FullAvailability(inst.tau), inst, EA)
        for v in range(inst.graph.vertex_count):
            if v == s:
                continue
            assert got.per_source_distances[(s, v)] == full[v].value


def test_single_source_ld_bound_per_vertex():
    rng = random.Random(902)
    for _ in range(20):
        inst = reachable_instance(
            rng, n=rng.randint(2, 6), extra_edges=rng.randint(0, 3),
            tau=rng.randint(1, 5), source_count=1,
        )
        (s,) = inst.sources
        got = solve_single_source(inst, LD)
        full = sssp(s, FullAvailability(inst.tau), inst, LD)
        floor = min(
            full[v].value for v in range(inst.graph.vertex_count) if v != s
        )
        for v in range(inst.graph.vertex_count):
            if v == s:
                continue
            assert got.per_source_distances[(s, v)] >= floor
        assert got.objective == floor


# ---------------------------------------------------------------------------
# solve_multi_full_mu


def test_multi_full_mu_two_source_path():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(
        graph, frozenset({0, 2}), TraversalSpec.uniform(2, 1), (2, 2), 3
    )
    result = solve_multi_full_mu(inst, EA)
    assert result.status is SolveStatus.OPTIMAL
    check_result_invariants(inst, result, EA)
    assert all(len(ts) <= 2 for ts in result.labeling.times_by_edge)
    want = brute_force(inst, EA)
    assert result.objective == want.objective


def test_multi_full_mu_requires_capacity():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(
        graph, frozenset({0, 2}), TraversalSpec.uniform(2, 1), (1, 2), 3
    )
    with pytest.raises(MultiplicityTooSmall):
        solve_multi_full_mu(inst, EA)


def test_multi_full_mu_label_count_bounded_by_sources():
    rng = random.Random(903)
    for _ in range(15):
        inst = reachable_instance(
            rng, n=rng.randint(3, 5), extra_edges=rng.randint(0, 2),
            tau=4, mu_choices=(2,), source_count=2,
        )
        result = solve_multi_full_mu(inst, EA)
        assert all(len(ts) <= 2 for ts in result.labeling.times_by_edge)


def test_multi_full_mu_matches_oracle():
    rng = random.Random(904)
    done = 0
    while done < 20:
        inst = reachable_instance(
            rng, n=rng.randint(2, 5), extra_edges=rng.randint(0, 1),
            tau=rng.randint(2, 4), mu_choices=(2,), source_count=2,
        )
        if search_space_size(inst) > 40_000:
            continue
        for m in (EA, LD):
            got = solve_multi_full_mu(inst, m)
            want = brute_force(inst, m)
            assert got.objective == want.objective
            check_result_invariants(inst, got, m)
        done += 1


# ---------------------------------------------------------------------------
# solve_tree


def test_tree_single_source_degenerates():
    rng = random.Random(905)
    for _ in range(10):
        inst = reachable_instance(
            rng, n=rng.randint(2, 6), tau=rng.randint(2, 5),
            mu_choices=(2,), source_count=1, tree=True,
        )
        a = solve_tree(inst, EA)
        b = solve_single_source(inst, EA)
        assert a.objective == b.objective


def test_tree_output_has_at_most_two_labels_per_edge():
    rng = random.Random(906)
    for _ in range(15):
        inst = reachable_instance(
            rng, n=rng.randint(3, 6), tau=rng.randint(2, 5),
            mu_choices=(2,), source_count=rng.randint(2, 3), tree=True,
        )
        result = solve_tree(inst, EA)
        assert all(len(ts) <= 2 for ts in result.labeling.times_by_edge)
        check_result_invariants(inst, result, EA)


def test_tree_matches_oracle():
    rng = random.Random(907)
    done = 0
    while done < 20:
        sc = rng.randint(2, 3)
        inst = reachable_instance(
            rng, n=rng.randint(sc, 5), tau=rng.randint(2, 4),
            mu_choices=(2,), source_count=sc, tree=True,
        )
        if search_space_size(inst) > 40_000:
            continue
        for m in (EA, LD):
            got = solve_tree(inst, m)
            want = brute_force(inst, m)
            assert got.objective == want.objective, (inst, m.code)
            check_result_invariants(inst, got, m)
        done += 1


def test_tree_rejects_cycles_and_small_mu():
    graph = StaticGraph(3, ((0, 1), (1, 2), (0, 2)))
    inst = Instance(
        graph, frozenset({0, 2}), TraversalSpec.uniform(3, 1), (2, 2, 2), 3
    )
    with pytest.raises(NotATree):
        solve_tree(inst, EA)
    with pytest.raises(NotATree):
        tree_mu_diagnostic(inst)
    tree_inst = Instance(
        StaticGraph(3, ((0, 1), (1, 2))),
        frozenset({0, 2}),
        TraversalSpec.uniform(2, 1),
        (1, 2),
        3,
    )
    with pytest.raises(MultiplicityTooSmall):
        solve_tree(tree_inst, EA)


def test_tree_mu_diagnostic():
    # 0 -- 1 -- 2 with a leaf 3 off vertex 1; sources 0 and 2.
    graph = StaticGraph(4, ((0, 1), (1, 2), (1, 3)))
    inst = Instance(
        graph, frozenset({0, 2}), TraversalSpec.uniform(3, 1), (2, 2, 1), 3
    )
    assert tree_mu_diagnostic(inst)  # leaf edge may have mu 1
    inst2 = Instance(
        graph, frozenset({0, 2}), TraversalSpec.uniform(3, 1), (1, 2, 2), 3
    )
    assert not tree_mu_diagnostic(inst2)


def between_two_sources(inst, e):
    """Whether both sides of the tree split at edge ``e`` hold a source."""
    u, _ = inst.graph.edges[e]
    side, stack = {u}, [u]
    while stack:
        for f, w in inst.graph.incident(stack.pop()):
            if f != e and w not in side:
                side.add(w)
                stack.append(w)
    return bool(inst.sources & side) and bool(inst.sources - side)


@st.composite
def random_trees(draw):
    """``oracles.random_instance`` on trees: n 3-7, tau 2-5, 2-3 sources and
    quotas of 1 or 2."""
    n, tau, source_count = draw(st.integers(3, 7)), draw(st.integers(2, 5)), draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return oracles.random_instance(rng, n=n, tau=tau, mu_choices=(1, 2),
                                   source_count=source_count, tree=True)


# Sources 0 and 2 on the path 0-1-2, and quota 1 on the leaf edge 1-3.
@example(Instance(StaticGraph(4, ((0, 1), (1, 2), (1, 3))), frozenset({0, 2}),
                  TraversalSpec.uniform(3, 1), (2, 2, 1), 3), EA)
# Quota 1 on the edge between the sources 0 and 2, and on the leaf edge.
@example(Instance(StaticGraph(4, ((0, 1), (1, 2), (1, 3))), frozenset({0, 2}),
                  TraversalSpec.uniform(3, 1), (2, 1, 1), 3), LD)
@settings(max_examples=600, deadline=None)
@given(random_trees(), st.sampled_from([EA, LD]))
def test_tree_regime_under_its_diagnostic_matches_the_oracle(inst, measure):
    # The tree regime holds exactly when no edge between two sources has
    # quota 1.  An instance that fails it must be refused, and is then
    # solved with those quotas raised to 2 and every other quota kept.
    thin = [e for e, mu in enumerate(inst.multiplicity) if mu == 1 and between_two_sources(inst, e)]
    assert tree_mu_diagnostic(inst) == (not thin)
    if thin:
        with pytest.raises(MultiplicityTooSmall, match=f"edge {thin[0]} lies between two sources"):
            solve_tree(inst, measure)
        # Two or more sources, and an edge with quota 1 < |S|: neither the
        # single-source nor the full-quota regime applies either.
        with pytest.raises(NoTractableRegime):
            pick_regime(inst, measure)
        multiplicity = tuple(2 if e in thin else mu for e, mu in enumerate(inst.multiplicity))
        inst = Instance(inst.graph, inst.sources, inst.traversal, multiplicity, inst.tau)
    assert pick_regime(inst, measure) in ("multi-source-full-mu", "tree")
    # At most 6 edges with 10 label sets each: the whole space fits the cap.
    want = brute_force(inst, measure, OracleLimits(max_labelings=10**6))
    if want.status is SolveStatus.INFEASIBLE:
        with pytest.raises(Unreachable):
            solve_tree(inst, measure)
        return
    got = solve_tree(inst, measure)
    assert (got.status, got.objective) == (SolveStatus.OPTIMAL, want.objective), inst
    check_result_invariants(inst, got, measure)


# ---------------------------------------------------------------------------
# approx_ft_mw


def test_approx_ratio_one_when_durations_identical():
    graph = StaticGraph(4, ((0, 1), (0, 2), (0, 3)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(3, 1), (1,) * 3, 1)
    result = approx_ft_mw(inst, FT)
    assert result.status is SolveStatus.APPROXIMATE
    assert result.bounds.ft_min == result.bounds.ft_max == 1
    assert result.objective == 1
    check_result_invariants(inst, result, FT)


def test_approx_certificate_random():
    rng = random.Random(908)
    done = 0
    while done < 25:
        inst = reachable_instance(
            rng, n=rng.randint(2, 5), extra_edges=rng.randint(0, 1),
            tau=rng.randint(2, 4), mu_choices=(1, 2), source_count=1,
        )
        if search_space_size(inst) > 20_000:
            continue
        for m in (FT, MW):
            got = approx_ft_mw(inst, m)
            check_result_invariants(inst, got, m)
            b = got.bounds
            hi = b.ft_max if m is FT else b.mw_max
            lo = b.ft_min if m is FT else b.mw_min
            assert got.objective <= hi
            opt = brute_force(inst, m)
            assert opt.status is SolveStatus.OPTIMAL
            assert opt.objective >= lo
            assert got.objective >= opt.objective
        done += 1


def test_approx_on_a_path_longer_than_the_recursion_limit():
    # Zero weights except the last edge's 1, so from vertex 0 every path
    # starts at time 1 and arrives at time 1 until that edge.  The longest
    # duration (to the far end, last step at tau) is tau and the longest
    # waiting tau - 1; the far end needs duration 1, every waiting can be 0.
    n = sys.getrecursionlimit() + 100
    tau = 3
    graph = StaticGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    traversal = TraversalSpec((0,) * (n - 2) + (1,), ((),) * (n - 1))
    inst = Instance(graph, frozenset({0}), traversal, (1,) * (n - 1), tau)
    got = approx_ft_mw(inst, FT)
    assert got.bounds == Bounds(ft_min=1, ft_max=tau, mw_min=0, mw_max=tau - 1)
    assert 1 <= got.objective <= tau
    assert 0 <= objective(inst, got.labeling, MW) <= tau - 1
    check_result_invariants(inst, got, FT)


def test_approx_rejects_multi_source():
    inst = fig.build_instance()
    with pytest.raises(WrongSourceCount):
        approx_ft_mw(inst, FT)


# ---------------------------------------------------------------------------
# brute_force


def test_brute_force_single_edge():
    graph = StaticGraph(2, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1,), 3)
    result = brute_force(inst, EA)
    assert result.objective == 2
    assert result.labeling.times(0) == (1,)


def test_brute_force_lexicographic_tie_break():
    graph = StaticGraph(2, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1,), 2)
    result = brute_force(inst, MW)  # both labels give waiting 0
    assert result.labeling.times(0) == (1,)


def test_brute_force_infeasible():
    # Two sources on a 2-vertex path through a middle vertex, one label each.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(
        graph, frozenset({0, 2}), TraversalSpec.uniform(2, 1), (1, 1), 3
    )
    result = brute_force(inst, EA)
    assert result.status is SolveStatus.INFEASIBLE
    assert result.objective is None


def test_brute_force_space_guard():
    graph = StaticGraph(2, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1,), 5)
    with pytest.raises(SearchSpaceTooLarge) as err:
        brute_force(inst, EA, OracleLimits(max_labelings=3))
    assert err.value.cardinality == 5


# A 2-edge path with tau = 30 has 30 * 30 labelings; each limit below is the
# only one it exceeds, and the refusal names that limit.
@pytest.mark.parametrize("limits, named", [
    (OracleLimits(max_labelings=899, max_tau=30), "900 labelings (labelings limit 899)"),
    (OracleLimits(max_edges=1, max_tau=30), "900 labelings and edges 2 (edges limit 1)"),
    (OracleLimits(), "900 labelings and tau 30 (tau limit 10)"),
])
def test_brute_force_refusal_names_the_limit_exceeded(limits, named):
    inst = Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0}),
                    TraversalSpec.uniform(2, 1), (1, 1), 30)
    with pytest.raises(SearchSpaceTooLarge) as err:
        brute_force(inst, EA, limits)
    assert str(err.value) == f"brute-force search space has {named}"
    assert err.value.cardinality == 900


def test_bounded_space_size_is_exact_up_to_its_bound():
    # Paths of 1-3 edges, every multiplicity mix up to tau, bounds around the
    # exact count: the bounded count is exact at or below its bound, else None.
    for tau in range(1, 9):
        for m in (1, 2, 3):
            graph = StaticGraph(m + 1, tuple((v, v + 1) for v in range(m)))
            for mult in itertools.product(range(1, tau + 1), repeat=m):
                inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(m, 1), mult, tau)
                exact = search_space_size(inst)
                for bound in {1, exact - 1, exact, exact + 1, 10 * exact}:
                    want = exact if exact <= bound else None
                    assert _space_size_within(inst, bound) == want


def test_brute_force_names_a_huge_space_in_bounded_form():
    inst = Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0}),
                    TraversalSpec.uniform(2, 1), (10**4, 10**4), 10**9)
    with pytest.raises(SearchSpaceTooLarge) as err:
        brute_force(inst, EA, OracleLimits(max_edges=2, max_tau=10**9))
    assert str(err.value) == (
        "brute-force search space has more than 1e+18 labelings (labelings limit 500000)")
    assert err.value.cardinality is None


def test_brute_force_stops_at_the_first_leaf_that_meets_the_full_graph_value(monkeypatch):
    import tmbcast.core as core
    import tmbcast.distances as distances

    # A star with unit weights: the first label, 1, on every spoke already
    # gives the full temporal graph's earliest arrival, 2.
    spokes = 4
    graph = StaticGraph(spokes + 1, tuple((0, v) for v in range(1, spokes + 1)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(spokes, 1), (1,) * spokes, 3)
    searched = []
    kernel = core.earliest_arrival

    def counting(graph, table, source, **kwargs):
        searched.append(source)
        return kernel(graph, table, source, **kwargs)

    for module in (core, distances):
        monkeypatch.setattr(module, "earliest_arrival", counting)
    result = brute_force(inst, EA)
    assert result.objective == 2
    assert result.labeling.times_by_edge == ((1,),) * spokes
    # The root and one node per edge down to the first leaf, whose searches
    # also give the winner's distances.  The plain enumeration took two
    # searches for each of the 3**4 labelings.
    assert len(searched) == 1 + spokes


def test_maximal_enumeration_matches_full_subsets():
    rng = random.Random(909)
    done = 0
    while done < 15:
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 4), extra_edges=0, tau=3, mu_choices=(1, 2)
        )
        if inst.graph.edge_count > 3:
            continue
        for m in (EA, LD, FT, Measure.SHORTEST_TRAVEL):
            got = brute_force(inst, m)
            want = oracles.exhaustive_optimum(
                inst, m.code, labelings=oracles.all_labelings(inst)
            )
            assert got.objective == want
        done += 1


def test_brute_force_monotone_in_multiplicity():
    rng = random.Random(910)
    done = 0
    while done < 10:
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 4), extra_edges=0, tau=3, mu_choices=(1,)
        )
        bigger = Instance(
            inst.graph,
            inst.sources,
            inst.traversal,
            tuple(min(mu + 1, inst.tau) for mu in inst.multiplicity),
            inst.tau,
        )
        for m in (EA, FT):
            a = brute_force(inst, m)
            b = brute_force(bigger, m)
            if a.objective is None:
                continue
            assert b.objective is not None
            assert b.objective <= a.objective
        done += 1


# ---------------------------------------------------------------------------
# add_super_source and the relaxed objective


def relaxed_brute_force(inst, measure):
    """Relaxed oracle: every non-source covered by some source."""
    best = None
    non_sources = [
        v for v in range(inst.graph.vertex_count) if v not in inst.sources
    ]
    for lab in oracles.maximal_labelings(inst):
        per_vertex = []
        ok = True
        for v in non_sources:
            vals = []
            for s in inst.sources:
                d = oracles.exhaustive_distance(
                    inst.graph, lab, inst.traversal, s, v, measure.code
                )
                if d is not None:
                    vals.append(d)
            if not vals:
                ok = False
                break
            per_vertex.append(max(vals) if measure.maximize else min(vals))
        if not ok or not per_vertex:
            continue
        value = min(per_vertex) if measure.maximize else max(per_vertex)
        if best is None or measure.better(value, best):
            best = value
    return best


def test_super_source_shape():
    inst = fig.build_instance()
    relaxed = add_super_source(inst)
    assert relaxed.graph.vertex_count == inst.graph.vertex_count + 1
    assert relaxed.graph.edge_count == inst.graph.edge_count + 2
    assert relaxed.sources == frozenset({inst.graph.vertex_count})
    star = inst.graph.vertex_count
    for s in inst.sources:
        e = relaxed.graph.edge_id(star, s)
        assert relaxed.traversal.weight(e, 1) == 0
        assert relaxed.multiplicity[e] == relaxed.tau


def test_super_source_preserves_reachability():
    rng = random.Random(912)
    for _ in range(20):
        inst = oracles.random_instance(
            rng, n=rng.randint(3, 5), extra_edges=rng.randint(0, 2),
            tau=3, source_count=2,
        )
        relaxed = add_super_source(inst)
        star = inst.graph.vertex_count
        covered_by_some = set()
        for s in inst.sources:
            vec = sssp(s, FullAvailability(inst.tau), inst, EA)
            covered_by_some |= {
                v for v, r in enumerate(vec) if v != s and r.value is not None
            }
        star_vec = sssp(star, FullAvailability(relaxed.tau), relaxed, EA)
        for v in covered_by_some:
            assert star_vec[v].value is not None


def test_super_source_requires_two_sources():
    graph = StaticGraph(2, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (1,), 2)
    with pytest.raises(WrongSourceCount):
        add_super_source(inst)


def test_super_source_relaxed_optimum_matches_oracle():
    rng = random.Random(911)
    done = 0
    while done < 10:
        inst = oracles.random_instance(
            rng, n=rng.randint(3, 4), extra_edges=rng.randint(0, 1),
            tau=3, mu_choices=(1,), source_count=2,
        )
        if search_space_size(inst) > 3_000:
            continue
        non_sources = [
            v for v in range(inst.graph.vertex_count) if v not in inst.sources
        ]
        if not non_sources:
            continue
        relaxed = add_super_source(inst)
        star = inst.graph.vertex_count
        for measure, agg in ((EA, max), (LD, min)):
            want = relaxed_brute_force(inst, measure)
            try:
                got = solve_single_source(relaxed, measure)
            except Unreachable:
                assert want is None
                continue
            value = agg(
                got.per_source_distances[(star, v)] for v in non_sources
            )
            assert value == want, measure
        done += 1


# ---------------------------------------------------------------------------
# regime dispatch


def three_sources_on_a_tree():
    """A star on 4 vertices with 3 sources and every quota 2: only the tree
    regime applies."""
    graph = StaticGraph(4, ((0, 1), (1, 2), (1, 3)))
    return Instance(graph, frozenset({0, 2, 3}), TraversalSpec.uniform(3, 1), (2, 2, 2), 6)


def test_pick_regime_names():
    assert pick_regime(three_sources_on_a_tree(), EA) == "tree"
    inst = fig.build_instance()  # 2 sources, mu 1: nothing applies
    with pytest.raises(NoTractableRegime):
        pick_regime(inst, EA)
    single = Instance(
        inst.graph, frozenset({fig.E}), inst.traversal, inst.multiplicity, inst.tau
    )
    assert pick_regime(single, EA) == "single-source"
    with pytest.raises(NoTractableRegime):
        pick_regime(single, FT)


def test_solve_auto_dispatch():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(
        graph, frozenset({0, 2}), TraversalSpec.uniform(2, 1), (2, 2), 3
    )
    result = solve_auto(inst, EA)
    assert result.regime == "multi-source-full-mu"
    assert result.status is SolveStatus.OPTIMAL
    tree = three_sources_on_a_tree()
    for measure in (EA, LD):
        result = solve_auto(tree, measure)
        assert result.regime == "tree"
        assert result.status is SolveStatus.OPTIMAL
        assert result == solve_tree(tree, measure)
