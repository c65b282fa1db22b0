from __future__ import annotations

import dataclasses
import random

import pytest

from tmbcast.core import (
    ContradictoryClause,
    Instance,
    InvalidParams,
    Labeling,
    NotThreeSat,
    StaticGraph,
    TraversalSpec,
    UnsatisfiedClause,
    ValidationError,
    is_feasible,
)
from tmbcast.distances import Measure, objective
from tmbcast.reductions import (
    CnfFormula,
    GadgetParams,
    apply_shifts,
    connected_after_removal,
    duplicate_formula,
    find_nonseparating_path,
    gadget_labeling_from_assignment,
    gen_single_source_gadget,
    gen_two_source_gadget,
    reachfast_to_tmb,
    shift_schedule,
    tmb_to_reachfast,
    two_source_witness_labeling,
)
from tmbcast.solvers import OracleLimits, SolveStatus, brute_force

import oracles

FT = Measure.FASTEST
ST = Measure.SHORTEST_TRAVEL
MH = Measure.MIN_HOP
MW = Measure.MIN_WAIT


# ---------------------------------------------------------------------------
# CNF model


def test_formula_validation():
    with pytest.raises(ValidationError):
        CnfFormula(1, ((0,),))
    with pytest.raises(ValidationError):
        CnfFormula(1, ((2,),))
    for count, clauses, message in (
        (0, ((1,),), "formula needs at least one variable"),
        (1, ((1,), ()), "clause 1 is empty"),
        (1, (), "formula needs at least one clause"),
    ):
        with pytest.raises(ValidationError, match=message):
            CnfFormula(count, clauses)
    f = CnfFormula(2, ((1, -2), (2,)))
    assert f.clause_count == 2
    assert not f.is_three_sat()


def test_exhaustive_sat_check():
    assert CnfFormula(1, ((1,),)).satisfiable()
    with pytest.raises(ValidationError, match="assignment misses variable 2"):
        CnfFormula(2, ((1, 2),)).evaluate({1: True})
    with pytest.raises(ValidationError, match="limited to 20 variables"):
        CnfFormula(21, ((21,),)).satisfying_assignment()
    assert not CnfFormula(1, ((1,), (-1,))).satisfiable()
    f = CnfFormula(2, ((1, 2), (-1,), (-2,)))
    assert not f.satisfiable()
    g = CnfFormula(2, ((1, 2), (-1, -2)))
    a = g.satisfying_assignment()
    assert a is not None and g.evaluate(a)


def test_duplicate_formula_preserves_satisfiability():
    for clauses in [((1, 2, 3),), ((1, 1, 1), (-1, -1, -1)), ((1, -2, 3), (2, 2, 3))]:
        f = CnfFormula(max(abs(l) for c in clauses for l in c), clauses)
        g = duplicate_formula(f)
        assert g.variable_count == 2 * f.variable_count
        assert g.clause_count == 2 * f.clause_count
        assert f.satisfiable() == g.satisfiable()


# ---------------------------------------------------------------------------
# Converters


def small_instance(rng):
    return oracles.random_instance(
        rng, n=rng.randint(2, 4), extra_edges=rng.randint(0, 1),
        tau=rng.randint(2, 4), mu_choices=(1, 2),
    )


def test_tmb_to_reachfast_unit_multiplicity():
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(2, 1), (1, 1), 4)
    rf = tmb_to_reachfast(inst)
    assert rf.labels.times_by_edge == ((1,), (1,))


def test_tmb_to_reachfast_initial_segment():
    graph = StaticGraph(2, ((0, 1),))
    inst = Instance(graph, frozenset({0}), TraversalSpec.uniform(1, 1), (3,), 5)
    rf = tmb_to_reachfast(inst)
    assert rf.labels.times(0) == (1, 2, 3)


def test_reachfast_to_tmb_counts_labels():
    graph = StaticGraph(2, ((0, 1),))
    from tmbcast.core import ReachFastInstance

    rf = ReachFastInstance(
        graph, frozenset({0}), TraversalSpec.uniform(1, 1), Labeling(((2, 4),)), 5
    )
    inst = reachfast_to_tmb(rf)
    assert inst.multiplicity == (2,)
    with pytest.raises(ValidationError):
        reachfast_to_tmb(
            ReachFastInstance(
                graph, frozenset({0}), TraversalSpec.uniform(1, 1),
                Labeling(((),)), 5,
            )
        )


def test_round_trip_preserves_multiplicity():
    rng = random.Random(21)
    for _ in range(20):
        inst = small_instance(rng)
        back = reachfast_to_tmb(tmb_to_reachfast(inst))
        assert back.multiplicity == tuple(
            min(mu, inst.tau) for mu in inst.multiplicity
        )
        assert back.graph == inst.graph


def test_converter_value_preservation():
    rng = random.Random(22)
    done = 0
    while done < 15:
        inst = small_instance(rng)
        rf = tmb_to_reachfast(inst)
        back = reachfast_to_tmb(rf)
        for m in (Measure.EARLIEST_ARRIVAL, Measure.LATEST_DEPARTURE, FT):
            a = brute_force(inst, m)
            b = brute_force(back, m)
            assert a.objective == b.objective
            if a.status is not SolveStatus.INFEASIBLE:
                # the optimum of the image, read as a labeling of the
                # original, stays feasible with the same objective
                assert is_feasible(inst, b.labeling)
                assert objective(inst, b.labeling, m) == a.objective
        done += 1


def test_optimal_labeling_reachable_by_shifting():
    rng = random.Random(23)
    done = 0
    while done < 15:
        inst = small_instance(rng)
        rf = tmb_to_reachfast(inst)
        result = brute_force(reachfast_to_tmb(rf), Measure.EARLIEST_ARRIVAL)
        if result.status is SolveStatus.INFEASIBLE:
            continue
        for e in range(inst.graph.edge_count):
            before = rf.labels.times(e)
            after = result.labeling.times(e)
            shifts = shift_schedule(before, after)
            assert apply_shifts(before, len(after), shifts) == after
        done += 1


# ---------------------------------------------------------------------------
# shift_schedule


def test_shift_schedule_identity():
    assert shift_schedule((2, 5), (2, 5)) == []


def test_shift_schedule_single_displacement():
    assert shift_schedule((1, 4), (3, 4)) == [(1, 2)]


def test_shift_schedule_replay_random():
    rng = random.Random(24)
    for _ in range(200):
        tau = rng.randint(2, 8)
        k1 = rng.randint(1, tau)
        k2 = rng.randint(1, k1)
        before = tuple(sorted(rng.sample(range(1, tau + 1), k1)))
        after = tuple(sorted(rng.sample(range(1, tau + 1), k2)))
        shifts = shift_schedule(before, after)
        assert apply_shifts(before, len(after), shifts) == after


def test_shift_schedule_rejects_growth():
    with pytest.raises(ValidationError):
        shift_schedule((1,), (1, 2))


# ---------------------------------------------------------------------------
# Single-source gadgets


def test_gadget_params_validation():
    with pytest.raises(InvalidParams):
        GadgetParams(Measure.EARLIEST_ARRIVAL, 1)
    with pytest.raises(InvalidParams):
        GadgetParams(ST, 1)
    with pytest.raises(InvalidParams):
        GadgetParams(MH, 2)
    with pytest.raises(InvalidParams):
        GadgetParams(MW, 1)  # b missing
    with pytest.raises(InvalidParams):
        GadgetParams(FT, 1, b=2)
    GadgetParams(FT, 1)
    GadgetParams(MW, 1, b=2)


def oracle_optimum(gadget, measure, max_labelings=900_000):
    return brute_force(
        gadget.instance,
        measure,
        OracleLimits(max_edges=40, max_tau=20, max_labelings=max_labelings),
    )


def test_ft_gadget_satisfiable_value():
    formula = CnfFormula(2, ((1, 2),))
    gadget = gen_single_source_gadget(formula, GadgetParams(FT, 2))
    assert gadget.yes_value == 4
    assert gadget.no_value_lower_bound == 6
    result = oracle_optimum(gadget, FT)
    assert result.objective == 4


def test_ft_gadget_unsatisfiable_value():
    formula = CnfFormula(1, ((1,), (-1,)))
    gadget = gen_single_source_gadget(formula, GadgetParams(FT, 2))
    result = oracle_optimum(gadget, FT)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective >= 6


def test_st_mh_mw_yes_values():
    sat = CnfFormula(1, ((1,),))
    cases = [
        (ST, GadgetParams(ST, 2), 5),
        (MH, GadgetParams(MH, 3), 6),
        (MW, GadgetParams(MW, 1, b=2), 1),
    ]
    for measure, params, want in cases:
        gadget = gen_single_source_gadget(sat, params)
        assert gadget.yes_value == want
        result = oracle_optimum(gadget, measure)
        assert result.objective == want, measure


def test_gadget_witness_matches_yes_value():
    formula = CnfFormula(1, ((1,),))
    for params, measure in [
        (GadgetParams(FT, 2), FT),
        (GadgetParams(ST, 2), ST),
        (GadgetParams(MH, 3), MH),
        (GadgetParams(MW, 2, b=2), MW),
    ]:
        gadget = gen_single_source_gadget(formula, params)
        lab = gadget_labeling_from_assignment(gadget, {1: True})
        assert is_feasible(gadget.instance, lab)
        assert objective(gadget.instance, lab, measure) == gadget.yes_value


def test_gadget_witness_rejects_bad_assignment():
    formula = CnfFormula(1, ((1,),))
    gadget = gen_single_source_gadget(formula, GadgetParams(FT, 2))
    with pytest.raises(UnsatisfiedClause):
        gadget_labeling_from_assignment(gadget, {1: False})
    # Each witness builder takes only its own kind of gadget.
    two_source = gen_two_source_gadget(CnfFormula(1, ((1, 1, 1),)))
    with pytest.raises(ValidationError, match="needs a sat gadget"):
        gadget_labeling_from_assignment(two_source, {1: True})
    with pytest.raises(ValidationError, match="needs a two-source gadget"):
        two_source_witness_labeling(gadget, {1: True})


def test_ft_gadget_bounds_and_certificate():
    # On the gadget from a satisfiable formula the duration floor is 4, the
    # optimum meets it, and the fallback schedule stays under its certificate.
    from tmbcast.distances import ft_mw_bounds
    from tmbcast.solvers import approx_ft_mw

    formula = CnfFormula(2, ((1, 2),))
    for a in (1, 2):
        gadget = gen_single_source_gadget(formula, GadgetParams(FT, a))
        bounds = ft_mw_bounds(0, gadget.instance)
        assert bounds.ft_min == 4
        got = approx_ft_mw(gadget.instance, FT)
        assert got.objective <= bounds.ft_max
        opt = oracle_optimum(gadget, FT)
        assert opt.objective == 4 >= bounds.ft_min


def test_gadget_documents_round_trip():
    from tmbcast.fileformat import (
        InstanceDocument,
        parse_instance_document,
        serialize_instance,
    )

    gadgets = [
        gen_single_source_gadget(CnfFormula(2, ((1, -2),)), GadgetParams(FT, 2)),
        gen_single_source_gadget(
            CnfFormula(1, ((1,),)), GadgetParams(MW, 1, b=2)
        ),
        gen_two_source_gadget(CnfFormula(1, ((1, 1, 1),))),
    ]
    for gadget in gadgets:
        text = serialize_instance(InstanceDocument.from_gadget(gadget))
        assert serialize_instance(parse_instance_document(text)) == text


def test_gadget_structure():
    formula = CnfFormula(2, ((1, -2),))
    gadget = gen_single_source_gadget(formula, GadgetParams(FT, 1))
    inst = gadget.instance
    assert gadget.vertex_roles[0] == "source"
    assert gadget.vertex_roles.count("clause") == 1
    assert gadget.vertex_roles.count("variable-in") == 2
    # the variable edges are the only ones with multiplicity one
    restricted = [e for e, mu in enumerate(inst.multiplicity) if mu == 1]
    assert len(restricted) == 2
    assert inst.tau == 1 + 4 + 1 + 1  # max override a+4, weight 1
    with pytest.raises(ValidationError, match="gadget values must separate yes from no"):
        dataclasses.replace(gadget, no_value_lower_bound=gadget.yes_value)


# ---------------------------------------------------------------------------
# Two-source gadget


def test_two_source_rejects_bad_formulas():
    with pytest.raises(NotThreeSat):
        gen_two_source_gadget(CnfFormula(2, ((1, 2),)))
    with pytest.raises(ContradictoryClause):
        gen_two_source_gadget(CnfFormula(2, ((1, -1, 2),)))
    with pytest.raises(InvalidParams, match="at least two sources"):
        gen_two_source_gadget(CnfFormula(1, ((1, 1, 1),)), source_count=1)


def test_two_source_structure_counts():
    formula = CnfFormula(3, ((1, 2, 3),))
    gadget = gen_two_source_gadget(formula)
    roles = gadget.vertex_roles
    names = gadget.vertex_names
    # duplicated formula: 2 clauses, each a center + 3 literals + 3 junctions
    assert sum(1 for n in names if n.startswith("c")) == 2
    assert sum(1 for n in names if n.startswith("l")) == 6
    assert sum(1 for n in names if n.startswith("z") and "." in n and not n.startswith("z.")) == 6
    # each positive occurrence contributes exactly two chain vertices
    f_vertices = [n for n in names if n.startswith("x") and ".F." in n]
    assert len(f_vertices) == 2 * 6  # six positive occurrences in the duplicate
    assert all(inst_mu == 1 for inst_mu in gadget.instance.multiplicity)
    assert roles[gadget.meta["hub"]] == "z"


def test_two_source_witness_feasible():
    formula = CnfFormula(3, ((1, 2, 3),))
    gadget = gen_two_source_gadget(formula)
    assignment = formula.satisfying_assignment()
    lab = two_source_witness_labeling(gadget, assignment)
    assert lab.respects_multiplicity(gadget.instance)
    assert is_feasible(gadget.instance, lab)


def test_two_source_witness_path_prefix_increasing():
    formula = CnfFormula(2, ((1, 2, 2),))
    gadget = gen_two_source_gadget(formula)
    assignment = formula.satisfying_assignment()
    lab = two_source_witness_labeling(gadget, assignment)
    graph = gadget.instance.graph
    s1, s2 = gadget.meta["sources"][:2]
    by_time = {ts[0]: e for e, ts in enumerate(lab.times_by_edge) if ts}
    # walk the source-to-source path: labels 1, 2, ... form a simple path
    # from the first source that ends at the second one
    current = s1
    time = 1
    while current != s2:
        e = by_time.get(time)
        assert e is not None and current in graph.endpoints(e)
        current = graph.other_endpoint(e, current)
        time += 1
    assert time > 1


def test_two_source_witness_rejects_bad_assignment():
    formula = CnfFormula(1, ((1, 1, 1),))
    gadget = gen_two_source_gadget(formula)
    with pytest.raises(UnsatisfiedClause):
        two_source_witness_labeling(gadget, {1: False})


def test_nonseparating_path_tracks_satisfiability():
    cases = [
        (CnfFormula(1, ((1, 1, 1),)), True),
        (CnfFormula(3, ((1, 2, 3),)), True),
        (CnfFormula(1, ((1, 1, 1), (-1, -1, -1))), False),
        (CnfFormula(2, ((1, 2, 2), (-1, -1, -1), (-2, -2, -2))), False),
    ]
    for formula, expected in cases:
        gadget = gen_two_source_gadget(formula)
        s1, s2 = gadget.meta["sources"][:2]
        path = find_nonseparating_path(gadget.instance.graph, s1, s2)
        assert (path is not None) == expected == formula.satisfiable()
        if path is not None:
            vertices, edges = path
            assert connected_after_removal(gadget.instance.graph, set(edges))


def test_nonseparating_path_rejects_a_vertex_outside_the_graph():
    # Python reads a negative id from the end of the vertex list.
    graph = StaticGraph(3, ((0, 1), (1, 2)))
    for s1, s2, bad in ((5, 5, 5), (0, 7, 7), (0, -1, -1), (-1, 2, -1)):
        with pytest.raises(ValidationError, match=f"no vertex {bad}"):
            find_nonseparating_path(graph, s1, s2)
    assert find_nonseparating_path(graph, 1, 1) == ((1,), ())


def test_two_source_more_sources_witness():
    formula = CnfFormula(1, ((1, 1, 1),))
    for count in (3, 4, 5, 7):
        gadget = gen_two_source_gadget(formula, source_count=count)
        assert len(gadget.instance.sources) == count
        assignment = {1: True}
        lab = two_source_witness_labeling(gadget, assignment)
        assert lab.respects_multiplicity(gadget.instance)
        assert is_feasible(gadget.instance, lab)
