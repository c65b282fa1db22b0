"""Problem converters and satisfiability-driven hardness instance generators.

Converters translate between the multiplicity formulation (choose up to
``mu(e)`` labels per edge) and the shifting formulation (move the labels of a
concrete temporal graph), preserving objective values both ways.

The generators build two families of instances from CNF formulas:

* single-source gadgets for the duration / travel / hop / waiting objectives,
  where choosing the one label of each variable's private edge encodes a
  truth value, satisfiable formulas admit a schedule of a known small value,
  and unsatisfiable ones force a known larger value;
* two-source feasibility gadgets from exactly-3-literal formulas, where a
  schedule with one label per edge exists iff the formula is satisfiable.

Both generators emit witness schedules from satisfying assignments.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field

from tmbcast.core import (
    ContradictoryClause,
    Instance,
    InvalidParams,
    Labeling,
    NotThreeSat,
    ReachFastInstance,
    StaticGraph,
    TraversalSpec,
    UnsatisfiedClause,
    ValidationError,
    connected_after_removal,
)
from tmbcast.distances import Measure


# ---------------------------------------------------------------------------
# CNF model


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..variable_count; literals are signed integers."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variable_count < 1:
            raise ValidationError("formula needs at least one variable")
        norm = []
        for i, clause in enumerate(self.clauses):
            lits = tuple(int(l) for l in clause)
            if not lits:
                raise ValidationError(f"clause {i} is empty")
            for l in lits:
                if l == 0 or abs(l) > self.variable_count:
                    raise ValidationError(f"clause {i} has bad literal {l}")
            norm.append(lits)
        if not norm:
            raise ValidationError("formula needs at least one clause")
        object.__setattr__(self, "clauses", tuple(norm))

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def is_three_sat(self) -> bool:
        return all(len(c) == 3 for c in self.clauses)

    def contradictory_clauses(self) -> list[int]:
        out = []
        for i, clause in enumerate(self.clauses):
            vars_pos = {l for l in clause if l > 0}
            if any(-l in clause for l in vars_pos):
                out.append(i)
        return out

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        for v in range(1, self.variable_count + 1):
            if v not in assignment:
                raise ValidationError(f"assignment misses variable {v}")
        return all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in self.clauses
        )

    def satisfying_assignment(self) -> dict[int, bool] | None:
        """First satisfying assignment in lexicographic order, or None.

        Exhaustive enumeration; refuses formulas too large to enumerate.
        """
        if self.variable_count > 20:
            raise ValidationError("exhaustive check limited to 20 variables")
        for bits in itertools.product((False, True), repeat=self.variable_count):
            assignment = {v + 1: bits[v] for v in range(self.variable_count)}
            if self.evaluate(assignment):
                return assignment
        return None

    def satisfiable(self) -> bool:
        return self.satisfying_assignment() is not None


# ---------------------------------------------------------------------------
# TMB <-> shifting formulation


def tmb_to_reachfast(instance: Instance) -> ReachFastInstance:
    """Initial labels 1..mu(e) per edge; shifting them encodes any labeling."""
    labels = Labeling(
        tuple(
            tuple(range(1, min(mu, instance.tau) + 1))
            for mu in instance.multiplicity
        )
    )
    return ReachFastInstance(
        graph=instance.graph,
        sources=instance.sources,
        traversal=instance.traversal,
        labels=labels,
        tau=instance.tau,
    )


def reachfast_to_tmb(instance: ReachFastInstance) -> Instance:
    """Multiplicity bound from the label-set sizes."""
    multiplicity = []
    for e in range(instance.graph.edge_count):
        k = len(instance.labels.times(e))
        if k == 0:
            raise ValidationError(
                f"edge {e} has no labels; it cannot carry a positive multiplicity"
            )
        multiplicity.append(k)
    return Instance(
        graph=instance.graph,
        sources=instance.sources,
        traversal=instance.traversal,
        multiplicity=tuple(multiplicity),
        tau=instance.tau,
    )


def shift_schedule(
    before: tuple[int, ...], after: tuple[int, ...]
) -> list[tuple[int, int]]:
    """Per-label shifts turning ``before`` (restricted) into ``after``.

    Drops the largest surplus labels of ``before``, skips labels common to
    both sets, pairs the remaining i-th smallest elements, and emits
    (original time, shift) pairs.
    """
    before = tuple(sorted(before))
    after = tuple(sorted(after))
    if len(after) > len(before):
        raise ValidationError("after may not have more labels than before")
    kept = before[: len(after)]
    common = set(kept) & set(after)
    rest_before = [t for t in kept if t not in common]
    rest_after = [t for t in after if t not in common]
    return [(t, t2 - t) for t, t2 in zip(rest_before, rest_after)]


def apply_shifts(
    before: tuple[int, ...], size: int, shifts: list[tuple[int, int]]
) -> tuple[int, ...]:
    """Replay helper: drop surplus labels, apply the shifts, return the set."""
    kept = tuple(sorted(before))[:size]
    delta = dict(shifts)
    return tuple(sorted(t + delta.get(t, 0) for t in kept))


# ---------------------------------------------------------------------------
# Gadget containers


_GADGET_MEASURES = (
    Measure.FASTEST,
    Measure.SHORTEST_TRAVEL,
    Measure.MIN_HOP,
    Measure.MIN_WAIT,
)

_MIN_A = {
    Measure.FASTEST: 1,
    Measure.SHORTEST_TRAVEL: 2,
    Measure.MIN_HOP: 3,
    Measure.MIN_WAIT: 1,
}


@dataclass(frozen=True)
class GadgetParams:
    measure: Measure
    a: int
    b: int | None = None

    def __post_init__(self):
        if self.measure not in _GADGET_MEASURES:
            raise InvalidParams(f"no gadget for measure {self.measure.code}")
        if self.a < _MIN_A[self.measure]:
            raise InvalidParams(
                f"{self.measure.code} gadget needs a >= {_MIN_A[self.measure]}"
            )
        if self.measure is Measure.MIN_WAIT:
            if self.b is None or self.b < 2:
                raise InvalidParams("mw gadget needs b >= 2")
        elif self.b is not None:
            raise InvalidParams("parameter b applies to the mw gadget only")


@dataclass(frozen=True)
class GadgetInstance:
    """A generated hardness instance with its value separation and anatomy."""

    instance: Instance
    yes_value: int
    no_value_lower_bound: int
    vertex_roles: tuple[str, ...]
    vertex_names: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.yes_value < self.no_value_lower_bound:
            raise ValidationError("gadget values must separate yes from no")


def gadget_formula(gadget: GadgetInstance) -> CnfFormula:
    return CnfFormula(
        gadget.meta["variable_count"],
        tuple(tuple(c) for c in gadget.meta["cnf"]),
    )


# ---------------------------------------------------------------------------
# Single-source gadgets


class _Builder:
    def __init__(self):
        self.names: list[str] = []
        self.roles: list[str] = []
        self.edges: list[tuple[int, int]] = []
        self.edge_ids: dict[tuple[int, int], int] = {}
        self.overrides: dict[tuple[int, int], int] = {}  # (edge, time) -> weight
        self.restricted: set[int] = set()

    def vertex(self, name: str, role: str) -> int:
        self.names.append(name)
        self.roles.append(role)
        return len(self.names) - 1

    def edge(self, u: int, v: int, times: dict[int, int], restricted=False) -> int:
        key = (min(u, v), max(u, v))
        e = self.edge_ids.setdefault(key, len(self.edges))
        if e == len(self.edges):
            self.edges.append(key)
        self.overrides.update(((e, t), w) for t, w in times.items())
        if restricted:
            self.restricted.add(e)
        return e

    def finish(self, sources, default_weight=None, tau=None, mu_default=None):
        if tau is None:
            max_time = max((t for _, t in self.overrides), default=0)
            tau = max_time + max(self.overrides.values(), default=0) + 1
        if default_weight is None:
            default_weight = tau
        graph = StaticGraph(len(self.names), tuple(self.edges))
        traversal = TraversalSpec.from_entries(
            graph.edge_count, (default_weight,) * graph.edge_count,
            *zip(*((e, t, w) for (e, t), w in self.overrides.items())),
        )
        mu_default = tau if mu_default is None else mu_default
        multiplicity = tuple(
            1 if e in self.restricted else mu_default
            for e in range(graph.edge_count)
        )
        return Instance(
            graph=graph,
            sources=frozenset(sources),
            traversal=traversal,
            multiplicity=multiplicity,
            tau=tau,
        )


def gen_single_source_gadget(
    formula: CnfFormula, params: GadgetParams
) -> GadgetInstance:
    """Variable/clause gadget whose optimum separates SAT from UNSAT.

    Each variable owns one edge of multiplicity one whose two scheduled
    options encode its truth value; every other edge may carry any labels but
    is cheap only at the listed times.  A satisfiable formula admits a
    schedule of value ``yes_value``; otherwise the optimum is at least
    ``no_value_lower_bound``.
    """
    m = params.measure
    a = params.a
    b = params.b or 0
    builder = _Builder()
    s = builder.vertex("s", "source")

    # measure-specific time tables, weights default to 1 unless listed
    if m is Measure.FASTEST:
        times = {
            "s_pos": {1: 1},
            "s_neg": {a + 1: 1},
            "pos_in": {2: 1},
            "neg_in": {a + 2: 1},
            "in_out": {3: 1, a + 3: 1},
            "clause_pos": {4: 1},
            "clause_neg": {a + 4: 1},
        }
        truth = (3, a + 3)
        yes, no = 4, a + 4
    elif m is Measure.SHORTEST_TRAVEL:
        times = {
            "s_pos": {1: a},
            "s_neg": {a + 1: 1},
            "pos_in": {a + 1: 1},
            "neg_in": {a + 2: 1},
            "in_out": {a + 2: 1, a + 3: 1},
            "clause_pos": {a + 3: 1},
            "clause_neg": {a + 4: a},
        }
        truth = (a + 2, a + 3)
        yes, no = a + 3, 2 * a + 2
    elif m is Measure.MIN_HOP:
        times = {
            "s_neg": {a: 1},
            "neg_in": {a + 1: 1},
            "in_out": {a + 1: 1, a + 2: 1},
            "clause_pos": {a + 2: 1},
            "clause_pos2": {a + 3: 1},
        }
        truth = (a + 1, a + 2)
        yes, no = a + 3, 2 * a + 1
    else:  # MIN_WAIT
        times = {
            "s_pos": {1: 1},
            "s_neg": {b * a + 1: 1},
            "pos_in": {2: 1},
            "neg_in": {b * a + 2: 1},
            "in_out": {3: 1, b * a + 3: 1},
            "clause_pos": {a + 4: 1},
            "clause_pos2": {a + 5: 1},
            "clause_neg": {b * a + a + 4: 1},
            "clause_neg2": {b * a + a + 5: 1},
        }
        truth = (3, b * a + 3)
        yes, no = a, a * (b + 1)

    clause_vertex = [
        builder.vertex(f"c{j + 1}", "clause") for j in range(formula.clause_count)
    ]
    variable_edge: dict[int, int] = {}
    var_out: dict[int, int] = {}
    for i in range(1, formula.variable_count + 1):
        v_in = builder.vertex(f"x{i}.in", "variable-in")
        v_out = builder.vertex(f"x{i}.out", "variable-out")
        var_out[i] = v_out
        if m is Measure.MIN_HOP:
            # positive side is a chain of a edges scheduled 1..a
            prev = s
            for k in range(1, a):
                u = builder.vertex(f"x{i}.{k}", "variable-true")
                builder.edge(prev, u, {k: 1})
                prev = u
            builder.edge(prev, v_in, {a: 1})
        else:
            v_pos = builder.vertex(f"x{i}", "variable-true")
            builder.edge(s, v_pos, times["s_pos"])
            builder.edge(v_pos, v_in, times["pos_in"])
        v_neg = builder.vertex(f"!x{i}", "variable-false")
        builder.edge(s, v_neg, times["s_neg"])
        builder.edge(v_neg, v_in, times["neg_in"])
        variable_edge[i] = builder.edge(v_in, v_out, times["in_out"], restricted=True)

    for j, clause in enumerate(formula.clauses):
        for lit in clause:
            i = abs(lit)
            out = var_out[i]
            c = clause_vertex[j]
            if lit > 0:
                if m is Measure.MIN_HOP or m is Measure.MIN_WAIT:
                    w = builder.vertex(f"c{j + 1}.x{i}+", "subdivision")
                    builder.edge(out, w, times["clause_pos"])
                    builder.edge(w, c, times["clause_pos2"])
                else:
                    builder.edge(out, c, times["clause_pos"])
            else:
                if m is Measure.MIN_HOP:
                    # negative side subdivided into a chain of a edges
                    prev = out
                    for k in range(1, a):
                        u = builder.vertex(f"c{j + 1}.x{i}-{k}", "subdivision")
                        builder.edge(prev, u, {a + 2 + k: 1})
                        prev = u
                    builder.edge(prev, c, {2 * a + 2: 1})
                elif m is Measure.MIN_WAIT:
                    w = builder.vertex(f"c{j + 1}.x{i}-", "subdivision")
                    builder.edge(out, w, times["clause_neg"])
                    builder.edge(w, c, times["clause_neg2"])
                else:
                    builder.edge(out, c, times["clause_neg"])

    instance = builder.finish(sources={s})
    meta = {
        "kind": "sat-gadget",
        "measure": m.code,
        "a": a,
        "b": params.b,
        "yes_value": yes,
        "no_value_lower_bound": no,
        "variable_count": formula.variable_count,
        "cnf": [list(c) for c in formula.clauses],
        "variable_edge": {str(i): e for i, e in variable_edge.items()},
        "truth_labels": list(truth),
    }
    return GadgetInstance(
        instance=instance,
        yes_value=yes,
        no_value_lower_bound=no,
        vertex_roles=tuple(builder.roles),
        vertex_names=tuple(builder.names),
        meta=meta,
    )


def gadget_labeling_from_assignment(
    gadget: GadgetInstance, assignment: dict[int, bool]
) -> Labeling:
    """Schedule realizing the gadget's yes-value from a satisfying assignment.

    The variable edges get their truth label; every unrestricted edge keeps
    all times (its multiplicity allows it, and only the listed times are
    cheap anyway).
    """
    if gadget.meta.get("kind") != "sat-gadget":
        raise ValidationError("labeling-from-assignment needs a sat gadget")
    formula = gadget_formula(gadget)
    if not formula.evaluate(assignment):
        raise UnsatisfiedClause("assignment does not satisfy the formula")
    inst = gadget.instance
    true_label, false_label = gadget.meta["truth_labels"]
    table: list[tuple[int, ...]] = [
        tuple(range(1, inst.tau + 1)) for _ in range(inst.graph.edge_count)
    ]
    for i_str, e in gadget.meta["variable_edge"].items():
        i = int(i_str)
        table[e] = (true_label,) if assignment[i] else (false_label,)
    return Labeling(tuple(table))


# ---------------------------------------------------------------------------
# Two-source feasibility gadget


def duplicate_formula(formula: CnfFormula) -> CnfFormula:
    """Interleaved duplicate: variable i becomes 2i-1 and its copy 2i,
    clause j becomes clauses 2j-1 (original) and 2j (copy)."""
    clauses: list[tuple[int, ...]] = []
    for clause in formula.clauses:
        orig = tuple((2 * abs(l) - 1) * (1 if l > 0 else -1) for l in clause)
        copy = tuple((2 * abs(l)) * (1 if l > 0 else -1) for l in clause)
        clauses.append(orig)
        clauses.append(copy)
    return CnfFormula(2 * formula.variable_count, tuple(clauses))


def gen_two_source_gadget(
    formula: CnfFormula, source_count: int = 2
) -> GadgetInstance:
    """Instance with one label per edge that is feasible iff the formula is
    satisfiable.

    The formula (exactly three literals per clause, no clause with a variable
    and its negation) is duplicated first; the graph strings variable gadgets
    between the two sources with bridge triples, hangs a subdivided star per
    clause, and ties every non-clause vertex to a hub through fresh length-3
    paths.  More than two sources are supported by a clique-like appendix on
    the second source.
    """
    if source_count < 2:
        raise InvalidParams("the gadget needs at least two sources")
    if not formula.is_three_sat():
        raise NotThreeSat("clauses must have exactly three literals")
    bad = formula.contradictory_clauses()
    if bad:
        raise ContradictoryClause(f"clauses {bad} contain a variable and its negation")

    phi = duplicate_formula(formula)
    p2 = phi.variable_count
    builder = _Builder()
    w1 = 1  # uniform traversal weight

    s1 = builder.vertex("s1", "source")
    s2 = builder.vertex("s2", "source")

    literal_vertex: dict[tuple[int, int], int] = {}
    for j, clause in enumerate(phi.clauses):
        c = builder.vertex(f"c{j + 1}", "clause")
        for k in range(3):
            vl = builder.vertex(f"l{j + 1}.{k + 1}", "clause")
            zl = builder.vertex(f"z{j + 1}.{k + 1}", "subdivision")
            builder.edge(c, zl, {})
            builder.edge(zl, vl, {})
            literal_vertex[(j, k)] = vl

    # variable chains: an occurrence of x_i as a positive literal extends the
    # F side (the side a path takes when x_i is false), a negative occurrence
    # extends the T side
    chains: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for i in range(1, p2 + 1):
        for side in ("T", "F"):
            chains[(i, side)] = []
    for j, clause in enumerate(phi.clauses):
        for k, lit in enumerate(clause):
            i = abs(lit)
            side = "F" if lit > 0 else "T"
            r = len(chains[(i, side)]) + 1
            role = "variable-false" if side == "F" else "variable-true"
            a1 = builder.vertex(f"x{i}.{side}.{r}.1", role)
            a2 = builder.vertex(f"x{i}.{side}.{r}.2", role)
            vl = literal_vertex[(j, k)]
            builder.edge(vl, a1, {})
            builder.edge(vl, a2, {})
            if r > 1:
                prev = chains[(i, side)][-1][1]
                builder.edge(prev, a1, {})
            chains[(i, side)].append((a1, a2))

    bridges: dict[int, tuple[int, int, int]] = {}
    for i in range(1, p2):
        b_in = builder.vertex(f"b{i}.in", "bridge")
        b_mid = builder.vertex(f"b{i}.mid", "bridge")
        b_out = builder.vertex(f"b{i}.out", "bridge")
        builder.edge(b_in, b_mid, {})
        builder.edge(b_mid, b_out, {})
        bridges[i] = (b_in, b_mid, b_out)

    boundary_flags: list[int] = []

    def chain_first(i: int, side: str) -> int | None:
        chain = chains[(i, side)]
        return chain[0][0] if chain else None

    def chain_last(i: int, side: str) -> int | None:
        chain = chains[(i, side)]
        return chain[-1][1] if chain else None

    # source attachments
    first_f = chain_first(1, "F")
    first_t = chain_first(1, "T")
    if first_f is not None:
        builder.edge(s1, first_f, {})
    if first_t is not None:
        builder.edge(s1, first_t, {})
    if first_f is None or first_t is None:
        builder.edge(s1, bridges[1][0], {})
        boundary_flags.append(1)

    last_f = chain_last(p2, "F")
    last_t = chain_last(p2, "T")
    if last_f is not None:
        builder.edge(last_f, s2, {})
    if last_t is not None:
        builder.edge(last_t, s2, {})
    if last_f is None or last_t is None:
        builder.edge(bridges[p2 - 1][2], s2, {})

    for i in range(1, p2):
        b_in, _, b_out = bridges[i]
        for side in ("F", "T"):
            last = chain_last(i, side)
            if last is not None:
                builder.edge(last, b_in, {})
            nxt = chain_first(i + 1, side)
            if nxt is not None:
                builder.edge(b_out, nxt, {})
        if (chain_first(i, "F") is None or chain_first(i, "T") is None) and i >= 2:
            builder.edge(bridges[i - 1][2], b_in, {})

    # hub tied to every non-clause vertex through fresh length-3 paths
    hub = builder.vertex("z", "z")
    anchors = [s1, s2]
    anchors.extend(v for triple in bridges.values() for v in triple)
    for i in range(1, p2 + 1):
        for side in ("T", "F"):
            for a1, a2 in chains[(i, side)]:
                anchors.extend((a1, a2))
    for y in anchors:
        u1 = builder.vertex(f"z.{builder.names[y]}.1", "subdivision")
        u2 = builder.vertex(f"z.{builder.names[y]}.2", "subdivision")
        builder.edge(hub, u1, {})
        builder.edge(u1, u2, {})
        builder.edge(u2, y, {})

    # appendix for more than two sources: at least four new vertices
    extension: list[int] = []
    if source_count > 2:
        count = max(source_count, 6)
        for idx in range(3, count + 1):
            extension.append(builder.vertex(f"s{idx}", "source"))
        s3, s4 = extension[0], extension[1]
        builder.edge(s2, s3, {})
        builder.edge(s2, s4, {})
        builder.edge(s3, s4, {})
        for v in extension[2:]:
            builder.edge(v, s3, {})
            builder.edge(v, s4, {})
        builder.edge(extension[-2], extension[-1], {})

    sources = [s1, s2] + extension[: max(0, source_count - 2)]
    n = len(builder.names)
    k_ext = len(extension)
    tau = 2 * n + k_ext + 8
    instance = builder.finish(
        sources=set(sources), default_weight=w1, tau=tau, mu_default=1
    )
    meta = {
        "kind": "twosource-gadget",
        "variable_count": formula.variable_count,
        "cnf": [list(c) for c in formula.clauses],
        "source_count": source_count,
        "sources": sources,
        "hub": hub,
        "extension": extension,
        "boundary_via_source": boundary_flags,
        "chains": {
            f"{i}.{side}": [list(pair) for pair in chains[(i, side)]]
            for i in range(1, p2 + 1)
            for side in ("T", "F")
        },
        "bridges": {str(i): list(bridges[i]) for i in bridges},
    }
    return GadgetInstance(
        instance=instance,
        yes_value=0,
        no_value_lower_bound=1,  # feasibility gadget: values are not the point
        vertex_roles=tuple(builder.roles),
        vertex_names=tuple(builder.names),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Two-source witness


def find_nonseparating_path(graph: StaticGraph, s1: int, s2: int):
    """First simple s1-s2 path (vertices, edges), depth first in adjacency
    order, whose removal keeps the graph connected; None if there is none.

    Paths through internal vertices of degree two are skipped outright:
    removing both their edges isolates them.  The search keeps an explicit
    stack of adjacency iterators, so its depth is not bounded by the
    interpreter's recursion limit.  Raises ValidationError when ``s1`` or
    ``s2`` is not a vertex.
    """
    for v in (s1, s2):
        if not 0 <= v < graph.vertex_count:
            raise ValidationError(f"no vertex {v}")
    if s1 == s2:
        return ((s1,), ()) if connected_after_removal(graph, ()) else None
    degree = [len(graph.incident(v)) for v in range(graph.vertex_count)]
    vertices, edges = [s1], []
    on_path = {s1}
    stack = [iter(graph.incident(s1))]
    while stack:
        for e, w in stack[-1]:
            if w in on_path:
                continue
            if w == s2:
                if connected_after_removal(graph, {*edges, e}):
                    return (tuple(vertices) + (w,), tuple(edges) + (e,))
                continue
            if degree[w] <= 2:
                continue
            vertices.append(w)
            edges.append(e)
            on_path.add(w)
            stack.append(iter(graph.incident(w)))
            break
        else:
            stack.pop()
            on_path.discard(vertices.pop())
            if edges:
                edges.pop()
    return None


def two_source_witness_labeling(
    gadget: GadgetInstance, assignment: dict[int, bool]
) -> Labeling:
    """Feasible one-label-per-edge schedule built from a satisfying assignment.

    The assignment fixes a source-to-source path that leaves the rest of the
    graph connected; the path is scheduled 1..t, and a breadth-first spanning
    tree of the remainder, rooted at the second source, is scheduled outward
    from time t+1.  With more than two sources the whole schedule is pushed
    later so the appendix sources can hand their data over first.
    """
    if gadget.meta.get("kind") != "twosource-gadget":
        raise ValidationError("witness labeling needs a two-source gadget")
    formula = gadget_formula(gadget)
    if not formula.evaluate(assignment):
        raise UnsatisfiedClause("assignment does not satisfy the formula")
    inst = gadget.instance
    graph = inst.graph
    meta = gadget.meta
    s1, s2 = meta["sources"][0], meta["sources"][1]
    p2 = 2 * meta["variable_count"]

    # the path induced by the duplicated assignment
    star: dict[int, bool] = {}
    for i in range(1, meta["variable_count"] + 1):
        star[2 * i - 1] = assignment[i]
        star[2 * i] = assignment[i]

    vertices = [s1]
    for i in range(1, p2 + 1):
        side = "T" if star[i] else "F"
        chain = meta["chains"][f"{i}.{side}"]
        for a1, a2 in chain:
            # a1 and a2 sandwich their literal vertex
            vl = next(
                w
                for _, w in graph.incident(a1)
                if any(w == w2 for _, w2 in graph.incident(a2))
                and gadget.vertex_roles[w] == "clause"
            )
            vertices.extend((a1, vl, a2))
        if i < p2:
            b_in, b_mid, b_out = meta["bridges"][str(i)]
            vertices.extend((b_in, b_mid, b_out))
    vertices.append(s2)

    edges = []
    for u, v in zip(vertices, vertices[1:]):
        edges.append(graph.edge_id(u, v))
    assert len(set(vertices)) == len(vertices), "witness path must be simple"
    removed = set(edges)

    t = len(edges)

    # breadth-first tree of the remainder rooted at the second source
    depth = {s2: 0}
    tree_edges: list[tuple[int, int]] = []  # (edge, depth of parent)
    queue = collections.deque([s2])
    while queue:
        v = queue.popleft()
        for e, w in sorted(graph.incident(v)):
            if e in removed or w in depth:
                continue
            depth[w] = depth[v] + 1
            tree_edges.append((e, depth[v]))
            queue.append(w)
    assert len(depth) == graph.vertex_count, "remainder must be connected"

    source_count = meta["source_count"]
    extension = meta["extension"]
    if source_count == 2:
        delta = 0
        extension_labels: dict[int, int] = {}
    else:
        count = len(extension) + 2  # indices run 2+1 .. 2+len
        K = count
        delta = max(0, K - t)
        omega = t + delta + 1
        s3, s4 = extension[0], extension[1]
        s_last, s_prev = extension[-1], extension[-2]
        extension_labels = {}

        def ext_edge(u, v, time):
            extension_labels[graph.edge_id(u, v)] = time

        ext_edge(s_prev, s_last, 1)
        for idx, v in enumerate(extension[2:-1], start=5):
            ext_edge(s3, v, idx - 3)
        ext_edge(s3, s4, K - 3)
        ext_edge(s2, s3, K - 1)
        ext_edge(s2, s4, omega)
        ext_edge(s4, s_last, omega + 1)
        ext_edge(s3, s_last, omega + 2)
        for idx, v in enumerate(extension[2:-1], start=5):
            ext_edge(s4, v, omega + 2 + (idx - 4))

    table: list[tuple[int, ...]] = [() for _ in range(graph.edge_count)]
    for pos, e in enumerate(edges):
        table[e] = (pos + 1 + delta,)
    for e, parent_depth in tree_edges:
        table[e] = (t + delta + 1 + parent_depth,)
    for e, time in extension_labels.items():
        table[e] = (time,)
    labeling = Labeling(tuple(table))
    if any(ts and ts[-1] > inst.tau for ts in labeling.times_by_edge):
        raise ValidationError("witness labels exceed the horizon")
    return labeling
