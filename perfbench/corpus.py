"""Seeded workload corpora: instance files on disk and the CLI calls run on them.

A workload is a fixed list of slots.  Each slot has POOL variants (or as
many as its entry in WORKLOADS says); variant
``v`` of slot ``name`` is generated from ``random.Random("<workload>/<name>/<v>")``,
so its inputs are the same on every machine and its expected outputs can be
pinned once in ``expected.json`` (see ``pin.py``).  The run seed picks one
variant per slot (or as many as the entry's fourth field says) and the order
of the chosen variants, so different seeds run different inputs of the same
shapes and sizes.  The ops of one variant stay in order because later ones
read files written by earlier ones.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from tmbcast.core import (
    FullAvailability,
    Instance,
    Labeling,
    StaticGraph,
    TraversalSpec,
    reaches_all,
)
from tmbcast.fileformat import serialize_cnf, serialize_instance, serialize_labeling
from tmbcast.reductions import CnfFormula
from tmbcast.solvers import search_space_size
from tmbcast.tsot import build_ea_tsot

POOL = 8
MEASURES = ("ea", "ld", "ft", "st", "mh", "mw")
# mw enumerates simple paths: on the multi-label union schedules of a 40x40
# grid one call takes seconds, so mw runs on the one-label-per-edge trees only.
UNION_MEASURES = MEASURES[:5]
DEFAULT_DEADLINE_S = 30.0
# The slowest legitimate approximation call in the plan corpus takes 1.5 s,
# 2.5 s traced on a busy machine; the 5x5/tau=60 call never finishes at the
# seed (ROADMAP item 4).
APPROX_DEADLINE_S = 5.0
GADGET_LIMIT_FLAGS = ["--max-edges", "64", "--max-tau", "24", "--max-labelings", "20000"]


@dataclass
class Op:
    """One CLI call.  ``key`` indexes expected.json; ``ctx`` feeds the checks."""

    key: str
    argv: list[str]
    check: str
    ctx: dict = field(default_factory=dict)
    deadline_s: float = DEFAULT_DEADLINE_S
    expected: dict | None = None  # analytic expectation, preferred to the pin
    outputs: tuple[str, ...] = ()  # files the call writes
    probe: tuple[str, float] | None = None  # (span name, ROADMAP baseline s)


# ---------------------------------------------------------------------------
# Instance generators


def grid_instance(rng, k, tau, sources, mu):
    """k x k grid, random default weights, three random overrides per edge."""
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    defaults = tuple(rng.randint(1, 3) for _ in edges)
    overrides = tuple(
        tuple(sorted((t, rng.randint(0, 3)) for t in rng.sample(range(1, tau + 1), 3)))
        for _ in edges
    )
    while True:
        chosen = frozenset(rng.sample(range(k * k), sources))
        inst = Instance(
            StaticGraph(k * k, tuple(edges)), chosen, TraversalSpec(defaults, overrides),
            (mu,) * len(edges), tau,
        )
        if _fully_reachable(inst):
            return inst


def tree_instance(rng, n, tau, sources, mu=2):
    """Random recursive tree; resampled until every source reaches everything."""
    while True:
        edges = tuple(sorted((rng.randrange(v), v) for v in range(1, n)))
        defaults = tuple(rng.randint(1, 3) for _ in edges)
        overrides = tuple(
            tuple(sorted((t, rng.randint(0, 3)) for t in rng.sample(range(1, tau + 1), 2)))
            for _ in edges
        )
        inst = Instance(
            StaticGraph(n, edges), frozenset(rng.sample(range(n), sources)),
            TraversalSpec(defaults, overrides), (mu,) * len(edges), tau,
        )
        if _fully_reachable(inst):
            return inst


def small_instance(rng, space_band, sources):
    """Random instance in the style of the oracle-equivalence criterion,
    resampled until its brute-force search space falls in ``space_band``."""
    lo, hi = space_band
    while True:
        n = rng.randint(3, 6)
        order = list(range(n))
        rng.shuffle(order)
        pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        spare = [p for p in itertools.combinations(range(n), 2) if p not in pairs]
        rng.shuffle(spare)
        pairs.update(spare[: rng.randint(0, 3)])
        edges = tuple(sorted(pairs))
        tau = rng.randint(2, 5)
        defaults = tuple(rng.randint(0, 3) for _ in edges)
        overrides = tuple(
            tuple(sorted((t, rng.randint(0, 3)) for t in rng.sample(range(1, tau + 1), rng.randint(1, 2))))
            if rng.random() < 0.4 else ()
            for _ in edges
        )
        inst = Instance(
            StaticGraph(n, edges), frozenset(rng.sample(range(n), sources)),
            TraversalSpec(defaults, overrides),
            tuple(min(rng.choice((1, 2)), tau) for _ in edges), tau,
        )
        if lo <= search_space_size(inst) <= hi and _fully_reachable(inst):
            return inst


def path_instance(rng, n):
    """Path 0-1-...-(n-1) from source 0; one label per edge, rising in time.

    Returns the instance, the labeling, and the labeling's minimum-waiting
    objective computed straight from the definition: the path to vertex v is
    unique, so its waiting is the sum of the gaps before it, and the worst
    vertex is the far end.
    """
    weights = [rng.randint(1, 2) for _ in range(n - 1)]
    times, t = [], 1
    for w in weights:
        times.append(t)
        t += w + rng.randint(0, 2)
    waiting = sum(times[i + 1] - (times[i] + weights[i]) for i in range(n - 2))
    inst = Instance(
        StaticGraph(n, tuple((i, i + 1) for i in range(n - 1))), frozenset({0}),
        TraversalSpec(tuple(weights), ((),) * (n - 1)), (1,) * (n - 1), times[-1],
    )
    return inst, Labeling(tuple((t,) for t in times)), waiting


def random_cnf(rng, variables, clauses, width=None, satisfiable=None):
    """Random CNF without a clause holding a literal and its negation;
    clauses have ``width`` literals, or one or two when it is None."""
    while True:
        rows = []
        for _ in range(clauses):
            k = width or rng.randint(1, 2)
            lits = [rng.choice((1, -1)) * rng.randint(1, variables) for _ in range(k)]
            if any(-l in lits for l in lits):
                break
            rows.append(tuple(lits))
        else:
            formula = CnfFormula(variables, tuple(rows))
            if satisfiable is None or formula.satisfiable() == satisfiable:
                return formula


def _fully_reachable(inst):
    full = FullAvailability(inst.tau)
    return all(reaches_all(inst.graph, full, inst.traversal, s) for s in inst.sources)


def _far_vertex(k, v):
    """The grid corner farthest from v."""
    r, c = divmod(v, k)
    return (0 if 2 * r >= k else k - 1) * k + (0 if 2 * c >= k else k - 1)


def _tree_labeling(inst):
    """Union of the earliest-arrival spanning trees of every source."""
    lab = Labeling.empty(inst.graph.edge_count)
    for s in sorted(inst.sources):
        lab = lab.union(build_ea_tsot(s, inst).to_labeling(inst.graph.edge_count))
    return lab


def _random_labeling(rng, inst, most):
    return Labeling(tuple(
        tuple(sorted(rng.sample(range(1, inst.tau + 1), rng.randint(1, most))))
        for _ in range(inst.graph.edge_count)
    ))


# ---------------------------------------------------------------------------
# Slot builders: (rng, directory, key prefix) -> list of Op


class _Files:
    def __init__(self, directory: Path, prefix: str):
        self.directory = directory
        self.stem = prefix.replace("/", "_")

    def path(self, suffix: str) -> str:
        return str(self.directory / f"{self.stem}.{suffix}")

    def write(self, suffix: str, text: str) -> str:
        path = self.path(suffix)
        Path(path).write_text(text, encoding="utf-8")
        return path


def check_grid(k, sources, measure_offset):
    def build(rng, files, key):
        inst = grid_instance(rng, k, 8 * k, sources, sources + 1)
        ipath = files.write("instance.json", serialize_instance(inst))
        tree = _tree_labeling(inst)
        union = tree.union(_random_labeling(rng, inst, 1))
        labs = {
            "tree": tree,
            "union": union,
            "random": _random_labeling(rng, inst, 2),
        }
        lpaths = {
            name: files.write(f"{name}.json", serialize_labeling(lab, {"solver": name}))
            for name, lab in labs.items()
        }
        ops = []

        def verify(lab, m):
            ops.append(Op(
                f"{key}/verify-{lab}-{m}",
                ["verify", "--in", ipath, "--labeling", lpaths[lab], "--measure", m],
                "verify",
            ))

        for m in MEASURES:
            verify("tree", m)
        for j in range(2):
            verify("union", UNION_MEASURES[(measure_offset + 2 * j) % 5])
        verify("random", "ea")
        src = min(inst.sources)
        for j in range(2):
            m = UNION_MEASURES[(measure_offset + 2 * j + 1) % 5]
            ops.append(Op(
                f"{key}/distance-union-{m}",
                ["distance", "--measure", m, "--from", str(src), "--to", str(_far_vertex(k, src)),
                 "--in", ipath, "--labeling", lpaths["union"]],
                "distance",
                {"instance": ipath, "labeling": lpaths["union"]},
            ))
        return ops

    return build


def check_twosource(rng, files, key):
    formula = random_cnf(rng, rng.randint(1, 3), rng.randint(1, 2), 3, satisfiable=True)
    bits = "".join("1" if v else "0" for _, v in sorted(formula.satisfying_assignment().items()))
    cnf = files.write("cnf", serialize_cnf(formula))
    gadget, witness = files.path("gadget.json"), files.path("witness.json")
    return [
        Op(f"{key}/gen", ["gen", "twosource", "--cnf", cnf, "--sources", "2", "--out", gadget],
           "gen", {"instance": gadget}, outputs=(gadget,)),
        Op(f"{key}/witness",
           ["witness", "--cnf", cnf, "--assignment", bits, "--in", gadget, "--out", witness],
           "witness", {"instance": gadget, "labeling": witness}, outputs=(witness,)),
        Op(f"{key}/verify", ["verify", "--in", gadget, "--labeling", witness, "--measure", "ea"],
           "verify"),
    ]


def check_path(rng, files, key):
    inst, lab, waiting = path_instance(rng, 1500)
    ipath = files.write("instance.json", serialize_instance(inst))
    lpath = files.write("labeling.json", serialize_labeling(lab, {"solver": "path"}))
    return [Op(
        f"{key}/verify-mw",
        ["verify", "--in", ipath, "--labeling", lpath, "--measure", "mw"],
        "verify",
        expected={"exit": 0, "out": {"command": "verify", "feasible": True, "measure": "mw",
                                     "objective": waiting}},
    )]


def plan_solve(make, measure, extra=(), deadline=DEFAULT_DEADLINE_S, probe=None):
    def build(rng, files, key):
        inst = make(rng)
        ipath = files.write("instance.json", serialize_instance(inst))
        out = files.path("schedule.json")
        return [Op(
            f"{key}/solve-{measure}",
            ["solve", "--measure", measure, "--in", ipath, "--out", out, *extra],
            "solve", {"instance": ipath, "labeling": out},
            deadline_s=deadline, outputs=(out,), probe=probe,
        )]

    return build


def plan_distance(k, tau, measure, probe=None):
    def build(rng, files, key):
        inst = grid_instance(rng, k, tau, 1, 1)
        ipath = files.write("instance.json", serialize_instance(inst))
        (src,) = inst.sources
        return [Op(
            f"{key}/distance-{measure}",
            ["distance", "--measure", measure, "--from", str(src), "--to", str(_far_vertex(k, src)),
             "--in", ipath],
            "distance", {"instance": ipath, "labeling": None}, probe=probe,
        )]

    return build


def oracle_random(band, sources, measure):
    def build(rng, files, key):
        inst = small_instance(rng, band, sources)
        ipath = files.write("instance.json", serialize_instance(inst))
        out = files.path("schedule.json")
        return [Op(
            f"{key}/oracle-{measure}",
            ["oracle", "--measure", measure, "--in", ipath, "--out", out],
            "oracle", {"instance": ipath, "labeling": out, "measure": measure},
            outputs=(out,),
        )]

    return build


def oracle_gadget(measure, a, b=None):
    def build(rng, files, key):
        formula = random_cnf(rng, rng.randint(1, 2), rng.randint(1, 3))
        cnf = files.write("cnf", serialize_cnf(formula))
        gadget, out = files.path("gadget.json"), files.path("schedule.json")
        params = ["-a", str(a)] + (["-b", str(b)] if b is not None else [])
        return [
            Op(f"{key}/gen-sat",
               ["gen", "sat", "--measure", measure, "--cnf", cnf, *params, "--out", gadget],
               "gen", {"instance": gadget}, outputs=(gadget,)),
            Op(f"{key}/oracle-{measure}",
               ["oracle", "--measure", measure, "--in", gadget, "--out", out, *GADGET_LIMIT_FLAGS],
               "gadget", {"instance": gadget, "labeling": out, "satisfiable": formula.satisfiable()},
               outputs=(out,)),
        ]

    return build


def _grid(k, tau, sources=1, mu=1):
    return lambda rng: grid_instance(rng, k, tau, sources, mu)


def _tree(n, tau, sources):
    return lambda rng: tree_instance(rng, n, tau, sources)


WORKLOADS = {
    # A user holding a schedule: parse it, check reachability, evaluate it.
    # The mw call on the tree schedule of the larger multi-source grids takes
    # up to twice as long on one variant as on another, so those slots, like
    # the oracle's random instances, have one variant.
    "check": (
        [(f"grid{k}s{s}", check_grid(k, s, i), pool) for i, (k, s, pool) in enumerate(
            [(10, 1, POOL), (10, 4, POOL), (20, 2, POOL), (30, 3, 1), (40, 1, POOL),
             (40, 4, 1)])]
        + [(f"twosource{i}", check_twosource) for i in range(3)]
        + [("path1500", check_path)]
    ),
    # A user asking for a schedule, or for the best distance with everything open.
    # The calls of under 0.1 s (the small single-source grids and trees, and
    # the non-ft distances) run three variants each, so that the median sits
    # among many calls of similar cost rather than between a few.
    "plan": (
        [(f"single{k}-{m}", plan_solve(_grid(k, tau), m, probe=probe), POOL, picks)
         for k, tau, m, probe, picks in [
             (70, 2000, "ea", ("solvers.solve_single_source", 0.47), 1),
             (40, 2000, "ea", ("solvers.solve_single_source", 0.10), 1),
             (40, 2000, "ld", None, 1),
             (20, 400, "ea", None, 3), (20, 400, "ld", None, 3),
             (10, 400, "ea", None, 3), (10, 400, "ld", None, 3)]]
        + [(f"multi{k}-{m}", plan_solve(_grid(k, tau, s, s), m))
           for k, tau, s in [(30, 2000, 4), (20, 400, 3)] for m in ("ea", "ld")]
        + [(f"tree{n}-{m}", plan_solve(_tree(n, 100, s), m), POOL, 3 if n == 100 else 1)
           for n, s in [(100, 2), (300, 4)] for m in ("ea", "ld")]
        # The approximation's time varies tenfold between instances of one
        # size, so, like the oracle's random instances, each has one variant.
        + [(f"approx{k}t{tau}-{m}",
            plan_solve(_grid(k, tau), m, ["--approx"], APPROX_DEADLINE_S, probe), 1)
           for k, tau, m, probe in [
               (4, 10, "ft", None), (4, 15, "mw", None), (4, 20, "ft", None),
               (5, 10, "mw", None), (5, 15, "ft", None),
               (5, 20, "ft", ("solvers.approx_ft_mw", 0.9)), (5, 20, "mw", None),
               (5, 60, "ft", None)]]
        + [(f"distance{k}-{m}", plan_distance(
            k, 400, m, ("distances.distance.ft", 0.8) if (k, m) == (20, "ft") else None),
            POOL, 1 if m == "ft" else 3)
           for k in (10, 15, 20) for m in ("ea", "ld", "ft", "st", "mh")]
    ),
    # Many oracle calls on tiny instances: per-call overhead dominates.
    "oracle": (
        # The brute-force time of equally large random instances varies
        # tenfold with how many of their labelings are feasible, so these
        # slots have one variant each and every run has the same 48.
        [(f"random-{m}{j}", oracle_random(band, 1 + j % 2, m), 1)
         for m in MEASURES
         for j, band in enumerate([(800, 1300)] * 6 + [(3000, 5000)] * 2)]
        + [(f"gadget{i}-{m}", oracle_gadget(m, a, b))
           for i, (m, a, b) in enumerate([
               ("ft", 1, None), ("ft", 3, None), ("st", 2, None),
               ("mh", 3, None), ("mw", 1, 2), ("mw", 2, 2)])]
    ),
}


def slots(workload: str) -> list[tuple[str, object, int, int]]:
    """(name, builder, number of variants, variants per run) of every slot."""
    full = []
    for name, build, *rest in WORKLOADS[workload]:
        pool = rest[0] if rest else POOL
        picks = rest[1] if len(rest) > 1 else 1
        full.append((name, build, pool, picks))
    return full


def build_ops(workload: str, variants: list[tuple[str, int]], directory: Path) -> list[Op]:
    """Generate the files of every chosen (slot, variant); ops follow the
    order of ``variants``."""
    directory.mkdir(parents=True, exist_ok=True)
    builders = {name: build for name, build, _, _ in slots(workload)}
    ops: list[Op] = []
    for name, v in variants:
        build = builders[name]
        key = f"{name}/v{v}"
        rng = random.Random(f"{workload}/{name}/{v}")
        ops.extend(build(rng, _Files(directory, key), key))
    return ops


def choose_variants(workload: str, seed: int) -> list[tuple[str, int]]:
    """The run seed picks each slot's variants and the order of them all."""
    rng = random.Random(seed)
    chosen = [(name, v) for name, _, pool, picks in slots(workload)
              for v in rng.sample(range(pool), picks)]
    rng.shuffle(chosen)
    return chosen


def warm_up_ops(directory: Path) -> list[Op]:
    """A few calls on tiny inputs, so that lazy set-up is paid before timing."""
    directory.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    for i, build in enumerate((
        check_grid(3, 1, 0), plan_solve(_grid(3, 24), "ea"), oracle_random((10, 200), 1, "ea")
    )):
        key = f"warm-up{i}"
        ops.extend(build(random.Random(key), _Files(directory, key), key)[:2])
    return ops
