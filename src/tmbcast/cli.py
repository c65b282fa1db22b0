"""Command-line surface tying the library together.

Results go to stdout as one JSON document; diagnostics go to stderr.
Exit codes are part of the contract:

  0  success
  1  unexpected internal error
  2  usage error (bad flags or arguments)
  3  parse or validation error in an input file
  4  verification failed: infeasible labeling or multiplicity violation,
     or the oracle (oracle, or solve's --oracle fallback) proves the
     instance infeasible
  5  no tractable regime applies, and no fallback does: solve --approx
     applies to one source under ft/mw, else solve --oracle runs if given
  6  brute-force search space exceeds the configured limit
  7  a required reachability precondition fails
  8  bad generator or witness input (parameters, formula shape, assignment)
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import sys
from pathlib import Path

from tmbcast.core import (
    ContradictoryClause,
    Instance,
    InvalidParams,
    Labeling,
    MultiplicityTooSmall,
    MultiplicityViolation,
    NotATree,
    NotThreeSat,
    ParseError,
    SameVertex,
    SearchSpaceTooLarge,
    TmbError,
    Unreachable,
    UnsatisfiedClause,
    ValidationError,
    WrongSourceCount,
)
from tmbcast.distances import Measure, distance, objective
from tmbcast.fileformat import (
    InstanceDocument,
    _need,
    export_dot,
    parse_cnf,
    parse_instance_document,
    parse_labeling,
    serialize_instance,
    serialize_labeling,
)
from tmbcast.reductions import (
    CnfFormula,
    GadgetParams,
    _GADGET_MEASURES,
    gadget_labeling_from_assignment,
    gen_single_source_gadget,
    gen_two_source_gadget,
    reachfast_to_tmb,
    tmb_to_reachfast,
    two_source_witness_labeling,
)
from tmbcast.solvers import (
    NoTractableRegime,
    OracleLimits,
    SolveStatus,
    _APPROX_MEASURES,
    approx_ft_mw,
    brute_force,
    solve_auto,
)

# Exit code per error class; an error takes the code of the nearest class
# in its method resolution order.
EXIT_CODES = {
    ParseError: 3,
    NoTractableRegime: 5,
    SearchSpaceTooLarge: 6,
    Unreachable: 7,
    MultiplicityViolation: 4,
    SameVertex: 3,
    InvalidParams: 8,
    NotThreeSat: 8,
    ContradictoryClause: 8,
    UnsatisfiedClause: 8,
    WrongSourceCount: 8,
    MultiplicityTooSmall: 8,
    NotATree: 8,
    ValidationError: 3,
    TmbError: 1,
}


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def _fail(code: int, message: str):
    print(message, file=sys.stderr)
    raise _Exit(code)


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _read(path: str) -> str:
    # Bytes, decoded: no newline translation, as the parsers take "\r\n" as
    # whitespace or one line break.  Text, not bytes, goes to the parsers, so
    # a UTF-8 byte order mark stays a parse error rather than being skipped.
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        _fail(3, f"cannot read {path}: {err}")


def _write(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        _fail(3, f"cannot write {path}: {err}")


def _load_document(path: str) -> InstanceDocument:
    return parse_instance_document(_read(path))


def _load_tmb(path: str) -> tuple[InstanceDocument, Instance]:
    doc = _load_document(path)
    return doc, doc.to_instance()


def _load_labeling(path: str) -> Labeling:
    return parse_labeling(_read(path)).labels


def _steps_json(doc: InstanceDocument, witness) -> list:
    return [
        {
            "edge": e,
            "time": t,
            "from": doc.vertex_name(u),
            "to": doc.vertex_name(v),
        }
        for (e, t), u, v in zip(
            witness.steps, witness.vertices, witness.vertices[1:]
        )
    ]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args) -> None:
    doc, instance = _load_tmb(args.input)
    measure = Measure(args.measure)
    try:
        result = solve_auto(instance, measure)
    except NoTractableRegime:
        # The approximation takes one source under ft/mw; else the oracle.
        if args.approx and measure in _APPROX_MEASURES and len(instance.sources) == 1:
            result = approx_ft_mw(instance, measure)
        elif args.oracle:
            result = brute_force(instance, measure, _limits(args))
        else:
            raise
    _report(args, {"command": "solve", "regime": result.regime}, measure, result)


def _limits(args) -> OracleLimits:
    return OracleLimits(
        max_edges=args.max_edges, max_tau=args.max_tau, max_labelings=args.max_labelings
    )


def cmd_oracle(args) -> None:
    doc, instance = _load_tmb(args.input)
    measure = Measure(args.measure)
    result = brute_force(instance, measure, _limits(args))
    _report(args, {"command": "oracle"}, measure, result)


def _report(args, payload: dict, measure: Measure, result) -> None:
    """The tail of ``solve`` and ``oracle``: the command's own keys in
    ``payload`` plus the result's measure, status, objective and bounds; the
    schedule goes to ``--out`` only when there is one, and an infeasible
    result exits 4."""
    infeasible = result.status is SolveStatus.INFEASIBLE
    payload.update(measure=measure.code, status=result.status.value, objective=result.objective)
    if result.bounds is not None:
        payload["bounds"] = dataclasses.asdict(result.bounds)
    if args.out and not infeasible:
        provenance = {"solver": result.regime, "measure": measure.code,
                      "objective": result.objective, "status": result.status.value}
        _write(args.out, serialize_labeling(result.labeling, provenance))
        payload["labeling_file"] = args.out
    _emit(payload)
    if infeasible:
        raise _Exit(4)


def cmd_distance(args) -> None:
    doc, instance = _load_tmb(args.input)
    measure = Measure(args.measure)
    u = doc.vertex_id(getattr(args, "from"))
    v = doc.vertex_id(args.to)
    if args.labeling:
        availability = _load_labeling(args.labeling)
    else:
        availability = instance.full_availability()
    result = distance(u, v, availability, instance, measure)
    payload = {
        "command": "distance",
        "measure": measure.code,
        "from": doc.vertex_name(u),
        "to": doc.vertex_name(v),
        "value": result.value,
    }
    if result.witness is not None:
        payload["witness"] = _steps_json(doc, result.witness)
    _emit(payload)


def cmd_verify(args) -> None:
    doc, instance = _load_tmb(args.input)
    measure = Measure(args.measure)
    labeling = _load_labeling(args.labeling)
    value = objective(instance, labeling, measure)
    feasible = value is not None
    _emit(
        {
            "command": "verify",
            "measure": measure.code,
            "feasible": feasible,
            "objective": value,
        }
    )
    if not feasible:
        raise _Exit(4)


def cmd_gen_sat(args) -> None:
    formula = parse_cnf(_read(args.cnf))
    params = GadgetParams(Measure(args.measure), args.a, args.b)
    gadget = gen_single_source_gadget(formula, params)
    _write(args.out, serialize_instance(InstanceDocument.from_gadget(gadget)))
    _emit(
        {
            "command": "gen-sat",
            "measure": args.measure,
            "a": args.a,
            "b": args.b,
            "yes_value": gadget.yes_value,
            "no_value_lower_bound": gadget.no_value_lower_bound,
            "vertices": gadget.instance.graph.vertex_count,
            "edges": gadget.instance.graph.edge_count,
            "tau": gadget.instance.tau,
            "instance_file": args.out,
        }
    )


def cmd_gen_twosource(args) -> None:
    formula = parse_cnf(_read(args.cnf))
    gadget = gen_two_source_gadget(formula, source_count=args.sources)
    _write(args.out, serialize_instance(InstanceDocument.from_gadget(gadget)))
    _emit(
        {
            "command": "gen-twosource",
            "sources": args.sources,
            "vertices": gadget.instance.graph.vertex_count,
            "edges": gadget.instance.graph.edge_count,
            "tau": gadget.instance.tau,
            "instance_file": args.out,
        }
    )


def cmd_convert(args) -> None:
    doc = _load_document(args.input)
    if args.to == "reachfast":
        model = tmb_to_reachfast(doc.to_instance())
    else:
        model = reachfast_to_tmb(doc.to_reachfast())
    text = serialize_instance(
        model, names=doc.names, roles=doc.roles, meta=doc.meta
    )
    _write(args.out, text)
    _emit({"command": "convert", "to": args.to, "instance_file": args.out})


def _rebuild_gadget(doc: InstanceDocument):
    meta = doc.meta or {}
    kind = meta.get("kind")
    if kind not in ("sat-gadget", "twosource-gadget"):
        raise ValidationError("instance file does not carry gadget metadata")
    what = "gadget metadata"
    variable_count = _need(meta, "variable_count", int, what)
    clauses = _need(meta, "cnf", list, what)
    if not all(isinstance(c, list) and all(isinstance(l, int) for l in c) for c in clauses):
        raise ParseError(f"{what}: cnf must list clauses of integers")
    formula = CnfFormula(variable_count, tuple(map(tuple, clauses)))
    if kind == "twosource-gadget":
        source_count = _need(meta, "source_count", int, what)
        return formula, gen_two_source_gadget(formula, source_count=source_count)
    measure = Measure.from_code(_need(meta, "measure", str, what))
    params = GadgetParams(
        measure, _need(meta, "a", int, what), _need(meta, "b", (int, type(None)), what)
    )
    return formula, gen_single_source_gadget(formula, params)


def cmd_witness(args) -> None:
    doc = _load_document(args.input)
    formula_cli = parse_cnf(_read(args.cnf))
    formula_meta, gadget = _rebuild_gadget(doc)
    if formula_cli != formula_meta:
        _fail(3, "CNF file does not match the formula recorded in the gadget")
    rebuilt = serialize_instance(InstanceDocument.from_gadget(gadget))
    if rebuilt != serialize_instance(doc):
        _fail(3, "gadget file does not match its recorded generator inputs")
    bits = args.assignment
    if len(bits) != formula_cli.variable_count or any(c not in "01" for c in bits):
        _fail(
            8,
            f"assignment must be {formula_cli.variable_count} bits of 0/1, "
            f"got {bits!r}",
        )
    assignment = {i + 1: bits[i] == "1" for i in range(len(bits))}
    if gadget.meta["kind"] == "sat-gadget":
        labeling = gadget_labeling_from_assignment(gadget, assignment)
    else:
        labeling = two_source_witness_labeling(gadget, assignment)
    _write(
        args.out,
        serialize_labeling(
            labeling,
            {"solver": "witness", "assignment": bits, "kind": gadget.meta["kind"]},
        ),
    )
    _emit({"command": "witness", "labeling_file": args.out})


def cmd_export_dot(args) -> None:
    doc = _load_document(args.input)
    labeling = _load_labeling(args.labeling) if args.labeling else None
    _write(args.out, export_dot(doc, labeling))
    _emit({"command": "export-dot", "dot_file": args.out})


# ---------------------------------------------------------------------------
# Parser


def _limit(text: str) -> int:
    """An oracle limit: an int of at least 0, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs more
    than many a command it parses."""
    parser = argparse.ArgumentParser(
        prog="tmbcast",
        description="Temporal multi-broadcast scheduling toolkit",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_measure(p, measures=tuple(Measure)):
        p.add_argument("--measure", required=True, choices=[m.code for m in measures])

    def add_limits(p):
        p.add_argument("--max-labelings", type=_limit, default=OracleLimits.max_labelings)
        p.add_argument("--max-edges", type=_limit, default=OracleLimits.max_edges)
        p.add_argument("--max-tau", type=_limit, default=OracleLimits.max_tau)

    p = sub.add_parser("solve", help="dispatch to the applicable exact solver")
    add_measure(p)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.add_argument("--approx", action="store_true",
                   help="fall back to the ft/mw approximation (single source)")
    p.add_argument("--oracle", action="store_true",
                   help="fall back to brute force within limits")
    add_limits(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force exact solve within limits")
    add_measure(p)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    add_limits(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("distance", help="single-pair distance with witness")
    add_measure(p)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--labeling")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="feasibility and objective of a labeling")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--labeling", required=True)
    add_measure(p)
    p.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="hardness instance generators")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    p = gen_sub.add_parser("sat", help="single-source value gadget from CNF")
    add_measure(p, _GADGET_MEASURES)
    p.add_argument("--cnf", required=True)
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_sat)

    p = gen_sub.add_parser("twosource", help="two-source feasibility gadget")
    p.add_argument("--cnf", required=True)
    p.add_argument("--sources", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_twosource)

    p = sub.add_parser("convert", help="translate between formulations")
    p.add_argument("--to", required=True, choices=("reachfast", "tmb"))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("witness", help="labeling from a satisfying assignment")
    p.add_argument("--cnf", required=True)
    p.add_argument("--assignment", required=True,
                   help="bit string, leftmost bit is variable 1")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("export-dot", help="DOT rendering of the static graph")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--labeling")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command's searches allocate heap entries, parent tuples and fronts
    # in bulk but make almost no reference cycles, and reference counting
    # frees the rest at once, so the cyclic collector would only re-walk
    # live data.  Hold it for the one command and give the caller back its
    # state.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args.func(args)
    except _Exit as stop:
        return stop.code
    except TmbError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return next(EXIT_CODES[k] for k in type(err).__mro__ if k in EXIT_CODES)
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
