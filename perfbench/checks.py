"""Correctness checks on each operation's output, run outside the timed region.

No check re-runs the call being timed.  The references are the values pinned
in expected.json, the exhaustive enumerators of tests/oracles.py, SAT verdicts
found by trying every assignment, the gadgets' yes/no values, the
approximation's own certificate, and the validators of tmbcast.core.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracles
from tmbcast.core import (
    FullAvailability,
    TemporalPath,
    TmbError,
    is_feasible,
    path_stats,
    validate_path,
)
from tmbcast.distances import Measure
from tmbcast.fileformat import parse_instance_document, parse_labeling

UNPINNED_FIELDS = ("labeling_file", "instance_file", "witness")


class Result:
    """What one CLI call left behind: exit code (None if it raised or ran out
    of time), stdout, and the text of every file it was asked to write."""

    def __init__(self, exit_code, stdout, outputs):
        self.exit_code = exit_code
        self.stdout = stdout
        self.outputs = outputs

    def payload(self) -> dict:
        return json.loads(self.stdout) if self.stdout.strip() else {}

    def pinned(self) -> dict:
        """The part of the output that expected.json records."""
        out = {k: v for k, v in self.payload().items() if k not in UNPINNED_FIELDS}
        return {"exit": self.exit_code, "out": out}


def load_document(path):
    return parse_instance_document(Path(path).read_text(encoding="utf-8"))


def _labels(path):
    return parse_labeling(Path(path).read_text(encoding="utf-8")).labels


def _schedule(ctx):
    """Instance and the schedule the call wrote; the schedule must be
    within quota and let every source reach every vertex."""
    instance = load_document(ctx["instance"]).to_instance()
    labeling = _labels(ctx["labeling"])
    if not labeling.respects_multiplicity(instance):
        raise AssertionError("schedule exceeds a quota")
    if not is_feasible(instance, labeling):
        raise AssertionError("schedule is infeasible")
    return instance, labeling


def _distance(ctx, out):
    if out["value"] is None:
        return
    doc = load_document(ctx["instance"])
    instance = doc.to_instance()
    avail = _labels(ctx["labeling"]) if ctx["labeling"] else FullAvailability(instance.tau)
    steps = out["witness"]
    path = TemporalPath(
        (doc.vertex_id(steps[0]["from"]), *(doc.vertex_id(s["to"]) for s in steps)),
        tuple((s["edge"], s["time"]) for s in steps),
    )
    if path.endpoints != (doc.vertex_id(out["from"]), doc.vertex_id(out["to"])):
        raise AssertionError("witness joins the wrong vertices")
    if not validate_path(path, avail, instance.traversal, instance.graph):
        raise AssertionError("witness is not a valid temporal path")
    got = Measure.from_code(out["measure"]).statistic(path_stats(path, instance.traversal))
    if got != out["value"]:
        raise AssertionError(f"witness realizes {got}, not the reported {out['value']}")


def _solve(ctx, out):
    _schedule(ctx)
    if "bounds" in out:
        key = "ft" if out["measure"] == "ft" else "mw"
        lo, hi = out["bounds"][f"{key}_min"], out["bounds"][f"{key}_max"]
        if not lo <= out["objective"] <= hi:
            raise AssertionError(f"objective {out['objective']} outside [{lo}, {hi}]")


def _oracle(ctx, out):
    if out["status"] != "optimal":
        return
    instance, labeling = _schedule(ctx)
    if not oracles.exhaustive_feasible(instance, labeling):
        raise AssertionError("exhaustive search finds the schedule infeasible")
    value = oracles.exhaustive_objective(instance, labeling, ctx["measure"])
    if value != out["objective"]:
        raise AssertionError(f"exhaustive objective {value}, reported {out['objective']}")


def _gadget(ctx, out):
    _schedule(ctx)
    meta = load_document(ctx["instance"]).meta
    if ctx["satisfiable"]:
        if out["objective"] != meta["yes_value"]:
            raise AssertionError(f"satisfiable, yet {out['objective']} != yes {meta['yes_value']}")
    elif out["objective"] < meta["no_value_lower_bound"]:
        raise AssertionError(
            f"unsatisfiable, yet {out['objective']} < no {meta['no_value_lower_bound']}")


def _gen(ctx, out):
    graph = load_document(ctx["instance"]).graph
    if (graph.vertex_count, graph.edge_count) != (out["vertices"], out["edges"]):
        raise AssertionError("written gadget does not match the reported size")


LIVE = {
    "verify": lambda ctx, out: None,
    "distance": _distance,
    "solve": _solve,
    "oracle": _oracle,
    "gadget": _gadget,
    "gen": _gen,
    "witness": lambda ctx, out: _schedule(ctx),
}


def check(op, result: Result, expected: dict | None) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    if expected is not None:
        got = result.pinned()
        if got["exit"] != expected["exit"]:
            return f"exit {got['exit']}, expected {expected['exit']}"
        for name, want in expected["out"].items():
            if got["out"].get(name) != want:
                return f"{name} = {got['out'].get(name)!r}, expected {want!r}"
    elif result.exit_code != 0:
        return f"exit {result.exit_code}"
    if result.exit_code != 0:
        return None
    try:
        LIVE[op.check](op.ctx, result.payload())
    except (AssertionError, KeyError, ValueError, OSError, TmbError) as err:
        return f"{type(err).__name__}: {err}"
    return None
