from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tmbcast.cli as cli
from tmbcast.cli import main
from tmbcast.core import Instance, ParseError, StaticGraph, TraversalSpec, ValidationError
from tmbcast.distances import Measure
from tmbcast.fileformat import (
    parse_cnf,
    parse_instance,
    parse_instance_document,
    parse_labeling,
    serialize_cnf,
    serialize_instance,
    serialize_labeling,
)
from tmbcast.reductions import CnfFormula
from tmbcast.solvers import solve_single_source

import worked_example as fig

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture
def network(tmp_path):
    dst = tmp_path / "network.json"
    shutil.copy(FIXTURES / "delivery-network.json", dst)
    return dst


def test_verify_worked_example(capsys, network):
    for code_name, want in (("ea", 10), ("ft", 3), ("st", 3)):
        code, payload, _ = run(
            capsys,
            "verify",
            "--in", str(network),
            "--labeling", str(FIXTURES / f"delivery-schedule-{code_name}.json"),
            "--measure", code_name,
        )
        assert code == 0
        assert payload["feasible"] is True
        assert payload["objective"] == want


@pytest.mark.parametrize("measure, want", [("ea", 4), ("ld", 3)])
def test_solve_on_a_tree_matches_the_oracle(capsys, measure, want):
    # Three sources with multiplicity 2 on a 6-vertex tree: only the tree
    # regime applies, and the oracle's search space has 7,776 labelings.
    tree = str(FIXTURES / "tree-network.json")
    code, solved, _ = run(capsys, "solve", "--in", tree, "--measure", measure)
    assert (code, solved["regime"], solved["status"]) == (0, "tree", "optimal")
    code, oracle, _ = run(capsys, "oracle", "--in", tree, "--measure", measure)
    assert (code, oracle["status"]) == (0, "optimal")
    assert solved["objective"] == oracle["objective"] == want


@pytest.mark.parametrize("measure, want", [("ea", 4), ("ld", 3)])
def test_solve_on_a_tree_with_one_label_off_the_sources_subtree(capsys, tmp_path, measure, want):
    # The same tree with multiplicity 1 on edge 1 (hub-shop), which no
    # source-to-source path crosses: still the tree regime, and the
    # written schedule fits the quota and attains the oracle's objective.
    tree = str(FIXTURES / "tree-network-leaf.json")
    schedule = str(tmp_path / "schedule.json")
    code, solved, _ = run(capsys, "solve", "--in", tree, "--measure", measure, "--out", schedule)
    assert (code, solved["regime"], solved["status"], solved["objective"]) == (0, "tree", "optimal", want)
    code, verified, _ = run(capsys, "verify", "--in", tree, "--labeling", schedule,
                            "--measure", measure)
    assert (code, verified["objective"]) == (0, want)
    code, oracle, _ = run(capsys, "oracle", "--in", tree, "--measure", measure)
    assert (code, oracle["objective"]) == (0, want)


def test_verify_infeasible_exit_code(capsys, network, tmp_path):
    bad = tmp_path / "bad.json"
    from tmbcast.core import Labeling
    from tmbcast.fileformat import serialize_labeling

    bad.write_text(serialize_labeling(Labeling.empty(10)))
    code, payload, _ = run(
        capsys, "verify", "--in", str(network),
        "--labeling", str(bad), "--measure", "ea",
    )
    assert code == 4
    assert payload["feasible"] is False


def test_verify_ea_runs_one_search_per_source(capsys, network, monkeypatch):
    import tmbcast.core as core
    import tmbcast.distances as distances

    searched = []
    kernel = core.earliest_arrival

    def counting(graph, table, source, **kwargs):
        searched.append(source)
        return kernel(graph, table, source, **kwargs)

    for module in (core, distances):
        monkeypatch.setattr(module, "earliest_arrival", counting)
    code, payload, _ = run(
        capsys, "verify", "--in", str(network),
        "--labeling", str(FIXTURES / "delivery-schedule-ea.json"), "--measure", "ea",
    )
    assert (code, payload["feasible"], payload["objective"]) == (0, True, 10)
    assert sorted(searched) == [fig.E, fig.M]


def test_main_builds_the_argument_parser_once(monkeypatch, capsys):
    import argparse

    parsers = []
    parse = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for _ in range(2):
        code = main(["verify", "--in", "missing.json",
                     "--labeling", "missing.json", "--measure", "ea"])
        assert code == 3
    capsys.readouterr()
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_verify_infeasible_runs_no_measure_search(capsys, network, tmp_path, monkeypatch):
    import tmbcast.distances as distances
    from tmbcast.core import Labeling
    from tmbcast.fileformat import serialize_labeling

    def refuse(*args):
        raise AssertionError("measure search on an infeasible schedule")

    monkeypatch.setattr(distances, "_min_wait_run", refuse)
    bad = tmp_path / "bad.json"
    bad.write_text(serialize_labeling(Labeling.empty(10)))
    code, payload, _ = run(
        capsys, "verify", "--in", str(network),
        "--labeling", str(bad), "--measure", "mw",
    )
    assert code == 4
    assert payload == {"command": "verify", "measure": "mw", "feasible": False,
                       "objective": None}


def test_solve_reports_no_tractable_regime(capsys, network):
    code, payload, err = run(
        capsys, "solve", "--measure", "ea", "--in", str(network)
    )
    assert code == 5
    assert "NoTractableRegime" in err


def test_solve_single_source_roundtrip(capsys, tmp_path, network):
    doc = parse_instance_document(network.read_text())
    inst = doc.to_instance()
    single = type(inst)(
        inst.graph, frozenset({fig.M}), inst.traversal, inst.multiplicity, inst.tau
    )
    single_file = tmp_path / "single.json"
    single_file.write_text(serialize_instance(single, names=doc.names))
    out = tmp_path / "schedule.json"
    code, payload, _ = run(
        capsys, "solve", "--measure", "ea",
        "--in", str(single_file), "--out", str(out),
    )
    assert code == 0
    assert payload["regime"] == "single-source"
    assert payload["status"] == "optimal"
    code2, payload2, _ = run(
        capsys, "verify", "--in", str(single_file),
        "--labeling", str(out), "--measure", "ea",
    )
    assert code2 == 0
    assert payload2["objective"] == payload["objective"]


def test_solve_approx_fallback(capsys, tmp_path, network):
    doc = parse_instance_document(network.read_text())
    inst = doc.to_instance()
    single = type(inst)(
        inst.graph, frozenset({fig.E}), inst.traversal, inst.multiplicity, inst.tau
    )
    f = tmp_path / "single.json"
    f.write_text(serialize_instance(single))
    code, payload, _ = run(capsys, "solve", "--measure", "ft", "--in", str(f))
    assert code == 5
    code, payload, _ = run(
        capsys, "solve", "--measure", "ft", "--in", str(f), "--approx"
    )
    assert code == 0
    assert payload["status"] == "approximate"
    assert payload["objective"] <= payload["bounds"]["ft_max"]


def test_gen_sat_then_oracle(capsys, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(serialize_cnf(CnfFormula(2, ((1, 2),))))
    gadget_file = tmp_path / "gadget.json"
    code, payload, _ = run(
        capsys, "gen", "sat", "--measure", "ft", "--cnf", str(cnf),
        "-a", "2", "--out", str(gadget_file),
    )
    assert code == 0
    assert payload["yes_value"] == 4
    assert payload["no_value_lower_bound"] == 6
    code, payload, _ = run(
        capsys, "oracle", "--measure", "ft", "--in", str(gadget_file),
        "--max-labelings", "200000", "--max-edges", "40", "--max-tau", "20",
    )
    assert code == 0
    assert payload["objective"] == 4


def test_gen_sat_witness_verify(capsys, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(serialize_cnf(CnfFormula(1, ((1,),))))
    gadget_file = tmp_path / "gadget.json"
    run(
        capsys, "gen", "sat", "--measure", "mw", "--cnf", str(cnf),
        "-a", "1", "-b", "2", "--out", str(gadget_file),
    )
    labeling_file = tmp_path / "witness.json"
    code, payload, _ = run(
        capsys, "witness", "--cnf", str(cnf), "--assignment", "1",
        "--in", str(gadget_file), "--out", str(labeling_file),
    )
    assert code == 0
    code, payload, _ = run(
        capsys, "verify", "--in", str(gadget_file),
        "--labeling", str(labeling_file), "--measure", "mw",
    )
    assert code == 0
    assert payload["objective"] == 1


def test_gen_twosource_witness_verify(capsys, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(serialize_cnf(CnfFormula(3, ((1, 2, 3),))))
    gadget_file = tmp_path / "gadget.json"
    code, payload, _ = run(
        capsys, "gen", "twosource", "--cnf", str(cnf), "--out", str(gadget_file),
    )
    assert code == 0
    labeling_file = tmp_path / "witness.json"
    code, payload, _ = run(
        capsys, "witness", "--cnf", str(cnf), "--assignment", "111",
        "--in", str(gadget_file), "--out", str(labeling_file),
    )
    assert code == 0
    code, payload, _ = run(
        capsys, "verify", "--in", str(gadget_file),
        "--labeling", str(labeling_file), "--measure", "ea",
    )
    assert code == 0
    assert payload["feasible"] is True


def test_witness_rejects_unsatisfying_assignment(capsys, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(serialize_cnf(CnfFormula(1, ((1,),))))
    gadget_file = tmp_path / "gadget.json"
    run(
        capsys, "gen", "sat", "--measure", "ft", "--cnf", str(cnf),
        "-a", "1", "--out", str(gadget_file),
    )
    code, _, err = run(
        capsys, "witness", "--cnf", str(cnf), "--assignment", "0",
        "--in", str(gadget_file), "--out", str(tmp_path / "nope.json"),
    )
    assert code == 8
    assert "UnsatisfiedClause" in err


def test_witness_rejects_mismatched_inputs(capsys, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(serialize_cnf(CnfFormula(1, ((1,),))))
    gadget_file = tmp_path / "gadget.json"
    run(
        capsys, "gen", "sat", "--measure", "ft", "--cnf", str(cnf),
        "-a", "1", "--out", str(gadget_file),
    )
    other_cnf = tmp_path / "other.cnf"
    other_cnf.write_text(serialize_cnf(CnfFormula(1, ((-1,),))))
    edited = tmp_path / "edited.json"
    doc = json.loads(gadget_file.read_text())
    edited.write_text(json.dumps(dict(doc, tau=doc["tau"] + 1)))
    for formula, instance, bits, want, message in (
        (other_cnf, gadget_file, "1", 3,
         "CNF file does not match the formula recorded in the gadget"),
        (cnf, edited, "1", 3, "gadget file does not match its recorded generator inputs"),
        (cnf, gadget_file, "x", 8, "assignment must be 1 bits of 0/1, got 'x'"),
        (cnf, gadget_file, "10", 8, "assignment must be 1 bits of 0/1, got '10'"),
    ):
        out = tmp_path / "nope.json"
        code, payload, err = run(
            capsys, "witness", "--cnf", str(formula), "--assignment", bits,
            "--in", str(instance), "--out", str(out),
        )
        assert (code, payload) == (want, None)
        assert err.strip() == message
        assert not out.exists()


@pytest.mark.parametrize("meta, error", [
    (None, "ValidationError: instance file does not carry gadget metadata"),
    ({"kind": "sat-gadget", "variable_count": "x", "cnf": 5},
     "ParseError: gadget metadata: field 'variable_count' has the wrong type"),
    ({"kind": "sat-gadget", "variable_count": 3, "cnf": [[1, "x"]]},
     "ParseError: gadget metadata: cnf must list clauses of integers"),
    ({"kind": "sat-gadget", "variable_count": 3, "cnf": [[1, 2, 3]], "measure": "ft",
      "a": "x", "b": None},
     "ParseError: gadget metadata: field 'a' has the wrong type"),
    ({"kind": "twosource-gadget", "variable_count": 3, "cnf": [[1, 2, 3]],
      "source_count": "2"},
     "ParseError: gadget metadata: field 'source_count' has the wrong type"),
])
def test_witness_rejects_files_without_gadget_metadata(capsys, tmp_path, network, meta, error):
    doc = json.loads(network.read_text())
    if meta is not None:
        network.write_text(json.dumps(dict(doc, meta=meta)))
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(serialize_cnf(CnfFormula(3, ((1, 2, 3),))))
    code, payload, err = run(
        capsys, "witness", "--cnf", str(cnf), "--assignment", "111",
        "--in", str(network), "--out", str(tmp_path / "nope.json"),
    )
    assert (code, payload) == (3, None)
    assert err.strip() == error


def test_convert_round_trip(capsys, tmp_path, network):
    rf_file = tmp_path / "rf.json"
    code, _, _ = run(
        capsys, "convert", "--to", "reachfast",
        "--in", str(network), "--out", str(rf_file),
    )
    assert code == 0
    back_file = tmp_path / "back.json"
    code, _, _ = run(
        capsys, "convert", "--to", "tmb",
        "--in", str(rf_file), "--out", str(back_file),
    )
    assert code == 0
    assert parse_instance(back_file.read_text()) == parse_instance(
        network.read_text()
    )


def test_reachfast_override_past_tau_is_rejected_at_load(capsys, tmp_path, network):
    rf_file = tmp_path / "rf.json"
    code, _, _ = run(
        capsys, "convert", "--to", "reachfast",
        "--in", str(network), "--out", str(rf_file),
    )
    assert code == 0
    payload = json.loads(rf_file.read_text())
    payload["overrides"].append([0, 19, 1])  # tau is 14
    rf_file.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="override time 19 on edge 0 beyond tau"):
        parse_instance_document(rf_file.read_text())
    for command in (["convert", "--to", "tmb"], ["export-dot"]):
        out = tmp_path / "out"
        code, payload, err = run(capsys, *command, "--in", str(rf_file), "--out", str(out))
        assert (code, payload) == (3, None)
        assert "override time 19 on edge 0 beyond tau" in err
        assert not out.exists()


def test_distance_with_witness(capsys, network):
    code, payload, _ = run(
        capsys, "distance", "--measure", "ea", "--from", "M", "--to", "v1",
        "--in", str(network),
        "--labeling", str(FIXTURES / "delivery-schedule-ea.json"),
    )
    assert code == 0
    assert payload["value"] == 10
    hops = payload["witness"]
    assert hops[0]["from"] == "M"
    assert hops[-1]["to"] == "v1"


def test_distance_takes_numeric_vertex_ids(capsys, tmp_path, network):
    plain = tmp_path / "plain.json"
    plain.write_text(serialize_instance(parse_instance_document(network.read_text()).to_instance()))
    schedule = str(FIXTURES / "delivery-schedule-ea.json")
    code, payload, _ = run(
        capsys, "distance", "--measure", "ea", "--from", str(fig.M), "--to", str(fig.V1),
        "--in", str(plain), "--labeling", schedule,
    )
    assert code == 0
    assert (payload["from"], payload["to"], payload["value"]) == (str(fig.M), str(fig.V1), 10)
    assert payload["witness"][0]["from"] == str(fig.M)
    assert payload["witness"][-1]["to"] == str(fig.V1)
    for instance, to, error in (
        (plain, "6", "ValidationError: vertex 6 out of range"),
        (plain, "-1", "ValidationError: vertex -1 out of range"),
        (plain, "v1", "ValidationError: unknown vertex 'v1'"),
        (network, "v9", "ValidationError: unknown vertex 'v9'"),
    ):
        code, payload, err = run(
            capsys, "distance", "--measure", "ea", "--from", "0", "--to", to,
            "--in", str(instance), "--labeling", schedule,
        )
        assert (code, payload) == (3, None)
        assert err.strip() == error


def test_labels_outside_horizon_are_rejected(capsys, network, tmp_path):
    doc = json.loads((FIXTURES / "delivery-schedule-ea.json").read_text())
    doc["labels"][8] = [64]  # the network's tau is 14
    late = tmp_path / "late.json"
    late.write_text(json.dumps(doc))
    for argv in (
        ("distance", "--measure", "ld", "--from", "M", "--to", "v1"),
        ("verify", "--measure", "ld"),
    ):
        code, payload, err = run(
            capsys, *argv, "--in", str(network), "--labeling", str(late)
        )
        assert code == 3
        assert payload is None
        assert "time 64 outside 1..14" in err


def test_verify_reports_a_quota_violation_before_a_late_label(capsys, network, tmp_path):
    # Edge 8 holds two labels (multiplicity 1), one of them past tau = 14:
    # the quota is checked first, as ``objective`` and ``is_feasible`` do.
    doc = json.loads((FIXTURES / "delivery-schedule-ea.json").read_text())
    doc["labels"][8] = [2, 64]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, payload, err = run(
        capsys, "verify", "--measure", "ea", "--in", str(network), "--labeling", str(bad)
    )
    assert (code, payload) == (4, None)
    assert err.startswith("MultiplicityViolation: edge 8 has 2 labels, multiplicity 1")


def test_distance_same_vertex_is_error(capsys, network):
    code, _, err = run(
        capsys, "distance", "--measure", "ea", "--from", "M", "--to", "M",
        "--in", str(network),
    )
    assert code == 3
    assert "SameVertex" in err


def test_oracle_space_guard_exit(capsys, network):
    code, _, err = run(
        capsys, "oracle", "--measure", "ea", "--in", str(network),
        "--max-labelings", "10",
    )
    assert code == 6
    assert "SearchSpaceTooLarge" in err


# A negative or non-integer limit is a usage error; 0 is a limit.
@pytest.mark.parametrize("command", [["oracle"], ["solve", "--oracle"]],
                         ids=["oracle", "solve-oracle"])
@pytest.mark.parametrize("flag", ["--max-labelings", "--max-edges", "--max-tau"])
@pytest.mark.parametrize("value, message", [
    ("-1", "must be at least 0, not -1"),
    ("x", "invalid int value: 'x'"),
])
def test_oracle_rejects_a_negative_limit(capsys, network, command, flag, value, message):
    with pytest.raises(SystemExit) as stop:
        main([*command, "--measure", "ea", "--in", str(network), flag, value])
    assert stop.value.code == 2
    assert f"argument {flag}: {message}\n" in capsys.readouterr().err
    code, _, err = run(capsys, *command, "--measure", "ea", "--in", str(network), flag, "0")
    assert code == 6
    assert "SearchSpaceTooLarge" in err


# A 4-vertex path whose tau and multiplicities make the cross product huge:
# counting it exactly overflowed the message (10^9, 10^5) or never finished
# (10^12, 10^7).  Each run gets its own process and a wall timeout.
@pytest.mark.parametrize("command", [["oracle"], ["solve", "--oracle"]])
@pytest.mark.parametrize("tau, mu", [(10**9, 10**5), (10**12, 10**7)])
def test_oracle_refuses_a_huge_search_space_at_once(tmp_path, command, tau, mu):
    inst = Instance(StaticGraph(4, ((0, 1), (1, 2), (2, 3))), frozenset({0}),
                    TraversalSpec.uniform(3, 1), (mu,) * 3, tau)
    f = tmp_path / "huge.json"
    f.write_text(serialize_instance(inst))
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from tmbcast.cli import main; sys.exit(main())",
         *command, "--measure", "ft", "--in", str(f)],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 6
    assert done.stderr.splitlines() == [
        "SearchSpaceTooLarge: brute-force search space has more than 1e+18 labelings"
        f" and tau {tau} (tau limit 10)"
    ]


# Both ways to the oracle share one report: an instance it proves infeasible
# exits 4 and writes no schedule.
@pytest.mark.parametrize("command", [["oracle"], ["solve", "--oracle"]],
                         ids=["oracle", "solve-oracle"])
def test_oracle_infeasible_exit(capsys, tmp_path, command):
    f = FIXTURES / "two-source-path.json"  # sources at both ends, one label per edge
    out = tmp_path / "schedule.json"
    code, payload, _ = run(capsys, *command, "--measure", "ea", "--in", str(f), "--out", str(out))
    assert code == 4
    want = {"command": command[0], "measure": "ea", "status": "infeasible", "objective": None}
    if command[0] == "solve":
        want["regime"] = "oracle"
    assert payload == want
    assert not out.exists()


def test_oracle_out_writes_a_labeling_verify_accepts(capsys, tmp_path):
    from tmbcast.core import Instance, StaticGraph, TraversalSpec

    inst = Instance(
        StaticGraph(4, ((0, 1), (1, 2), (1, 3))),
        frozenset({0, 2}),
        TraversalSpec.from_maps((1, 2, 1), {0: {2: 0}}),
        (1, 2, 1),
        4,
    )
    f = tmp_path / "inst.json"
    f.write_text(serialize_instance(inst))
    for measure in ("ea", "ld", "ft", "mw"):
        out = tmp_path / f"oracle-{measure}.json"
        code, payload, _ = run(
            capsys, "oracle", "--measure", measure, "--in", str(f), "--out", str(out),
        )
        assert code == 0
        assert payload["status"] == "optimal"
        assert payload["labeling_file"] == str(out)
        code, verified, _ = run(
            capsys, "verify", "--in", str(f), "--labeling", str(out), "--measure", measure,
        )
        assert code == 0
        assert verified["feasible"] is True
        assert verified["objective"] == payload["objective"]


def test_solve_oracle_fallback(capsys, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(serialize_cnf(CnfFormula(1, ((1,),))))
    gadget_file = tmp_path / "gadget.json"
    code, generated, _ = run(
        capsys, "gen", "sat", "--measure", "ft", "--cnf", str(cnf),
        "-a", "1", "--out", str(gadget_file),
    )
    assert code == 0
    code, _, err = run(capsys, "solve", "--measure", "ft", "--in", str(gadget_file))
    assert code == 5
    assert "NoTractableRegime" in err
    out = tmp_path / "schedule.json"
    code, payload, _ = run(
        capsys, "solve", "--measure", "ft", "--in", str(gadget_file), "--oracle",
        "--max-labelings", "200000", "--max-edges", "40", "--max-tau", "20",
        "--out", str(out),
    )
    assert code == 0
    assert (payload["regime"], payload["status"]) == ("oracle", "optimal")
    assert payload["objective"] == generated["yes_value"]
    assert parse_labeling(out.read_text()).provenance["solver"] == "oracle"


@pytest.mark.parametrize("command", [
    ["verify", "--labeling", "{labeling}", "--measure", "ea"],
    ["oracle", "--measure", "mw"],
    ["solve", "--measure", "ld"],
])
def test_one_vertex_instance_is_rejected(capsys, tmp_path, command):
    instance = tmp_path / "one.json"
    instance.write_text(json.dumps({
        "format": "tmbcast/instance", "version": 1, "kind": "tmb", "vertices": 1,
        "edges": [], "sources": [0], "tau": 3, "default_weights": [],
        "overrides": [], "multiplicity": [],
    }))
    labeling = tmp_path / "empty.json"
    labeling.write_text(json.dumps({"format": "tmbcast/labeling", "version": 1, "labels": []}))
    argv = [arg.format(labeling=labeling) for arg in command]
    code, payload, err = run(capsys, *argv, "--in", str(instance))
    assert (code, payload) == (3, None)
    assert "needs at least two vertices" in err


def test_parse_error_exit(capsys, tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{ not json")
    code, _, err = run(capsys, "verify", "--in", str(f),
                       "--labeling", str(f), "--measure", "ea")
    assert code == 3


# A value int() cannot convert, at (key, index, ...) in the network or, for
# "labels", in the schedule; JSON text, since 1e400 loads as an infinity.
@pytest.mark.parametrize("key, at, value", [
    ("sources", (0,), '"x"'),
    ("sources", (0,), "null"),
    ("sources", (0,), "1e400"),
    ("multiplicity", (3,), '"x"'),
    ("multiplicity", (3,), "[1]"),
    ("multiplicity", (3,), "Infinity"),
    ("edges", (3, 1), "Infinity"),
    ("default_weights", (2,), "Infinity"),
    ("overrides", (1, 2), "Infinity"),
    ("labels", (2, 0), "Infinity"),
])
def test_malformed_values_are_parse_errors(capsys, tmp_path, network, key, at, value):
    files = {"network": network, "labels": FIXTURES / "delivery-schedule-ea.json"}
    name = "labels" if key == "labels" else "network"
    doc = json.loads(files[name].read_text())
    holder = doc[key]
    for step in at[:-1]:
        holder = holder[step]
    holder[at[-1]] = "@"
    files[name] = tmp_path / "malformed.json"
    files[name].write_text(json.dumps(doc).replace('"@"', value))
    code, payload, err = run(
        capsys, "verify", "--in", str(files["network"]),
        "--labeling", str(files["labels"]), "--measure", "ea",
    )
    assert (code, payload) == (3, None)
    assert err.startswith("ParseError: ")


# JSON values Python would read as rows or ints: a string row unpacks to
# its characters, and true and 1.0 equal the int 1.  Each is a parse error naming its
# field, in the two-source path network or in its schedule, whichever the
# error names; a number label row names its field too.
@pytest.mark.parametrize("key, value, error", [
    ("edges", ["01", "12"], "instance document: edges must be pairs of integers"),
    ("overrides", ["113"], "instance document: overrides must be [edge, time, weight]"),
    ("labels", ["12", [3]], "labeling document: label rows must be arrays of integers"),
    ("tau", True, "instance document: field 'tau' has the wrong type"),
    ("vertices", True, "instance document: field 'vertices' has the wrong type"),
    ("version", True, "instance document: unsupported version True"),
    ("version", True, "labeling document: unsupported version True"),
    ("version", 1.0, "labeling document: unsupported version 1.0"),
    ("labels", [7, [3]], "labeling document: label rows must be arrays of integers"),
])
def test_string_rows_and_boolean_ints_are_parse_errors(capsys, tmp_path, key, value, error):
    network = json.loads((FIXTURES / "two-source-path.json").read_text())
    labeling = {"format": "tmbcast/labeling", "version": 1, "labels": [[1], [3]]}
    (labeling if error.startswith("labeling") else network)[key] = value
    paths = []
    for name, doc in (("network", network), ("labeling", labeling)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    code, payload, err = run(capsys, "verify", "--in", str(paths[0]),
                             "--labeling", str(paths[1]), "--measure", "ea")
    assert (code, payload) == (3, None)
    assert err.strip() == f"ParseError: {error}"


@pytest.mark.parametrize("content, error", [
    ('{"names": ["K\u00f6ln"]}'.encode("latin-1"), "cannot read {path}: 'utf-8' codec can't"),
    (b"[" * 200_000 + b"]" * 200_000, "ParseError: instance document: nested too deeply"),
], ids=["not-utf-8", "nested-200000-deep"])
def test_undecodable_files_exit_3(capsys, tmp_path, content, error):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    code, payload, err = run(
        capsys, "verify", "--in", str(path), "--labeling", str(path), "--measure", "ea"
    )
    assert (code, payload) == (3, None)
    assert err.startswith(error.format(path=path))


def test_crlf_documents_load_the_same_model(tmp_path, network):
    labels = FIXTURES / "delivery-schedule-ea.json"
    crlf = {}
    for name, path in (("network", network), ("labels", labels)):
        crlf[name] = tmp_path / f"crlf-{name}.json"
        text = path.read_bytes()
        assert b"\r" not in text and b"\n" in text
        crlf[name].write_bytes(text.replace(b"\n", b"\r\n"))
    assert cli._load_document(str(crlf["network"])) == cli._load_document(str(network))
    assert cli._load_labeling(str(crlf["labels"])) == cli._load_labeling(str(labels))
    cnf = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
    formulas = []
    for newline in ("\n", "\r\n"):
        path = tmp_path / "formula.cnf"
        path.write_bytes(cnf.replace("\n", newline).encode())
        formulas.append(parse_cnf(cli._read(str(path))))
    assert formulas[0] == formulas[1]


@pytest.mark.parametrize("content", [
    b'{"names": ["\xff"]}',
    b"\xef\xbb\xbf" + (FIXTURES / "delivery-network.json").read_bytes(),
], ids=["invalid-utf-8", "byte-order-mark"])
def test_unreadable_documents_exit_3_with_one_line(capsys, tmp_path, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, payload, err = run(
        capsys, "verify", "--in", str(path), "--labeling", str(path), "--measure", "ea"
    )
    assert (code, payload) == (3, None)
    assert len(err.splitlines()) == 1


def test_export_dot_cli(capsys, tmp_path, network):
    out = tmp_path / "graph.dot"
    code, payload, _ = run(
        capsys, "export-dot", "--in", str(network),
        "--labeling", str(FIXTURES / "delivery-schedule-ea.json"),
        "--out", str(out),
    )
    assert code == 0
    assert out.read_text().startswith("graph tmbcast {")
    code, payload, err = run(capsys, "export-dot", "--in", str(network), "--out", str(tmp_path))
    assert (code, payload) == (3, None)
    assert err.startswith(f"cannot write {tmp_path}: ")


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "exit codes" in out.lower() or "Exit codes" in out
    assert "no tractable regime" in out.lower()


def test_every_exit_code_is_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    sentence = readme[readme.index("Exit codes (also listed in"):]
    sentence = sentence[:sentence.index(".\n")]
    for code in sorted(set(cli.EXIT_CODES.values()) | {0, 2}):
        assert re.search(rf"^  {code}  \S", cli.__doc__, re.M), code
        assert re.search(rf"[:,] {code} [a-z]", sentence.replace("\n", " ")), code


# ---------------------------------------------------------------------------
# The cyclic collector is held for the command and given back afterwards.


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector on or off inside the block, as before after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture
def verify_command(monkeypatch):
    """Install a function as ``cmd_verify``; the cached parser is rebuilt
    around it, and again after the test."""
    def install(func):
        monkeypatch.setattr(cli, "cmd_verify", func)
        cli.build_parser.cache_clear()
    yield install
    cli.build_parser.cache_clear()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("raised, outcome", [
    (None, 0),
    (cli._Exit(4), 4),
    (ParseError("bad"), 3),
    (RuntimeError("bug"), RuntimeError),
    (KeyboardInterrupt(), KeyboardInterrupt),
], ids=["exit-0", "exit-code", "tmb-error", "uncaught", "keyboard-interrupt"])
def test_main_holds_the_collector_and_gives_back_its_state(
        capsys, verify_command, enabled, raised, outcome):
    during = []

    def command(args):
        during.append(gc.isenabled())
        if raised is not None:
            raise raised

    verify_command(command)
    argv = ["verify", "--in", "x.json", "--labeling", "x.json", "--measure", "ea"]
    with collector(enabled):
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        after = gc.isenabled()
    capsys.readouterr()
    assert during == [False]
    assert after is enabled


def grid_files(tmp_path, k):
    """A k x k grid from vertex 0 with unit weights and its earliest-arrival
    tree schedule, as instance and labeling files."""
    edges = [(v, v + 1) for v in range(k * k) if v % k < k - 1]
    edges += [(v, v + k) for v in range(k * (k - 1))]
    inst = Instance(StaticGraph(k * k, tuple(edges)), frozenset({0}),
                    TraversalSpec.uniform(len(edges), 1), (1,) * len(edges), 4 * k)
    labeling = solve_single_source(inst, Measure.EARLIEST_ARRIVAL).labeling
    paths = tmp_path / f"grid{k}.json", tmp_path / f"grid{k}-ea.json"
    paths[0].write_text(serialize_instance(inst))
    paths[1].write_text(serialize_labeling(labeling))
    return paths


def test_verify_leaves_as_much_cyclic_garbage_on_a_large_grid_as_on_a_small_one(
        capsys, tmp_path):
    files = {k: grid_files(tmp_path, k) for k in (5, 20)}

    def garbage(k, measure):
        instance, labeling = files[k]
        with collector(False):
            gc.collect()
            code, _, _ = run(capsys, "verify", "--in", str(instance),
                             "--labeling", str(labeling), "--measure", measure)
            assert code == 0
            return gc.collect()

    garbage(5, "ea")  # first-call caches
    for measure in ("ea", "ld", "ft", "st", "mh", "mw"):
        small, large = garbage(5, measure), garbage(20, measure)
        # The grid has 16 times the vertices; the garbage does not grow.
        assert abs(large - small) <= 5, (measure, small, large)


# ---------------------------------------------------------------------------
# The approximation on an instance its source cannot span


@pytest.mark.parametrize("measure", ["ft", "mw"])
@pytest.mark.parametrize("vertices, edges", [
    (4, [[0, 1], [2, 3]]),
    (1_000_000, [[0, 1]]),
], ids=["two-components", "a-million-vertices"])
def test_solve_approx_reports_an_unspanned_instance_without_sweeping_tau(
        capsys, tmp_path, measure, vertices, edges):
    instance = tmp_path / "split.json"
    instance.write_text(json.dumps({
        "format": "tmbcast/instance", "version": 1, "kind": "tmb", "vertices": vertices,
        "edges": edges, "sources": [0], "tau": 10**9, "default_weights": [1] * len(edges),
        "overrides": [], "multiplicity": [1] * len(edges),
    }))
    started = time.perf_counter()
    code, payload, err = run(capsys, "solve", "--approx", "--measure", measure,
                             "--in", str(instance))
    # Milliseconds; a sweep over every start in 1..tau would take hours.
    assert time.perf_counter() - started < 1
    assert (code, payload) == (7, None)
    assert err.startswith("Unreachable: source 0 cannot reach ")
    assert len(err) < 1000


# ---------------------------------------------------------------------------
# Which fallback solve takes when no exact regime applies


@pytest.fixture
def two_source_triangle(tmp_path):
    instance = tmp_path / "triangle.json"
    instance.write_text(json.dumps({
        "format": "tmbcast/instance", "version": 1, "kind": "tmb", "vertices": 3,
        "edges": [[0, 1], [1, 2], [0, 2]], "sources": [0, 1], "tau": 3,
        "default_weights": [1, 1, 1], "overrides": [], "multiplicity": [1, 1, 1],
    }))
    return instance


def test_solve_approx_without_one_source_exits_5(capsys, two_source_triangle):
    # The approximation takes one source; with no other fallback the
    # command reports the missing regime.
    code, payload, err = run(capsys, "solve", "--approx", "--measure", "ft",
                             "--in", str(two_source_triangle))
    assert (code, payload) == (5, None)
    assert err.startswith("NoTractableRegime: no exact polynomial regime for measure ft")


def test_solve_approx_without_one_source_falls_back_to_the_oracle(
        capsys, two_source_triangle):
    code, payload, _ = run(capsys, "solve", "--approx", "--oracle", "--measure", "ft",
                           "--in", str(two_source_triangle))
    assert code == 0
    assert (payload["regime"], payload["status"], payload["objective"]) == (
        "oracle", "optimal", 1)


# ---------------------------------------------------------------------------
# Latest departure past 2**63 - 1 candidate first departures


@pytest.mark.parametrize("sources, multiplicity", [
    ([0], [1, 1]),
    ([0, 2], [2, 2]),
], ids=["one-source", "two-sources"])
def test_solve_ld_takes_a_horizon_past_the_machine_word(
        capsys, tmp_path, sources, multiplicity):
    tau = 10**30
    instance = tmp_path / "path.json"
    instance.write_text(json.dumps({
        "format": "tmbcast/instance", "version": 1, "kind": "tmb", "vertices": 3,
        "edges": [[0, 1], [1, 2]], "sources": sources, "tau": tau,
        "default_weights": [1, 1], "overrides": [], "multiplicity": multiplicity,
    }))
    started = time.perf_counter()
    code, payload, err = run(capsys, "solve", "--measure", "ld", "--in", str(instance))
    # A handful of runs; a pass over the candidates would never end.
    assert time.perf_counter() - started < 1
    assert (code, err) == (0, "")
    assert payload["objective"] == tau - 1
