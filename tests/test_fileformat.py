from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from tmbcast.core import (
    Instance,
    Labeling,
    ParseError,
    StaticGraph,
    TraversalSpec,
    ValidationError,
)
from tmbcast.fileformat import (
    InstanceDocument,
    export_dot,
    parse_cnf,
    parse_instance,
    parse_instance_document,
    parse_labeling,
    serialize_cnf,
    serialize_instance,
    serialize_labeling,
)
from tmbcast.reductions import CnfFormula, tmb_to_reachfast

import reference_loader as ref
import worked_example as fig
import oracles

FIXTURES = Path(__file__).parent / "fixtures"


def test_fixture_parses_to_worked_example():
    text = (FIXTURES / "delivery-network.json").read_text()
    doc = parse_instance_document(text)
    assert doc.kind == "tmb"
    assert doc.graph.vertex_count == 6
    assert doc.graph.edge_count == 10
    assert doc.names == fig.VERTEX_NAMES
    assert {doc.vertex_name(s) for s in doc.sources} == {"E", "M"}
    assert doc.to_instance() == fig.build_instance()
    # the checked-in bytes are exactly the canonical form
    assert serialize_instance(fig.build_instance(), names=fig.VERTEX_NAMES) == text


def test_fixture_labelings_parse():
    for code, lab in (("ea", fig.LABELING_EA), ("ft", fig.LABELING_FT), ("st", fig.LABELING_ST)):
        doc = parse_labeling((FIXTURES / f"delivery-schedule-{code}.json").read_text())
        assert doc.labels == lab
        assert doc.provenance["objective"] == fig.EXPECTED[code]


def test_instance_round_trip_bytes():
    rng = random.Random(31)
    for _ in range(40):
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 6), extra_edges=rng.randint(0, 3),
            tau=rng.randint(1, 6), source_count=rng.randint(1, 2),
        )
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text
        rf = tmb_to_reachfast(inst)
        text2 = serialize_instance(rf)
        assert parse_instance(text2) == rf
        assert serialize_instance(parse_instance(text2)) == text2
        # Each document gives only the model of its own kind.
        with pytest.raises(ValidationError, match="document holds a reachfast instance"):
            parse_instance_document(text2).to_instance()
        with pytest.raises(ValidationError, match="document holds a tmb instance"):
            parse_instance_document(text).to_reachfast()


def test_labeling_round_trip_bytes():
    rng = random.Random(32)
    for _ in range(30):
        inst = oracles.random_instance(rng, n=rng.randint(2, 5), tau=4)
        lab = oracles.random_labeling(rng, inst)
        text = serialize_labeling(lab, {"note": "test"})
        doc = parse_labeling(text)
        assert doc.labels == lab
        assert serialize_labeling(doc) == text


def test_documents_with_roles_and_meta_round_trip():
    inst = fig.build_instance()
    doc = InstanceDocument.from_model(
        inst,
        names=fig.VERTEX_NAMES,
        roles=("source", "plain", "plain", "plain", "plain", "source"),
        meta={"kind": "worked-example", "note": [1, 2]},
    )
    text = serialize_instance(doc)
    again = parse_instance_document(text)
    assert again.roles == doc.roles
    assert again.meta == doc.meta
    assert serialize_instance(again) == text


def test_parse_rejects_malformed_documents():
    good = serialize_instance(fig.build_instance())
    cases = []
    cases.append("not json")
    cases.append(json.dumps([1, 2]))
    payload = json.loads(good)
    for mutate in (
        lambda d: d.update(format="nope"),
        lambda d: d.update(version=99),
        lambda d: d.pop("edges"),
        lambda d: d.update(kind="weird"),
        lambda d: d.update(overrides=[[99, 1, 1]]),
        lambda d: d.update(multiplicity=[0] * 10),
        lambda d: d.update(labels=[[1]] * 10),
        lambda d: d.update(names=["x"]),
        lambda d: d.update(edges=[[0, 0]] + d["edges"][1:]),
    ):
        bad = json.loads(good)
        mutate(bad)
        cases.append(json.dumps(bad))
    for text in cases:
        with pytest.raises((ParseError, ValidationError)):
            parse_instance_document(text)


def test_structural_validation_only():
    # an instance whose source cannot reach anything still parses
    inst = Instance(
        graph=oracles.random_connected_graph(random.Random(0), 2, 0),
        sources=frozenset({0}),
        traversal=oracles.random_traversal(random.Random(0), 1, 3),
        multiplicity=(1,),
        tau=3,
    )
    doc = parse_instance(serialize_instance(inst))
    assert doc == inst


def test_serialize_parse_fuzz_loop():
    rng = random.Random(33)
    for _ in range(200):
        inst = oracles.random_instance(
            rng, n=rng.randint(2, 6), extra_edges=rng.randint(0, 3),
            tau=rng.randint(1, 6),
        )
        text = serialize_instance(inst)
        # random single-character corruptions must never crash the parser
        pos = rng.randrange(len(text))
        corrupted = text[:pos] + rng.choice('X}{[]",:0157') + text[pos + 1:]
        try:
            parse_instance_document(corrupted)
        except (ParseError, ValidationError):
            pass


# ---------------------------------------------------------------------------
# DIMACS


def test_parse_cnf_minimal():
    f = parse_cnf("p cnf 1 1\n1 0\n")
    assert f.variable_count == 1
    assert f.clauses == ((1,),)


def test_parse_cnf_layered_validation():
    # a clause with x and -x parses fine; generators reject it later
    f = parse_cnf("p cnf 2 1\n1 -1 2 0\n")
    assert f.contradictory_clauses() == [0]


def test_parse_cnf_errors():
    for text in (
        "",
        "1 0\n",
        "p cnf 1\n1 0\n",
        "p cnf 1 2\n1 0\n",
        "p cnf 1 1\n2 0\n",
        "p cnf 1 1\nx 0\n",
        "p cnf 1 1\n0\n",
    ):
        with pytest.raises(ParseError):
            parse_cnf(text)
    for text, message in (
        ("p cnf 1 1\np cnf 1 1\n1 0\n", "line 2: duplicate header"),
        ("p cnf one 1\n1 0\n", "line 1: header counts must be integers"),
        ("p cnf 1 0\n", "line 1: header counts must be positive"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_cnf(text)


def test_parse_cnf_comments_and_final_clause():
    f = parse_cnf("c header\np cnf 2 2\nc mid\n1 2 0\n-1 -2")
    assert f.clause_count == 2


def test_parse_cnf_stops_at_the_percent_terminator():
    # SATLIB's files close with '%' and then '0', which is no clause.
    f = parse_cnf("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n")
    assert f == CnfFormula(3, ((1, -2), (2, 3)))
    with pytest.raises(ParseError, match="header promises 3 clauses, found 2"):
        parse_cnf("p cnf 3 3\n1 -2 0\n2 3 0\n%\n0\n3 0\n")


def test_cnf_round_trip():
    rng = random.Random(34)
    for _ in range(50):
        p = rng.randint(1, 4)
        clauses = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 3)
            clauses.append(
                tuple(rng.choice((1, -1)) * rng.randint(1, p) for _ in range(k))
            )
        f = CnfFormula(p, tuple(clauses))
        assert parse_cnf(serialize_cnf(f, comment="round trip")) == f


def test_cnf_fuzz_never_crashes():
    rng = random.Random(35)
    alphabet = "pc nf0123456789- \n%"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            parse_cnf(text)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# DOT


def test_export_dot():
    doc = parse_instance_document((FIXTURES / "delivery-network.json").read_text())
    dot = export_dot(doc)
    assert dot.startswith("graph tmbcast {")
    assert '0 -- 1 [label="(1,1) (12,1)"];' in dot
    plain = InstanceDocument(Instance(StaticGraph(2, ((0, 1),)), frozenset({0}),
                                      TraversalSpec.uniform(1, 3), (1,), 2))
    assert '0 -- 1 [label="w=3"];' in export_dot(plain)
    assert "doublecircle" in dot
    dot2 = export_dot(doc, fig.LABELING_EA)
    assert "t=1 " in dot2


def test_export_dot_quotes_names_and_roles():
    doc = parse_instance_document((FIXTURES / "delivery-network.json").read_text())
    names = ('say "hi"', "back\\slash", "日本", *doc.names[3:])
    roles = ("supplier", 'a "role"', *("x",) * (len(names) - 2))
    dot = export_dot(InstanceDocument(doc.instance, names=names, roles=roles))
    assert r'0 [label="say \"hi\"", shape=doublecircle, comment="supplier"];' in dot
    assert r'1 [label="back\\slash", comment="a \"role\""];' in dot
    assert '2 [label="日本", comment="x"];' in dot
    # Plain names are written as before.
    assert '3 [label="v3", comment="x"];' in export_dot(
        InstanceDocument(doc.instance, names=doc.names, roles=roles))


def test_export_dot_rejects_a_labeling_of_other_edges():
    doc = parse_instance_document((FIXTURES / "delivery-network.json").read_text())
    rows = fig.LABELING_EA.times_by_edge
    for lab, count in ((Labeling(rows[:-1]), 9), (Labeling(rows + ((1,),)), 11)):
        with pytest.raises(ValidationError, match=f"labeling covers {count} edges, instance has 10"):
            export_dot(doc, lab)


PATH_EDGES = tuple((v, v + 1) for v in range(6))


def _path_document(tau, overrides):
    """A 7-vertex path's instance document (6 edges) with these override
    entries."""
    inst = Instance(StaticGraph(7, PATH_EDGES), frozenset({0}),
                    TraversalSpec.uniform(6, 1), (1,) * 6, tau)
    doc = json.loads(serialize_instance(inst))
    doc["overrides"] = overrides
    return json.dumps(doc)


def _path_instance_of_rows(overrides, tau):
    """The same instance, its overrides given as rows in entry order."""
    rows = [[] for _ in PATH_EDGES]
    for e, t, w in overrides:
        rows[e].append((t, w))
    return Instance(StaticGraph(7, PATH_EDGES), frozenset({0}),
                    TraversalSpec((1,) * 6, rows), (1,) * 6, tau)


@pytest.mark.parametrize("overrides, want", [
    # Edge 5's entries come first, and edge 2 lists its later time first.
    ([[5, 9, 1], [2, 8, 1], [5, 6, 2], [2, 7, 0], [2, 3, 1]], "override time 7 on edge 2"),
    ([[3, 5, 1], [3, 6, 0]], "override time 6 on edge 3"),
])
def test_horizon_fault_names_the_first_edge_and_its_first_late_time(overrides, want):
    text = _path_document(5, overrides)
    for build in (
        lambda: parse_instance_document(text),
        lambda: ref.parse_instance_document(text),
        lambda: _path_instance_of_rows(overrides, 5),
    ):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == f"{want} beyond tau"


def test_overrides_at_the_horizon_load():
    doc = parse_instance_document(_path_document(5, [[5, 5, 0], [2, 1, 3]]))
    assert doc.traversal.overrides == ((), (), ((1, 3),), (), (), ((5, 0),))


def test_sorted_label_rows_are_kept_as_given():
    rows = ((1, 3, 9), (), (2,))
    labels = Labeling(rows)
    assert all(kept is given for kept, given in zip(labels.times_by_edge, rows))
    assert parse_labeling(serialize_labeling(labels)).labels.times_by_edge == rows


def test_unsorted_and_faulty_label_rows_load_as_before():
    def loaded(rows):
        return parse_labeling(json.dumps({
            "format": "tmbcast/labeling", "version": 1, "labels": rows})).labels

    assert loaded([[3, 1]]).times_by_edge == ((1, 3),)
    assert loaded([[4], [7, 2, 5], []]).times_by_edge == ((4,), (2, 5, 7), ())
    for rows, want in (
        ([[2, 2]], "edge 0 labels not sorted/duplicate-free"),
        ([[1], [1, 3, 3]], "edge 1 labels not sorted/duplicate-free"),
        ([[0]], "edge 0 has a label < 1"),
        ([[2], [0, 1]], "edge 1 has a label < 1"),
    ):
        for load in (loaded, Labeling):
            with pytest.raises(ValidationError) as err:
                load(rows)
            assert str(err.value) == want
