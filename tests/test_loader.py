"""The document loader against its verbatim reference copy
(``reference_loader.py``), and a count of the models one CLI call builds.

Valid documents are drawn as canonical text and then re-encoded the ways a
document may differ from its canonical form and still load: numbers as
floats, strings or bools that int() maps to them, edges with the larger
endpoint first, overrides and labels out of order, an earlier override
entry for the same edge and time that the last one replaces.  Rejected
documents are canonical ones with one to three entries replaced, dropped,
repeated or added.  The loader must build the same models as the reference
from every document the reference accepts, and raise the same exception
class with the same message on every one it rejects, except on the
documents the reference misreads (see ``misread_by_the_reference``), which
the loader must reject.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loader as ref
from tmbcast import cli
from tmbcast.core import (
    Instance,
    Labeling,
    ParseError,
    ReachFastInstance,
    StaticGraph,
    TmbError,
    TraversalSpec,
)
from tmbcast.fileformat import (
    InstanceDocument,
    parse_instance_document,
    parse_labeling,
    serialize_instance,
    serialize_labeling,
)
from tmbcast.reductions import tmb_to_reachfast

FIXTURES = Path(__file__).parent / "fixtures"
DOC_FIELDS = (
    "kind", "graph", "sources", "traversal", "tau", "multiplicity", "labels",
    "names", "roles", "meta",
)
# The keys a mutation picks from, the lists more often: an entry deep in a
# list reaches the checks that run last.
MUTABLE_KEYS = (
    ("vertices", "tau", "names")
    + ("edges", "overrides", "labels") * 3
    + ("sources", "default_weights", "multiplicity") * 2
)
BAD_VALUES = st.one_of(
    st.integers(-3, 9),
    st.sampled_from(
        [None, "x", "1.5", "", [], [1], {}, True, False, 2.5, 10**9,
         float("inf"), float("nan")]
    ),
)


def _bad(draw):
    return copy.deepcopy(draw(BAD_VALUES))  # a fresh list or dict each time


def plain(x):
    """Field values of models, recursively, with each scalar's type, so that
    an int and an equal float or bool differ."""
    if dataclasses.is_dataclass(x):
        return tuple(plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(map(plain, x))
    if isinstance(x, frozenset):
        return frozenset(map(plain, x))
    return type(x).__name__, x


def outcome(call, *args):
    """What ``call`` makes of ``args``: ("ok", field values) or ("raises",
    exception class, message)."""
    try:
        made = call(*args)
    except Exception as err:  # the class and the message are compared
        return "raises", type(err), str(err)
    if isinstance(made, (InstanceDocument, ref.InstanceDocument)):
        return "ok", tuple(plain(getattr(made, k)) for k in DOC_FIELDS)
    return "ok", plain(made)


# ---------------------------------------------------------------------------
# Documents


@st.composite
def instance_texts(draw, min_edges=0):
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(
        st.sampled_from(pairs), min_size=min_edges, max_size=len(pairs), unique=True))
    m = len(edges)
    tau = draw(st.integers(1, 6))
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1))
    defaults = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    overrides = [
        tuple(sorted(draw(st.dictionaries(
            st.integers(1, tau), st.integers(0, 3), max_size=3)).items()))
        for _ in edges
    ]
    graph = StaticGraph(n, tuple(edges))
    traversal = TraversalSpec(tuple(defaults), tuple(overrides))
    if draw(st.booleans()):
        mult = draw(st.lists(st.integers(1, tau), min_size=m, max_size=m))
        model = Instance(graph, sources, traversal, tuple(mult), tau)
    else:
        labels = Labeling(tuple(
            tuple(sorted(draw(st.sets(st.integers(1, tau), max_size=3))))
            for _ in edges
        ))
        model = ReachFastInstance(graph, sources, traversal, labels, tau)
    names = draw(st.none() | st.lists(st.text(max_size=3), min_size=n, max_size=n))
    roles = draw(st.none() | st.lists(
        st.sampled_from(["source", "plain", "literal"]), min_size=n, max_size=n))
    meta = draw(st.none() | st.dictionaries(
        st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=2))
    return serialize_instance(model, names=names, roles=roles, meta=meta)


@st.composite
def labeling_texts(draw):
    rows = draw(st.lists(st.sets(st.integers(1, 8), max_size=4), max_size=8))
    provenance = draw(st.none() | st.dictionaries(
        st.text(max_size=3), st.integers(), max_size=2))
    return serialize_labeling(Labeling(tuple(map(sorted, rows))), provenance)


def _number(draw, v):
    """A JSON value int() maps to the non-negative int ``v``."""
    options = [v, float(v), str(v), v + 0.5]
    if v in (0, 1):
        options.append(bool(v))
    return draw(st.sampled_from(options))


def _shuffled(draw, items):
    return draw(st.permutations(items)) if items else items


@st.composite
def reencoded(draw, text):
    """``text`` written the ways a document may differ from its canonical
    form and still load to the same model."""
    payload = json.loads(text)
    payload["edges"] = [
        [_number(draw, x) for x in draw(st.sampled_from([pair, pair[::-1]]))]
        for pair in payload["edges"]
    ]
    entries = _shuffled(draw, payload["overrides"])
    for e, t, _ in draw(st.lists(st.sampled_from(entries), max_size=3)) if entries else []:
        # an earlier entry for the same (edge, time), replaced by the last one
        last = max(i for i, (f, u, _) in enumerate(entries) if (f, u) == (e, t))
        entries.insert(draw(st.integers(0, last)), [e, t, draw(st.integers(0, 9))])
    payload["overrides"] = [[_number(draw, x) for x in item] for item in entries]
    for key in ("default_weights", "multiplicity"):
        if key in payload:
            payload[key] = [_number(draw, x) for x in payload[key]]
    sources = payload["sources"]
    payload["sources"] = [_number(draw, x) for x in _shuffled(draw, sources + sources[:1])]
    if "labels" in payload:
        payload["labels"] = [
            [_number(draw, x) for x in _shuffled(draw, row)] for row in payload["labels"]
        ]
    return json.dumps(payload)


@st.composite
def mutated(draw, text):
    """``text`` with one to three entries replaced, dropped, repeated or
    added, at the top level or inside the model's lists."""
    payload = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from([k for k in MUTABLE_KEYS if k in payload]))
        slots = [[(payload, key)], [], []]  # by depth
        if isinstance(payload[key], list):
            for i, item in enumerate(payload[key]):
                slots[1].append((payload[key], i))
                if isinstance(item, list):
                    slots[2].extend((item, j) for j in range(len(item)))
        depth = draw(st.sampled_from([d for d in (0, 1, 1, 1, 2, 2, 2, 2) if slots[d]]))
        holder, at = draw(st.sampled_from(slots[depth]))
        action = draw(st.sampled_from(["replace", "drop", "repeat", "add", "loop"]))
        value = holder[at]
        if action == "replace" or (action in ("add", "loop") and not isinstance(value, list)):
            holder[at] = _bad(draw)
        elif action == "drop":
            del holder[at]
        elif action == "repeat":
            if isinstance(holder, list):
                holder.insert(at, copy.deepcopy(value))
            else:
                holder[at] = [value, value] if not isinstance(value, list) else value + value[:1]
        elif action == "add":
            value.append(_bad(draw))
        elif value:  # loop: an edge from a vertex to itself, a repeated time
            value[-1] = value[0]
    return json.dumps(payload)


def misread_by_the_reference(text: str) -> bool:
    """True when the document has JSON true or false as its vertex count or
    horizon, or a label row that is not an array.  The reference takes the
    first as 1 or 0 and a string or object row's characters or keys as
    labels, where the loader raises; it rejects any other such row, but
    with a message that names no field.  (A mutated edge or override entry
    that is a string or an object holds no digits, so both reject it
    alike.)"""
    payload = json.loads(text)
    rows = payload.get("labels")
    return (any(type(payload.get(key)) is bool for key in ("vertices", "tau"))
            or isinstance(rows, list) and any(type(row) is not list for row in rows))


def loads_like_the_reference(load, ref_load, text):
    """The loader's outcome on ``text`` is the reference's, or a rejection
    of a document the reference misreads."""
    got = outcome(load, text)
    if misread_by_the_reference(text):
        assert got[0] == "raises"
    else:
        assert got == outcome(ref_load, text)


@settings(max_examples=200, deadline=None)
@given(instance_texts().flatmap(lambda text: st.tuples(st.just(text), reencoded(text))))
def test_loader_builds_the_reference_models(texts):
    canonical, text = texts
    for given_text in (canonical, text):
        new = outcome(parse_instance_document, given_text)
        assert new[0] == "ok"
        assert new == outcome(ref.parse_instance_document, given_text)
        assert serialize_instance(parse_instance_document(given_text)) == canonical


@settings(max_examples=400, deadline=None)
@given(instance_texts(min_edges=1).flatmap(mutated))
def test_loader_rejects_what_the_reference_rejects(text):
    loads_like_the_reference(parse_instance_document, ref.parse_instance_document, text)


@settings(max_examples=400, deadline=None)
@given(instance_texts(min_edges=1).flatmap(mutated))
def test_loader_raises_only_library_errors(text):
    try:
        parse_instance_document(text)
    except TmbError:  # anything else fails the test
        pass


def _fault(key, *path_and_value):
    """A mutation setting ``payload[key][i]...[j] = value``."""
    *path, value = path_and_value

    def mutate(payload):
        holder, at = payload, key
        for step in path:
            holder, at = holder[at], step
        holder[at] = value
    return mutate


# One document per check, in the order the loader runs them, each faulty in
# that check alone, and some with two faults to pin which one is named.
FAULTS = {
    "no vertex": _fault("vertices", 0),
    "endpoint not a number": _fault("edges", 3, 1, "x"),
    "endpoint infinite": _fault("edges", 3, 1, float("inf")),
    "endpoint infinite after a bad pair": lambda d: (
        d["edges"][1].append(7), d["edges"][4].__setitem__(0, float("inf"))),
    "endpoint infinite after a bad endpoint": lambda d: (
        d["edges"][1].__setitem__(1, "x"), d["edges"][4].__setitem__(0, float("inf"))),
    "edge of three": lambda d: d["edges"][2].append(1),
    "override of two": lambda d: d["overrides"][5].pop(),
    "override not a list": _fault("overrides", 5, 17),
    "override for edge 10": _fault("overrides", 5, 0, 10),
    "override NaN before unknown edge": lambda d: (
        d["overrides"][1].__setitem__(2, float("nan")),
        d["overrides"][4].__setitem__(0, -1)),
    "self-loop": _fault("edges", 4, [2, 2]),
    "endpoint 6": _fault("edges", 4, 1, 6),
    "duplicate edge": _fault("edges", 4, [1, 0]),
    "default not a number": _fault("default_weights", 2, "heavy"),
    "default of nine edges": lambda d: d["default_weights"].pop(),
    "negative default": _fault("default_weights", 6, -1),
    "override time 0": _fault("overrides", 7, 1, 0),
    "negative override weight": _fault("overrides", 7, 2, -2),
    "time 0 and an earlier negative default": lambda d: (
        d["overrides"][7].__setitem__(1, 0), d["default_weights"].__setitem__(0, -1)),
    "names of five": lambda d: d["names"].pop(),
    "meta a list": _fault("meta", []),
    "source not a number": _fault("sources", 0, None),
    "multiplicity not a number": _fault("multiplicity", 3, "many"),
    "tau 0": _fault("tau", 0),
    "one vertex": lambda d: d.update(vertices=1, edges=[], overrides=[],
                                     default_weights=[], multiplicity=[], names=None),
    "no source": _fault("sources", []),
    "source 6": _fault("sources", 1, 6),
    "multiplicity of nine edges": lambda d: d["multiplicity"].pop(),
    "multiplicity 0": _fault("multiplicity", 3, 0),
    "override past tau": _fault("overrides", 7, 1, 999),
}
# Checks of the tmb formulation; a reachfast instance has no multiplicity.
TMB_ONLY = {
    "multiplicity not a number", "multiplicity of nine edges", "multiplicity 0",
}
REACHFAST_FAULTS = {
    "labels of nine edges": lambda d: d["labels"].pop(),
    "label not a number": _fault("labels", 2, 0, "x"),
    "label row not a list": _fault("labels", 2, 5),
    "label twice": _fault("labels", 2, [3, 3]),
    "label 0": _fault("labels", 2, [0]),
    "label past tau": _fault("labels", 2, [999]),
    "label 0 after a bad number": lambda d: (
        d["labels"][1].append(0), d["labels"][5].append("x")),
    "carries multiplicity": _fault("multiplicity", [1] * 10),
}


def _fixture_payload(kind):
    text = (FIXTURES / "delivery-network.json").read_text()
    if kind == "reachfast":
        text = serialize_instance(
            tmb_to_reachfast(parse_instance_document(text).to_instance()),
            names=json.loads(text)["names"])
    return json.loads(text)


@pytest.mark.parametrize(
    "kind, fault",
    [("tmb", f) for f in FAULTS]
    + [("reachfast", f) for f in FAULTS if f not in TMB_ONLY]
    + [("reachfast", f) for f in REACHFAST_FAULTS],
)
def test_loader_names_each_fault_like_the_reference(kind, fault):
    payload = _fixture_payload(kind)
    (FAULTS | REACHFAST_FAULTS)[fault](payload)
    text = json.dumps(payload)
    got = outcome(parse_instance_document, text)
    assert got[0] == "raises"
    if fault == "label row not a list":  # the reference's message names no field
        assert got == ("raises", ParseError,
                       "instance document: label rows must be arrays of integers")
    else:
        assert got == outcome(ref.parse_instance_document, text)


@st.composite
def reencoded_labels(draw, text):
    payload = json.loads(text)
    payload["labels"] = [
        [_number(draw, x) for x in _shuffled(draw, row)] for row in payload["labels"]
    ]
    return json.dumps(payload)


@st.composite
def mutated_labels(draw, text):
    payload = json.loads(text)
    rows = payload["labels"]
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["row", "time", "repeat", "provenance"]))
        if action == "row" or not any(rows):
            rows.insert(draw(st.integers(0, len(rows))), _bad(draw))
        elif action == "provenance":
            payload["provenance"] = _bad(draw)
        else:
            row = draw(st.sampled_from([r for r in rows if isinstance(r, list) and r] or [[1]]))
            if action == "time":
                row[draw(st.integers(0, len(row) - 1))] = _bad(draw)
            else:
                row.append(row[0])
    return json.dumps(payload)


@settings(max_examples=300, deadline=None)
@given(labeling_texts().flatmap(
    lambda text: st.tuples(st.just(text), reencoded_labels(text), mutated_labels(text))))
def test_labeling_loader_matches_the_reference(texts):
    canonical, text, bad = texts
    for given_text in (canonical, text):
        new = outcome(parse_labeling, given_text)
        assert new[0] == "ok"
        assert new == outcome(ref.parse_labeling, given_text)
        assert serialize_labeling(parse_labeling(given_text)) == canonical
    loads_like_the_reference(parse_labeling, ref.parse_labeling, bad)


# ---------------------------------------------------------------------------
# Constructors, called directly with values a document could not carry


NUMBERS = st.one_of(
    st.integers(-2, 7), st.booleans(), st.sampled_from([1.0, 2.5, "3", "x", None])
)


def _sequences(elements, **bounds):
    return st.lists(elements, **bounds).flatmap(
        lambda xs: st.sampled_from([xs, tuple(xs)]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constructors_match_the_reference(data):
    draw = data.draw
    pairs = _sequences(_sequences(NUMBERS, min_size=1, max_size=3), max_size=5)
    n = draw(st.integers(0, 5))
    edges = draw(pairs)
    assert outcome(StaticGraph, n, edges) == outcome(ref.StaticGraph, n, edges)

    m = draw(st.integers(0, 4))
    defaults = draw(_sequences(NUMBERS, min_size=m, max_size=m + 1))
    overrides = draw(_sequences(pairs, min_size=m, max_size=m))
    assert (outcome(TraversalSpec, defaults, overrides)
            == outcome(ref.TraversalSpec, defaults, overrides))

    rows = draw(_sequences(_sequences(NUMBERS, max_size=4), max_size=5))
    assert outcome(Labeling, rows) == outcome(ref.Labeling, rows)

    k = draw(st.integers(1, 4))
    graph = StaticGraph(k, ((0, 1),) if k > 1 and draw(st.booleans()) else ())
    traversal = TraversalSpec((1,) * graph.edge_count, ((),) * graph.edge_count)
    if draw(st.booleans()):
        traversal = TraversalSpec(
            (1,) * graph.edge_count, ((((draw(st.integers(1, 9)), 1),),) * graph.edge_count))
    sources = draw(st.frozensets(NUMBERS, max_size=3))
    tau = draw(st.integers(-1, 6))
    mult = draw(_sequences(NUMBERS, max_size=2))
    assert (outcome(Instance, graph, sources, traversal, mult, tau)
            == outcome(ref.Instance, graph, sources, traversal, mult, tau))
    labels = Labeling(tuple(draw(st.lists(
        st.lists(st.integers(1, 8), unique=True, max_size=3),
        min_size=graph.edge_count, max_size=graph.edge_count + 1))))
    assert (outcome(ReachFastInstance, graph, sources, traversal, labels, tau)
            == outcome(ref.ReachFastInstance, graph, sources, traversal, labels, tau))


# ---------------------------------------------------------------------------
# One model per document


def test_verify_builds_one_instance(tmp_path, monkeypatch, capsys):
    built = []
    check = Instance.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Instance, "__post_init__", counting)
    network = tmp_path / "network.json"
    shutil.copy(FIXTURES / "delivery-network.json", network)
    code = cli.main([
        "verify", "--in", str(network),
        "--labeling", str(FIXTURES / "delivery-schedule-ea.json"), "--measure", "ea",
    ])
    capsys.readouterr()
    assert code == 0
    assert len(built) == 1
