"""Bit-exact instance and labeling documents, DIMACS input, DOT output.

Documents are JSON with a fixed key order (sorted), two-space indentation,
sorted override/label lists, and a trailing newline, so serializing a parsed
document reproduces it byte for byte.  The text is exactly
``json.dumps(payload, sort_keys=True, indent=2)`` plus the newline, but
``_canonical`` writes the ints, strings and lists of the payload itself,
because with an indent ``json.dumps`` never uses the C encoder; only meta
and provenance go through it.  Parsing checks the JSON shape and
converts values with int(); the model constructors in ``tmbcast.core``
validate the structure, once per document, and the parsed document keeps
the validated model.  Reachability is a solver concern.

Overrides are ``[edge, time, weight]`` entries, the last one for an (edge,
time) winning: the loader checks their shape and edges, converts them to
exact ints and hands their columns to ``TraversalSpec``'s entry builder,
which then skips ``from_entries``' int and edge tests (code may pass
per-edge rows).  The table keeps one per-edge time -> weight index; its
sorted rows are derived when first read (serializing, DOT), so checking a
schedule never sorts them.  Every value meets one int test or one int():
labels are tested once and, when a canonical document holds each row in
increasing order, kept as they are; multiplicities are converted by the
``Instance`` constructor alone.

Every fault of a document's text raises ``ParseError``: text that is not
JSON or nests too deeply for the decoder (``RecursionError``), a missing or
mistyped field (true or false where an int belongs), an edge, override or
label row that is a string or an object (Python would read its
characters or keys as values), and every value int() rejects with
``TypeError``, ``ValueError`` or ``OverflowError`` (a string, null, a list,
NaN, an infinity).  Values that convert but break a model rule raise
``ValidationError`` from the constructors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

from tmbcast.core import (
    Instance,
    Labeling,
    ParseError,
    ReachFastInstance,
    StaticGraph,
    TraversalSpec,
    ValidationError,
    _check_cover,
    _within,
)
from tmbcast.reductions import CnfFormula, GadgetInstance

# What int() raises on a JSON value it cannot convert.
_INT_ERRORS = (TypeError, ValueError, OverflowError)

INSTANCE_FORMAT = "tmbcast/instance"
LABELING_FORMAT = "tmbcast/labeling"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class InstanceDocument:
    """Full-fidelity view of an instance file: the validated model plus
    annotations."""

    instance: Instance | ReachFastInstance
    names: tuple[str, ...] | None = None
    roles: tuple[str, ...] | None = None
    meta: dict | None = None

    @property
    def kind(self) -> str:
        return "tmb" if isinstance(self.instance, Instance) else "reachfast"

    @property
    def graph(self) -> StaticGraph:
        return self.instance.graph

    @property
    def sources(self) -> frozenset[int]:
        return self.instance.sources

    @property
    def traversal(self) -> TraversalSpec:
        return self.instance.traversal

    @property
    def tau(self) -> int:
        return self.instance.tau

    @property
    def multiplicity(self) -> tuple[int, ...] | None:
        return self.instance.multiplicity if self.kind == "tmb" else None

    @property
    def labels(self) -> Labeling | None:
        return self.instance.labels if self.kind == "reachfast" else None

    def to_instance(self) -> Instance:
        if self.kind != "tmb":
            raise ValidationError("document holds a reachfast instance")
        return self.instance

    def to_reachfast(self) -> ReachFastInstance:
        if self.kind != "reachfast":
            raise ValidationError("document holds a tmb instance")
        return self.instance

    def vertex_name(self, v: int) -> str:
        if self.names is not None:
            return self.names[v]
        return str(v)

    def vertex_id(self, token: str) -> int:
        if self.names is not None and token in self.names:
            return self.names.index(token)
        try:
            v = int(token)
        except ValueError:
            raise ValidationError(f"unknown vertex {token!r}") from None
        if not (0 <= v < self.graph.vertex_count):
            raise ValidationError(f"vertex {v} out of range")
        return v

    @classmethod
    def from_model(
        cls,
        model: Instance | ReachFastInstance,
        names=None,
        roles=None,
        meta=None,
    ) -> "InstanceDocument":
        return cls(
            model,
            names=tuple(names) if names is not None else None,
            roles=tuple(roles) if roles is not None else None,
            meta=meta,
        )

    @classmethod
    def from_gadget(cls, gadget: GadgetInstance) -> "InstanceDocument":
        return cls.from_model(
            gadget.instance,
            names=gadget.vertex_names,
            roles=gadget.vertex_roles,
            meta=dict(
                gadget.meta,
                yes_value=gadget.yes_value,
                no_value_lower_bound=gadget.no_value_lower_bound,
            ),
        )


def _canonical(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for
    byte, for a non-empty payload with string keys.  Ints, strings and
    non-empty lists of ints, of strings or of int lists are written here;
    any other value (meta, provenance) goes through ``json.dumps`` and is
    re-indented, which is safe because JSON escapes every newline inside a
    string."""
    return "{\n" + ",\n".join(
        f"  {encode_basestring_ascii(key)}: {_canonical_value(payload[key])}"
        for key in sorted(payload)
    ) + "\n}\n"


def _canonical_value(value) -> str:
    """One top-level value of ``_canonical``, as ``json.dumps`` indents it."""
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is list and value:
        kinds = set(map(type, value))
        if kinds <= {int}:
            text = ",\n    ".join(map(repr, value))
        elif kinds == {str}:
            text = ",\n    ".join(map(encode_basestring_ascii, value))
        elif kinds == {list} and set(map(type, chain.from_iterable(value))) <= {int}:
            # One "%d" (an int's repr) per int, laid out per row length, and
            # one format call over every int.
            lengths = tuple(map(len, value))
            layout = {n: "[\n      " + ",\n      ".join(["%d"] * n) + "\n    ]" if n else "[]"
                      for n in set(lengths)}
            text = ",\n    ".join(map(layout.__getitem__, lengths))
            text %= tuple(chain.from_iterable(value))
        else:
            text = None
        if text is not None:
            return "[\n    " + text + "\n  ]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def serialize_instance(
    obj: InstanceDocument | Instance | ReachFastInstance,
    *,
    names=None,
    roles=None,
    meta=None,
) -> str:
    """Canonical text form; byte-identical across serialize/parse round trips."""
    if not isinstance(obj, InstanceDocument):
        obj = InstanceDocument.from_model(obj, names=names, roles=roles, meta=meta)
    payload: dict[str, Any] = {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "kind": obj.kind,
        "vertices": obj.graph.vertex_count,
        "edges": [list(pair) for pair in obj.graph.edges],
        "sources": sorted(obj.sources),
        "tau": obj.tau,
        "default_weights": list(obj.traversal.defaults),
        # Rows in edge order, each in time order: the entries come sorted.
        "overrides": [
            [e, t, w] for e, items in enumerate(obj.traversal.overrides) for t, w in items
        ],
    }
    if obj.kind == "tmb":
        payload["multiplicity"] = list(obj.multiplicity)
    else:
        payload["labels"] = [list(ts) for ts in obj.labels.times_by_edge]
    if obj.names is not None:
        payload["names"] = list(obj.names)
    if obj.roles is not None:
        payload["roles"] = list(obj.roles)
    if obj.meta is not None:
        payload["meta"] = obj.meta
    return _canonical(payload)


def _need(payload: dict, key: str, kinds, what: str):
    """``payload[key]``, of one of ``kinds``; JSON's true and false are not
    ints here, though Python's bools are."""
    if key not in payload:
        raise ParseError(f"{what}: missing field {key!r}")
    value = payload[key]
    if not isinstance(value, kinds) or type(value) is bool:
        raise ParseError(f"{what}: field {key!r} has the wrong type")
    return value


def _load_json(text: str, what: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{what}: not valid JSON ({err})") from None
    except RecursionError:
        raise ParseError(f"{what}: nested too deeply to decode") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{what}: top level must be an object")
    return payload


def _load_header(text: str, what: str, fmt: str) -> dict:
    """The document's top-level object, once its format is ``fmt`` and its
    version the JSON integer 1: true and 1.0 are not, though Python's
    ``==`` takes both for 1."""
    payload = _load_json(text, what)
    if payload.get("format") != fmt:
        raise ParseError(f"{what}: format must be {fmt!r}")
    version = payload.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{what}: unsupported version {version!r}")
    return payload


def _int_values(values: list, what: str) -> tuple[int, ...]:
    """``values`` through int(); ParseError when one does not convert."""
    try:
        return tuple(map(int, values))
    except _INT_ERRORS as err:
        raise ParseError(f"{what}: {err}") from None


def _override_columns(items: list, edge_count: int, what: str) -> tuple:
    """The edge, time and weight columns of ``[edge, time, weight]`` entries,
    exact ints through int() (the one int test of the entries); ParseError
    names the first entry that is not an array of three values int() accepts
    (a string or an object is not one, though Python iterates both) or whose
    edge is not one of the document's."""
    try:
        flat = None
        if set(map(type, items)) <= {list} and set(map(len, items)) <= {3}:
            flat = tuple(chain.from_iterable(items))
        if flat is not None and not set(map(type, flat)) <= {int}:
            flat = tuple(map(int, flat))
    except _INT_ERRORS:  # some value is not a number
        flat = None
    columns = None if flat is None else (flat[0::3], flat[1::3], flat[2::3])
    if columns is None or not _within(columns[0], 0, edge_count - 1):
        # Name the first bad entry; for JSON values one always is.
        for item in items:
            try:
                if type(item) is not list:
                    raise TypeError
                e, t, w = (int(x) for x in item)
            except _INT_ERRORS:
                raise ParseError(f"{what}: overrides must be [edge, time, weight]") from None
            if not (0 <= e < edge_count):
                raise ParseError(f"{what}: override for unknown edge {e}")
    return columns


def _labeling(rows: list, what: str) -> Labeling:
    """The labeling of ``rows``, each label through int() unless all are
    exact ints (the one int test of the labels).  Every row must be a JSON
    array: Python would read a string's characters or an object's keys as
    labels."""
    if not set(map(type, rows)) <= {list}:
        raise ParseError(f"{what}: label rows must be arrays of integers")
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return Labeling._from_int_rows(rows)
    return Labeling(tuple(_int_values(row, what) for row in rows))


def parse_instance_document(text: str) -> InstanceDocument:
    what = "instance document"
    payload = _load_header(text, what, INSTANCE_FORMAT)
    kind = _need(payload, "kind", str, what)
    if kind not in ("tmb", "reachfast"):
        raise ParseError(f"{what}: kind must be tmb or reachfast")
    n = _need(payload, "vertices", int, what)
    edges_raw = _need(payload, "edges", list, what)
    tau = _need(payload, "tau", int, what)
    sources = _need(payload, "sources", list, what)
    defaults = _need(payload, "default_weights", list, what)
    overrides_raw = _need(payload, "overrides", list, what)
    try:
        if not set(map(type, edges_raw)) <= {list}:  # "01" would unpack to 0, 1
            raise TypeError
        edges = tuple((int(u), int(v)) for u, v in edges_raw)
    except _INT_ERRORS:
        raise ParseError(f"{what}: edges must be pairs of integers") from None
    entries = _override_columns(overrides_raw, len(edges), what)
    graph = StaticGraph(n, edges)
    traversal = TraversalSpec._from_int_columns(len(edges), _int_values(defaults, what), entries)

    names = payload.get("names")
    roles = payload.get("roles")
    meta = payload.get("meta")
    for label, seq in (("names", names), ("roles", roles)):
        if seq is not None:
            if not isinstance(seq, list) or len(seq) != n:
                raise ParseError(f"{what}: {label} must list one entry per vertex")
    if meta is not None and not isinstance(meta, dict):
        raise ParseError(f"{what}: meta must be an object")

    sources = frozenset(_int_values(sources, what))
    if kind == "tmb":
        mult = _need(payload, "multiplicity", list, what)
        if "labels" in payload:
            raise ParseError(f"{what}: tmb documents do not carry labels")
        try:  # the constructor's int() over the multiplicities is their one conversion
            instance = Instance(graph, sources, traversal, mult, tau)
        except _INT_ERRORS as err:
            raise ParseError(f"{what}: {err}") from None
    else:
        labels_raw = _need(payload, "labels", list, what)
        if "multiplicity" in payload:
            raise ParseError(f"{what}: reachfast documents do not carry multiplicity")
        if len(labels_raw) != len(edges):
            raise ParseError(f"{what}: labels must list one entry per edge")
        labels = _labeling(labels_raw, what)
        instance = ReachFastInstance(graph, sources, traversal, labels, tau)
    return InstanceDocument(
        instance,
        names=tuple(names) if names is not None else None,
        roles=tuple(roles) if roles is not None else None,
        meta=meta,
    )


def parse_instance(text: str) -> Instance | ReachFastInstance:
    return parse_instance_document(text).instance


# ---------------------------------------------------------------------------
# Labeling documents


@dataclass(frozen=True)
class LabelingDocument:
    labels: Labeling
    provenance: dict | None = None


def serialize_labeling(
    labeling: Labeling | LabelingDocument, provenance: dict | None = None
) -> str:
    if isinstance(labeling, LabelingDocument):
        provenance = labeling.provenance
        labeling = labeling.labels
    payload: dict[str, Any] = {
        "format": LABELING_FORMAT,
        "version": FORMAT_VERSION,
        "labels": [list(ts) for ts in labeling.times_by_edge],
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return _canonical(payload)


def parse_labeling(text: str) -> LabelingDocument:
    what = "labeling document"
    payload = _load_header(text, what, LABELING_FORMAT)
    labels = _labeling(_need(payload, "labels", list, what), what)
    provenance = payload.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise ParseError(f"{what}: provenance must be an object")
    return LabelingDocument(labels=labels, provenance=provenance)


# ---------------------------------------------------------------------------
# DIMACS CNF


def parse_cnf(text: str) -> CnfFormula:
    """DIMACS CNF: comments, a 'p cnf' header, zero-terminated clauses.  A
    line starting with '%' ends the clause list, as in SATLIB's files,
    which close with '%' and then '0'."""
    variable_count = None
    clause_count = None
    literals: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if variable_count is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: header must be 'p cnf V C'")
            try:
                variable_count = int(parts[2])
                clause_count = int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: header counts must be integers")
            if variable_count < 1 or clause_count < 1:
                raise ParseError(f"line {lineno}: header counts must be positive")
            continue
        if variable_count is None:
            raise ParseError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                if not literals:
                    raise ParseError(f"line {lineno}: empty clause")
                clauses.append(tuple(literals))
                literals.clear()
            else:
                if abs(lit) > variable_count:
                    raise ParseError(
                        f"line {lineno}: literal {lit} beyond header variables"
                    )
                literals.append(lit)
    if variable_count is None:
        raise ParseError("missing 'p cnf' header")
    if literals:
        clauses.append(tuple(literals))  # final clause may omit the 0
    if len(clauses) != clause_count:
        raise ParseError(
            f"header promises {clause_count} clauses, found {len(clauses)}"
        )
    try:
        return CnfFormula(variable_count, tuple(clauses))
    except ValidationError as err:
        raise ParseError(str(err)) from None


def serialize_cnf(formula: CnfFormula, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p cnf {formula.variable_count} {formula.clause_count}")
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _dot_string(value) -> str:
    """``value`` as a quoted DOT string: a quote or backslash is escaped."""
    return json.dumps(str(value), ensure_ascii=False)


def export_dot(
    document: InstanceDocument, labeling: Labeling | None = None
) -> str:
    """Static graph with schedule annotations, for eyeballing only.  Names
    and roles are quoted as JSON strings; a labeling must cover the edges."""
    graph = document.graph
    sources = document.sources
    if labeling is not None:
        _check_cover(graph, labeling)
    lines = ["graph tmbcast {"]
    for v in range(graph.vertex_count):
        attrs = [f"label={_dot_string(document.vertex_name(v))}"]
        if v in sources:
            attrs.append("shape=doublecircle")
        if document.roles is not None:
            attrs.append(f"comment={_dot_string(document.roles[v])}")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for e, (u, v) in enumerate(graph.edges):
        notes = [
            f"({t},{w})" for t, w in document.traversal.overrides[e]
        ] or [f"w={document.traversal.defaults[e]}"]
        if labeling is not None and labeling.times(e):
            schedule = ",".join(str(t) for t in labeling.times(e))
            notes.insert(0, f"t={schedule}")
        lines.append(f'  {u} -- {v} [label="{" ".join(notes)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
