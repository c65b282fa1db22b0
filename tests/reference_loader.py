"""Verbatim copy of the document loader as it was before the model
constructors validated in bulk and the parsed document kept its model:
``parse_instance_document``, ``parse_labeling``, the ``InstanceDocument``
they build, and the ``__post_init__`` bodies of ``StaticGraph``,
``TraversalSpec``, ``Labeling``, ``Instance`` and ``ReachFastInstance``
(with ``_check_times``), on subclasses of the library's model classes.
``ReachFastInstance`` also makes the two checks of ``Instance`` it lacked
(at least two vertices, override times within tau), at the same places in
its order, because both formulations now share those checks.

The document loaders differ from the copied code in two places, because
every value int() rejects is now a ``ParseError``: each of their except
tuples also names ``OverflowError`` (an infinity or a number like 1e400),
and the sources and multiplicity conversions, which had no handler, have
that handler too, at the same places in the loader's order.

``test_loader.py`` holds the library to it: the same models for every
document or constructor input it accepts, and the same exception class and
message for every one it rejects.  Instances of these subclasses do not
compare equal to the library's (dataclass equality checks the class), so
the tests compare field values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from tmbcast import core
from tmbcast.core import ParseError, Time, ValidationError
from tmbcast.fileformat import (
    FORMAT_VERSION,
    INSTANCE_FORMAT,
    LABELING_FORMAT,
    LabelingDocument,
    _load_json,
    _need,
)


class StaticGraph(core.StaticGraph):
    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValidationError("graph needs at least one vertex")
        normalized = []
        seen = set()
        for e, pair in enumerate(self.edges):
            u, v = pair
            if u == v:
                raise ValidationError(f"edge {e} is a self-loop at {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValidationError(f"edge {e} endpoint out of range: {pair}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(normalized))


class TraversalSpec(core.TraversalSpec):
    def __post_init__(self):
        if len(self.defaults) != len(self.overrides):
            raise ValidationError("defaults and overrides must cover the same edges")
        norm = []
        for e, (default, items) in enumerate(zip(self.defaults, self.overrides)):
            if default < 0:
                raise ValidationError(f"edge {e} default weight is negative")
            pairs = sorted((int(t), int(w)) for t, w in items)
            times = [t for t, _ in pairs]
            if len(set(times)) != len(times):
                raise ValidationError(f"edge {e} has duplicate override times")
            for t, w in pairs:
                if t < 1:
                    raise ValidationError(f"edge {e} override at time {t} < 1")
                if w < 0:
                    raise ValidationError(f"edge {e} override weight negative at {t}")
            norm.append(tuple(pairs))
        object.__setattr__(self, "overrides", tuple(norm))
        object.__setattr__(self, "defaults", tuple(int(d) for d in self.defaults))


def _check_times(label_sets: Iterable[Iterable[Time]], tau: int, what: str) -> None:
    for e, times in enumerate(label_sets):
        for t in times:
            if not (1 <= t <= tau):
                raise ValidationError(f"{what} on edge {e}: time {t} outside 1..{tau}")


class Labeling(core.Labeling):
    def __post_init__(self):
        norm = []
        for e, times in enumerate(self.times_by_edge):
            ts = tuple(sorted(set(int(t) for t in times)))
            if len(ts) != len(tuple(times)):
                raise ValidationError(f"edge {e} labels not sorted/duplicate-free")
            if any(t < 1 for t in ts):
                raise ValidationError(f"edge {e} has a label < 1")
            norm.append(ts)
        object.__setattr__(self, "times_by_edge", tuple(norm))


class Instance(core.Instance):
    def __post_init__(self):
        object.__setattr__(self, "sources", frozenset(self.sources))
        object.__setattr__(self, "multiplicity", tuple(int(m) for m in self.multiplicity))
        if self.tau < 1:
            raise ValidationError("tau must be positive")
        if self.graph.vertex_count < 2:
            # Objectives range over (source, other vertex) pairs.
            raise ValidationError("instance needs at least two vertices")
        if not self.sources:
            raise ValidationError("instance needs at least one source")
        for s in self.sources:
            if not (0 <= s < self.graph.vertex_count):
                raise ValidationError(f"source {s} out of range")
        if len(self.multiplicity) != self.graph.edge_count:
            raise ValidationError("multiplicity must cover every edge")
        for e, mu in enumerate(self.multiplicity):
            if not (1 <= mu <= self.tau):
                raise ValidationError(f"multiplicity of edge {e} outside 1..tau")
        if len(self.traversal.defaults) != self.graph.edge_count:
            raise ValidationError("traversal must cover every edge")
        for e, items in enumerate(self.traversal.overrides):
            for t, _ in items:
                if t > self.tau:
                    raise ValidationError(f"override time {t} on edge {e} beyond tau")


class ReachFastInstance(core.ReachFastInstance):
    def __post_init__(self):
        object.__setattr__(self, "sources", frozenset(self.sources))
        if self.tau < 1:
            raise ValidationError("tau must be positive")
        if self.graph.vertex_count < 2:
            # Objectives range over (source, other vertex) pairs.
            raise ValidationError("instance needs at least two vertices")
        if not self.sources:
            raise ValidationError("instance needs at least one source")
        for s in self.sources:
            if not (0 <= s < self.graph.vertex_count):
                raise ValidationError(f"source {s} out of range")
        if self.labels.edge_count != self.graph.edge_count:
            raise ValidationError("labels must cover every edge")
        _check_times(self.labels.times_by_edge, self.tau, "label")
        if len(self.traversal.defaults) != self.graph.edge_count:
            raise ValidationError("traversal must cover every edge")
        for e, items in enumerate(self.traversal.overrides):
            for t, _ in items:
                if t > self.tau:
                    raise ValidationError(f"override time {t} on edge {e} beyond tau")


@dataclass(frozen=True)
class InstanceDocument:
    """Full-fidelity view of an instance file: model plus annotations."""

    kind: str  # "tmb" | "reachfast"
    graph: StaticGraph
    sources: frozenset[int]
    traversal: TraversalSpec
    tau: int
    multiplicity: tuple[int, ...] | None = None
    labels: Labeling | None = None
    names: tuple[str, ...] | None = None
    roles: tuple[str, ...] | None = None
    meta: dict | None = None

    def to_instance(self) -> Instance:
        if self.kind != "tmb":
            raise ValidationError("document holds a reachfast instance")
        return Instance(
            self.graph, self.sources, self.traversal, self.multiplicity, self.tau
        )

    def to_reachfast(self) -> ReachFastInstance:
        if self.kind != "reachfast":
            raise ValidationError("document holds a tmb instance")
        return ReachFastInstance(
            self.graph, self.sources, self.traversal, self.labels, self.tau
        )


def parse_instance_document(text: str) -> InstanceDocument:
    what = "instance document"
    payload = _load_json(text, what)
    if payload.get("format") != INSTANCE_FORMAT:
        raise ParseError(f"{what}: format must be {INSTANCE_FORMAT!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise ParseError(f"{what}: unsupported version {payload.get('version')!r}")
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
        edges = tuple((int(u), int(v)) for u, v in edges_raw)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{what}: edges must be pairs of integers") from None
    table: list[dict[int, int]] = [dict() for _ in edges]
    for item in overrides_raw:
        try:
            e, t, w = (int(x) for x in item)
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{what}: overrides must be [edge, time, weight]") from None
        if not (0 <= e < len(edges)):
            raise ParseError(f"{what}: override for unknown edge {e}")
        table[e][t] = w
    try:
        graph = StaticGraph(n, edges)
        traversal = TraversalSpec(
            tuple(int(d) for d in defaults),
            tuple(tuple(sorted(per.items())) for per in table),
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{what}: {err}") from None

    names = payload.get("names")
    roles = payload.get("roles")
    meta = payload.get("meta")
    for label, seq in (("names", names), ("roles", roles)):
        if seq is not None:
            if not isinstance(seq, list) or len(seq) != n:
                raise ParseError(f"{what}: {label} must list one entry per vertex")
    if meta is not None and not isinstance(meta, dict):
        raise ParseError(f"{what}: meta must be an object")

    try:
        sources = frozenset(int(s) for s in sources)
    except (TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{what}: {err}") from None
    common = dict(
        graph=graph,
        sources=sources,
        traversal=traversal,
        tau=tau,
        names=tuple(names) if names is not None else None,
        roles=tuple(roles) if roles is not None else None,
        meta=meta,
    )
    if kind == "tmb":
        mult = _need(payload, "multiplicity", list, what)
        if "labels" in payload:
            raise ParseError(f"{what}: tmb documents do not carry labels")
        try:
            mult = tuple(int(m) for m in mult)
        except (TypeError, ValueError, OverflowError) as err:
            raise ParseError(f"{what}: {err}") from None
        doc = InstanceDocument(kind="tmb", multiplicity=mult, **common)
        doc.to_instance()  # validates
    else:
        labels_raw = _need(payload, "labels", list, what)
        if "multiplicity" in payload:
            raise ParseError(f"{what}: reachfast documents do not carry multiplicity")
        if len(labels_raw) != len(edges):
            raise ParseError(f"{what}: labels must list one entry per edge")
        try:
            labels = Labeling(tuple(tuple(int(t) for t in ts) for ts in labels_raw))
        except (TypeError, ValueError, OverflowError) as err:
            raise ParseError(f"{what}: {err}") from None
        doc = InstanceDocument(kind="reachfast", labels=labels, **common)
        doc.to_reachfast()  # validates
    return doc


def parse_labeling(text: str) -> LabelingDocument:
    what = "labeling document"
    payload = _load_json(text, what)
    if payload.get("format") != LABELING_FORMAT:
        raise ParseError(f"{what}: format must be {LABELING_FORMAT!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise ParseError(f"{what}: unsupported version {payload.get('version')!r}")
    labels_raw = _need(payload, "labels", list, what)
    try:
        labels = Labeling(tuple(tuple(int(t) for t in ts) for ts in labels_raw))
    except (TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{what}: {err}") from None
    provenance = payload.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise ParseError(f"{what}: provenance must be an object")
    return LabelingDocument(labels=labels, provenance=provenance)
