"""Differential tests of the pair values the solvers read from their trees
against the reference search on the schedule they write
(``reference_search._pair_values``),
and of the canonical document writer against ``json.dumps``."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmbcast.core import (
    CandidateTable,
    Instance,
    Labeling,
    StaticGraph,
    TraversalSpec,
    Unreachable,
    ValidationError,
)
from tmbcast.distances import Measure, _ld_floor
from tmbcast.fileformat import _canonical
from tmbcast.solvers import _tree_pairs, solve_multi_full_mu
from tmbcast.tsot import Tsot, build_ea_tsot, build_ld_tsot

import reference_search as reference


@st.composite
def instances(draw, max_sources=1):
    """Connected-or-not graphs on 2 to 7 vertices with zero weights, weights
    past the horizon (arrivals after tau) and override times near 1 and
    near tau; one to ``max_sources`` sources (at most tau), each
    multiplicity the source count."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1, max_size=10))
    tau = draw(st.integers(1, 10))
    weights = st.integers(0, tau + 2)
    near = st.sampled_from(sorted({1, min(2, tau), max(tau - 1, 1), tau}))
    defaults = [draw(weights) for _ in edges]
    overrides = {e: draw(st.dictionaries(near, weights, max_size=3)) for e in range(len(edges))}
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(max_sources, tau)))
    return Instance(StaticGraph(n, tuple(edges)), frozenset(sources),
                    TraversalSpec.from_maps(defaults, overrides),
                    (len(sources),) * len(edges), tau)


def labelings(graph, tau):
    """Labelings with up to three labels per edge, empty label sets included."""
    return st.tuples(*(
        st.sets(st.integers(1, tau), max_size=3).map(lambda ts: tuple(sorted(ts)))
        for _ in graph.edges
    )).map(Labeling)


def trees(instance, availability):
    """The earliest-arrival tree from 1, the floor tree and the merge tree
    of the one source over the availability, those that span."""
    (root,) = instance.sources
    avail = instance.full_availability() if availability is None else availability
    floor = _ld_floor(instance.graph, CandidateTable(avail, instance.traversal), root)
    builders = [lambda: build_ea_tsot(root, instance, availability),
                lambda: build_ld_tsot(root, instance, availability)]
    if floor is not None:
        builders.append(lambda: build_ea_tsot(root, instance, availability, start=floor[0]))
    out = []
    for build in builders:
        try:
            out.append(build())
        except Unreachable:
            pass
    return out


# A zero-weight triangle; an override of weight 0 at tau behind an arrival
# past tau; a path whose second edge waits.
@example((Instance(StaticGraph(3, ((0, 1), (0, 2), (1, 2))), frozenset({0}),
                   TraversalSpec.uniform(3, 0), (1, 1, 1), 3), None))
@example((Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0}),
                   TraversalSpec.from_maps([1, 4], {0: {3: 0}, 1: {3: 0}}), (1, 1), 3), None))
@example((Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({1}),
                   TraversalSpec.from_maps([2, 1], {}), (1, 1), 6), Labeling(((1,), (2, 5)))))
@settings(max_examples=400, deadline=None)
@given(instances().flatmap(lambda inst: st.tuples(
    st.just(inst), st.none() | labelings(inst.graph, inst.tau))))
def test_tree_pairs_match_the_search_on_the_written_schedule(case):
    instance, availability = case
    for tree in trees(instance, availability):
        assert tree.is_valid(instance.graph)
        labeling = tree.to_labeling(instance.graph.edge_count)
        for measure in Measure:
            got = _tree_pairs([tree], measure)
            want = reference._pair_values(instance, labeling, measure)
            assert list(got.items()) == list(want.items())


@example(Instance(StaticGraph(3, ((0, 1), (1, 2))), frozenset({0, 2}),
                  TraversalSpec.from_maps([1, 0], {0: {2: 0}}), (2, 2), 3))
@settings(max_examples=300, deadline=None)
@given(instances(max_sources=3))
def test_multi_source_ea_pairs_match_the_search_on_the_union(instance):
    ea = Measure.EARLIEST_ARRIVAL
    try:
        result = solve_multi_full_mu(instance, ea)
    except Unreachable:
        return
    got = result.per_source_distances
    assert list(got.items()) == list(reference._pair_values(instance, result.labeling, ea).items())
    # The union is one label set per edge of the per-source trees.
    want = Labeling.empty(instance.graph.edge_count)
    for s in sorted(instance.sources):
        want = want.union(build_ea_tsot(s, instance).to_labeling(instance.graph.edge_count))
    assert result.labeling == want


def test_path_stats_of_a_cycle_raise_rather_than_climb_forever():
    tree = Tsot(0, (None, (1, 1, 2), (0, 1, 1)), TraversalSpec.uniform(2, 1))
    with pytest.raises(ValidationError, match="form a cycle"):
        tree.path_stats()


# Strings with non-ASCII characters, quotes, backslashes and newlines.
texts = st.text(alphabet=st.sampled_from('ab "\\\n\té☃\U0001f600/'), max_size=6) | st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=10,
)
ints = st.lists(st.integers(-5, 10**20), max_size=4)
# Int rows of one length, as edges and override entries are, empty ones too.
rows = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 10**20), min_size=n, max_size=n), max_size=6))


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["edges", "labels", "overrides", "names", "roles", "meta",
                     "provenance", "format", "version", "kind", "vertices"]) | texts,
    ints | st.lists(ints, max_size=4) | rows | st.lists(texts, max_size=4) | json_values,
    min_size=1, max_size=8,
))
def test_canonical_writer_matches_json_dumps(payload):
    assert _canonical(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
