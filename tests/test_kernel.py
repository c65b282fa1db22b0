"""Differential tests of the earliest-arrival kernel and the minimum-waiting
search against the searches they replaced (``reference_search``), and of
reachability against exhaustive enumeration."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from tmbcast.core import (
    CandidateTable,
    FullAvailability,
    Labeling,
    StaticGraph,
    TraversalSpec,
    earliest_arrival,
    reaches_all,
)
from tmbcast.distances import _chain_path, _min_wait_run

import oracles
import reference_search as reference


@st.composite
def searches(draw, max_vertices=6, max_edges=8):
    """(graph, traversal, availability, source, first_time) on small graphs.

    Weights start at zero and run past the horizon, so zero-weight edges and
    arrivals after tau both occur; label sets may be empty; the availability
    is a labeling or the full temporal graph; ``first_time`` is None or an
    exact first departure, possibly outside 1..tau.
    """
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    tau = draw(st.integers(1, 6))
    weights = st.integers(0, tau + 2)
    defaults = [draw(weights) for _ in edges]
    overrides = {e: draw(st.dictionaries(st.integers(1, tau), weights, max_size=3)) for e in range(len(edges))}
    traversal = TraversalSpec.from_maps(defaults, overrides)
    if draw(st.booleans()):
        availability = FullAvailability(tau)
    else:
        availability = Labeling(tuple(
            tuple(sorted(draw(st.sets(st.integers(1, tau), max_size=3)))) for _ in edges
        ))
    source = draw(st.integers(0, n - 1))
    first_time = draw(st.none() | st.integers(0, tau + 1))
    return StaticGraph(n, tuple(edges)), traversal, availability, source, first_time


@settings(max_examples=400, deadline=None)
@given(searches())
def test_earliest_arrival_matches_reference(case):
    graph, traversal, availability, source, first_time = case
    table = CandidateTable(availability, traversal)
    arrivals, parents = earliest_arrival(graph, table, source, first_time)
    want_arrivals, want_parents = reference._ea_run(
        graph, availability, traversal, source, first_time
    )
    assert {v: a for v, a in enumerate(arrivals) if a is not None} == want_arrivals
    assert {v: p for v, p in enumerate(parents) if p is not None} == want_parents
    if isinstance(availability, Labeling):
        raw = CandidateTable(availability.times_by_edge, traversal)
        assert raw.departures == table.departures


@settings(max_examples=200, deadline=None)
@given(searches(max_vertices=5))
def test_min_wait_matches_reference(case):
    graph, traversal, availability, source, _ = case
    best = _min_wait_run(graph, CandidateTable(availability, traversal), source)
    got = {
        v: (waiting, _chain_path(graph, source, steps).steps)
        for v, (waiting, steps) in best.items()
    }
    assert got == reference._min_wait_run(graph, availability, traversal, source)


@settings(max_examples=200, deadline=None)
@given(searches(max_vertices=5))
def test_reaches_all_matches_exhaustive(case):
    graph, traversal, availability, source, _ = case
    reached = oracles.exhaustive_reachable(graph, availability, traversal, source)
    assert reaches_all(graph, availability, traversal, source) == (
        reached == set(range(graph.vertex_count))
    )
