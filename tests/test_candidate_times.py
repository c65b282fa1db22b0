"""Differential tests of the searches that read a ``CandidateTable``'s
departure times in place against their copies in ``reference_search``,
which read the old table's ``(departure, arrival)`` pairs: the kernel at
any start and stop, the backward latest-departure search, the front search
under each key step, the minimum-waiting search and the certificate
maxima, and the table's own ``candidates`` and ``available``.  Every
output must be the same, witnesses and tie-breaks included: an override
departure is listed before the default slot and wins an arrival tie, and
the first of equal arrivals wins."""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmbcast.core import (
    CandidateTable,
    FullAvailability,
    Labeling,
    StaticGraph,
    TraversalSpec,
    earliest_arrival,
    latest_departure,
)
from tmbcast.distances import (
    _HOP,
    _KEEP,
    _TRAVEL,
    Measure,
    _cost_fronts,
    _fronts,
    _max_stats,
    _min_wait_run,
)

import reference_search as reference


@st.composite
def tables(draw, max_vertices=6, max_edges=8, full=None):
    """(graph, traversal, availability, source, tau) with zero weights,
    weights that arrive past tau, override times often at 1 and at tau, and
    a labeling (whose rows may be empty) or, always with ``full``, the full
    temporal graph."""
    n = draw(st.integers(2, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
    tau = draw(st.integers(1, 6))
    weights = st.integers(0, tau + 2)
    times = st.sampled_from((1, tau)) | st.integers(1, tau)
    defaults = [draw(weights) for _ in edges]
    overrides = {e: draw(st.dictionaries(times, weights, max_size=3)) for e in range(len(edges))}
    graph = StaticGraph(n, tuple(edges))
    if full or draw(st.booleans()):
        availability = FullAvailability(tau)
    else:
        availability = Labeling(tuple(
            tuple(sorted(draw(st.sets(times, max_size=3)))) for _ in edges))
    source = draw(st.integers(0, n - 1))
    return graph, TraversalSpec.from_maps(defaults, overrides), availability, source, tau


def both(case):
    """The library's table and the reference's over one case."""
    _, traversal, availability, _, _ = case
    return (CandidateTable(availability, traversal),
            reference.CandidateTable(availability, traversal))


# On the path 0-1-2, edge 0 departs at 1 by its override (weight 3) and at 2
# by its default (weight 2): both arrive at 4, so the override, listed
# first, wins the tie, on a labeling and on the full temporal graph.  On
# the labeling, edge 1 departs at 5 alone, after a wait.
TIE = (StaticGraph(3, ((0, 1), (1, 2))), TraversalSpec.from_maps([2, 0], {0: {1: 3}}))
TIES = [(*TIE, Labeling(((1, 2), (5,))), 0, 5), (*TIE, FullAvailability(5), 0, 5)]

# On the full temporal graph, where the searches read each edge's default
# slot first, the same path reaches vertex 1 at 2 (or at 3), and edge 1:
# - ZERO: has a zero-weight override at 4, the slot's arrival;
# - PAST_TAU: has overrides at 3 and 4, so from 3 its slot is past tau while
#   both overrides are within it;
# - TRAVEL: has an override of the default's weight after the slot, which
#   the slot dominates, and a lighter one arriving after the slot, which it
#   does not.
PATH = TIE[0]
ZERO = (PATH, TraversalSpec.from_maps([1, 2], {1: {4: 0}}), FullAvailability(5), 0, 5)
PAST_TAU = (PATH, TraversalSpec.from_maps([2, 1], {1: {3: 2, 4: 0}}), FullAvailability(4), 0, 4)
TRAVEL = (PATH, TraversalSpec.from_maps([1, 2], {1: {3: 2, 5: 1}}), FullAvailability(6), 0, 6)
TIES += [ZERO, PAST_TAU, TRAVEL]


def ties(*args):
    """The tie cases as examples of a test, with ``args`` for its other
    arguments."""
    def add(test):
        for case in TIES:
            test = example(case, *args)(test)
        return test
    return add


VERTEX = st.integers(0, 5)  # taken modulo the vertex count


@ties(1, None)
@ties(1, 2)
@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(1, 8), st.none() | VERTEX)
def test_kernel_matches_the_pair_table_kernel(case, start, stop):
    graph, _, _, source, _ = case
    table, ref_table = both(case)
    stop = None if stop is None else stop % graph.vertex_count
    assert earliest_arrival(graph, table, source, start, stop) == reference.earliest_arrival(
        graph, ref_table, source, start=start, stop=stop)


@ties()
@settings(max_examples=300, deadline=None)
@given(tables())
def test_latest_departure_matches_the_pair_table_search(case):
    graph, _, _, source, _ = case
    table, ref_table = both(case)
    for target in range(graph.vertex_count):
        if target != source:
            assert latest_departure(graph, table, source, target) == reference.latest_departure(
                graph, ref_table, source, target)


@ties(_TRAVEL, (), None, float("inf"))
@ties(_HOP, (), None, float("inf"))
@ties(_KEEP, (), None, 4)
@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from((_KEEP, _TRAVEL, _HOP)), st.sets(VERTEX, max_size=1),
       st.none() | st.sets(VERTEX, min_size=1), st.sampled_from((float("inf"), *range(1, 9))))
def test_fronts_match_the_pair_table_front_search(case, step, closed, until, cap):
    graph, _, _, source, _ = case
    table, ref_table = both(case)
    n = graph.vertex_count
    closed = {source} | {v % n for v in closed}
    until = None if until is None else {v % n for v in until}
    # First steps as the searches seed them: keyed by departure, travel or hop.
    seeds = [
        (t if step == _KEEP else reach - t if step == _TRAVEL else 1, reach, w, e, t, 0)
        for e, w in graph.adjacency[source]
        for t, reach in ref_table.candidates(e, 1)
    ]
    got = _fronts(graph, table, closed, seeds, step, None if until is None else set(until), cap)
    want = reference._fronts(
        graph, ref_table, closed, seeds, step, None if until is None else set(until), cap)
    assert got == want


@ties()
@settings(max_examples=300, deadline=None)
@given(tables(max_vertices=5))
def test_min_wait_matches_the_pair_table_search(case):
    graph, _, _, source, _ = case
    table, ref_table = both(case)
    assert _min_wait_run(graph, table, source) == reference._min_wait_run_unseeded(
        graph, ref_table, source)


@example(TIES[1])
@settings(max_examples=200, deadline=None)
@given(tables(max_vertices=5, full=True))
def test_max_stats_match_the_exhaustive_maxima(case):
    graph, traversal, availability, source, _ = case
    max_dur, max_wait = _max_stats(graph, CandidateTable(availability, traversal), source)
    want = reference._max_stats_run(graph, availability, traversal, source)
    assert (
        {v: d for v, d in enumerate(max_dur) if d is not None},
        {v: w for v, w in enumerate(max_wait) if w is not None},
    ) == want


@ties()
@settings(max_examples=300, deadline=None)
@given(tables())
def test_candidates_and_available_match_the_pair_table(case):
    graph, _, _, _, tau = case
    table, ref_table = both(case)
    for e in range(graph.edge_count):
        assert list(table.available(e)) == list(ref_table.available(e))
        for lo in range(tau + 3):
            assert list(table.candidates(e, lo)) == list(ref_table.candidates(e, lo))


def test_an_override_departure_wins_an_arrival_tie():
    graph, traversal, *_ = TIES[0]
    for availability in (TIES[0][2], TIES[1][2]):
        table = CandidateTable(availability, traversal)
        assert table.candidates(0, 1) == [(1, 4), (2, 4)]
        assert earliest_arrival(graph, table, 0)[1][1] == (0, 0, 1)


def test_a_zero_weight_override_at_the_slots_arrival():
    graph, traversal, availability, source, _ = ZERO
    table = CandidateTable(availability, traversal)
    assert table.candidates(1, 2) == [(4, 4), (2, 4)]
    # The kernel takes the override, listed first; the hop search keeps the
    # slot, whose smaller departure time pops first.
    assert earliest_arrival(graph, table, source)[1][2] == (1, 1, 4)
    assert _cost_fronts(graph, table, source, Measure.MIN_HOP)[2] == [
        (2, 4, (1, 2, (0, 1, None)))]


def test_the_slot_drops_only_the_travel_overrides_it_dominates():
    graph, traversal, availability, source, _ = TRAVEL
    table = CandidateTable(availability, traversal)
    # From 2 at vertex 1: the slot at 2 arrives at 4 after travel 2; the
    # override at 3 has the same travel and arrives later, the one at 5
    # travels 1 and arrives at 6.
    assert _cost_fronts(graph, table, source, Measure.SHORTEST_TRAVEL)[2] == [
        (2, 6, (1, 5, (0, 1, None))), (3, 4, (1, 2, (0, 1, None)))]


def test_past_tau_the_overrides_still_depart():
    graph, traversal, availability, source, _ = PAST_TAU
    table = CandidateTable(availability, traversal)
    assert table.candidates(1, 3) == [(3, 5), (4, 4)]
    assert earliest_arrival(graph, table, source)[1][2] == (1, 1, 4)
