"""The two override input forms build one table.

``TraversalSpec.from_entries`` takes a document's ``[edge, time, weight]``
entries as three columns, where the last entry for an (edge, time) wins.
Fed the rows of the winning entries, the row constructor and the verbatim
reference copy (``reference_loader.TraversalSpec``) must build the same
fields, and the row constructor the same per-edge time -> weight dicts; on
a fault all three raise the same exception class and message.

A table built from entries holds only the per-edge dicts and derives its
sorted rows on first read; it must behave as the row-built table under
every reader, whichever is first.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loader as ref
from tmbcast.core import TraversalSpec, ValidationError

FAULTS = (None, "negative default", "time below 1", "negative weight", "unknown edge")


def typed(x):
    """``x`` with each scalar's type, so that an int and an equal float or
    bool differ."""
    if isinstance(x, (tuple, list)):
        return type(x).__name__, tuple(map(typed, x))
    if isinstance(x, dict):
        return tuple(typed(pair) for pair in sorted(x.items()))
    return type(x).__name__, x


def made(call, *args, index=True):
    """What ``call`` makes of ``args``: the typed fields (and the per-edge
    dicts, with ``index``), or the exception class and message."""
    try:
        spec = call(*args)
    except Exception as err:  # the class and the message are compared
        return "raises", type(err), str(err)
    fields = typed(spec.defaults), typed(spec.overrides)
    return ("ok", *fields, *([typed(spec._override_index)] if index else []))


def _loose(draw, v, text=True):
    """A value int() maps to ``v``: the int, a float, a numeric string (with
    ``text``), or a bool for 0 and 1."""
    options = [v, float(v), *[str(v)] * text]
    if v in (0, 1):
        options.append(bool(v))
    return draw(st.sampled_from(options))


@st.composite
def entry_tables(draw):
    """(defaults, edges, times, weights) with repeated (edge, time) pairs,
    exact or loose entries and at most one fault."""
    m = draw(st.integers(1, 4))
    # A default is compared with 0 before int(), so a string one fails in
    # every form alike.
    defaults = [_loose(draw, draw(st.integers(0, 3)), text=False) for _ in range(m)]
    entries = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(1, 3), st.integers(0, 5)),
        min_size=1, max_size=10))
    entries = [list(entry) for entry in entries]
    fault = draw(st.sampled_from(FAULTS))
    at = draw(st.integers(0, len(entries) - 1))
    if fault == "negative default":
        defaults[draw(st.integers(0, m - 1))] = -draw(st.integers(1, 3))
    elif fault == "time below 1":
        entries[at][1] = draw(st.integers(-2, 0))
    elif fault == "negative weight":
        entries[at][2] = -draw(st.integers(1, 3))
    elif fault == "unknown edge":
        entries[at][0] = draw(st.sampled_from([-2, -1, m, m + 3]))
    columns = list(zip(*entries))
    if draw(st.booleans()):
        columns = [[_loose(draw, v) for v in column] for column in columns]
    return defaults, *columns


def winning_rows(edge_count, edges, times, weights):
    """Per edge, the (time, weight) pairs of the last entry for each time;
    one more, empty, row when some entry names an edge outside the
    defaults, which the row form reports as rows covering other edges."""
    rows = [{} for _ in range(edge_count)]
    unknown = False
    for e, t, w in zip(map(int, edges), map(int, times), weights):
        if 0 <= e < edge_count:
            rows[e][t] = w
        else:
            unknown = True
    return [list(row.items()) for row in rows] + [[]] * unknown


@settings(max_examples=400, deadline=None)
@given(entry_tables())
def test_entries_build_the_table_of_their_winning_rows(table):
    defaults, edges, times, weights = table
    m = len(defaults)
    rows = winning_rows(m, edges, times, weights)
    got = made(TraversalSpec.from_entries, m, defaults, edges, times, weights)
    assert got == made(TraversalSpec, defaults, rows)
    assert got[:3] == made(ref.TraversalSpec, defaults, rows, index=False)


def test_entries_reject_columns_of_different_lengths():
    with pytest.raises(ValidationError, match="columns differ in length"):
        TraversalSpec.from_entries(2, (1, 1), (0, 1), (1, 2), (3,))


def test_entries_reject_defaults_for_other_edges():
    # A document with nine defaults for ten edges and no entry on the
    # tenth: the rows would cover ten edges.
    want = made(TraversalSpec, (1,) * 9, ((),) * 10)
    assert want[0] == "raises"
    assert made(TraversalSpec.from_entries, 10, (1,) * 9, (), (), ()) == want


def _weights(spec, m):
    return tuple(spec.weight(e, t) for e in range(m) for t in range(8))


def _clone_reads(clone, spec, m):
    """What a copy shows, its rows read first: they, its weights, and
    whether it equals the original."""
    return typed(clone.overrides), _weights(clone, m), clone == spec


# Each reader maps a table and its edge count to a value both forms must
# give alike.
READERS = {
    "overrides": lambda spec, m: typed(spec.overrides),
    "weight": _weights,
    "departures": lambda spec, m: typed(spec._override_departures),
    "hash": lambda spec, m: hash(spec),
    "repr": lambda spec, m: repr(spec),
    "replace": lambda spec, m: typed(dataclasses.replace(spec, defaults=(0,) * m).overrides),
    "pickle": lambda spec, m: _clone_reads(pickle.loads(pickle.dumps(spec)), spec, m),
    "deepcopy": lambda spec, m: _clone_reads(copy.deepcopy(spec), spec, m),
}


@st.composite
def valid_entries(draw):
    """(defaults, entries): entries out of order, an (edge, time) repeated
    with the last winning, edges left without any, zero weights."""
    m = draw(st.integers(1, 5))
    defaults = tuple(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
    entries = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(1, 7), st.integers(0, 3)), max_size=12))
    return defaults, entries


@settings(max_examples=300, deadline=None)
@given(valid_entries(), st.permutations(["==", *READERS]))
def test_entry_tables_read_like_row_tables(table, order):
    defaults, entries = table
    m = len(defaults)
    lazy = TraversalSpec.from_entries(m, defaults, *zip(*entries))
    assert "overrides" not in vars(lazy)  # rows are derived on first read
    winning = [{} for _ in range(m)]
    for e, t, w in entries:
        winning[e][t] = w
    rows = TraversalSpec(defaults, [list(row.items()) for row in winning])
    for name in order:
        if name == "==":
            assert lazy == rows and rows == lazy
        else:
            assert READERS[name](lazy, m) == READERS[name](rows, m), name
    assert typed(lazy._override_index) == typed(rows._override_index)
    assert lazy._override_departures == tuple(
        tuple((t, t + w) for t, w in row) for row in rows.overrides)
    assert lazy._latest_override == rows._latest_override == max(
        (t for _, t, _ in entries), default=0)
