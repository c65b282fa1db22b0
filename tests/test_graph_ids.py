"""The public graph accessors reject vertex and edge ids outside the graph
instead of letting Python read a negative id from the end of a list."""

from __future__ import annotations

import pytest

from tmbcast.core import StaticGraph, TemporalPath, ValidationError

PATH = StaticGraph(3, ((0, 1), (1, 2)))


@pytest.mark.parametrize("u, v", [(-1, 1), (-3, 1), (3, 2)])
def test_edge_id_rejects_a_vertex_outside_the_graph(u, v):
    with pytest.raises(ValidationError, match="no edge"):
        PATH.edge_id(u, v)


@pytest.mark.parametrize("e", [-1, -2, 2])
def test_from_steps_rejects_an_edge_outside_the_graph(e):
    with pytest.raises(ValidationError, match=f"no edge {e}"):
        TemporalPath.from_steps(PATH, 2, [(e, 1)])


@pytest.mark.parametrize("v", [-1, -3, 3])
def test_incident_rejects_a_vertex_outside_the_graph(v):
    with pytest.raises(ValidationError, match=f"no vertex {v}"):
        PATH.incident(v)
