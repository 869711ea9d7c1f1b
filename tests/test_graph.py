from __future__ import annotations

import pytest
from hypothesis import given

from boxbc import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    cycle,
    graph_from_edges,
    hypercube,
    is_connected,
    path,
)
from boxbc.graph import require_connected
from strategies import connected_graphs


def test_basic_shape():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.vertex_count == 4
    assert g.edge_count == 4
    assert g.neighbors(1) == (0, 2)
    assert g.degree(0) == 2
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_edge_order_does_not_matter():
    a = graph_from_edges(3, [(0, 1), (1, 2)])
    b = graph_from_edges(3, [(2, 1), (1, 0)])
    assert a == b
    assert hash(a) == hash(b)


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        graph_from_edges(3, [(-1, 0)])
    with pytest.raises(GraphError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(GraphError):
        graph_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        graph_from_edges(-1, [])


def test_rejects_bool_vertex_ids():
    # bool is an int subclass; ids must be actual integers.
    g = graph_from_edges(2, [(0, 1)])
    with pytest.raises(GraphError):
        g.neighbors(True)
    with pytest.raises(GraphError):
        graph_from_edges(2, [(False, 1)])


@pytest.mark.parametrize("count", [True, False, 2.0, "2"])
def test_vertex_counts_follow_the_int_rule(count):
    # the type half of the vertex-id rule: a count is an int, not a bool
    with pytest.raises(GraphError, match="vertex count must be non-negative"):
        graph_from_edges(count, [])


@pytest.mark.parametrize(
    "build, argument",
    [(path, 2.0), (cycle, 3.0), (hypercube, True), (path, True), (cycle, "4")],
)
def test_family_parameters_follow_the_int_rule(build, argument):
    with pytest.raises(GraphError, match="parameters must be integers"):
        build(argument)


def test_check_vertex_range():
    g = graph_from_edges(2, [(0, 1)])
    assert g.check_vertex(1) == 1
    for bad in (-1, 2, "0"):
        with pytest.raises(GraphError):
            g.check_vertex(bad)


def test_empty_and_singleton():
    assert graph_from_edges(0, []).vertex_count == 0
    single = graph_from_edges(1, [])
    assert single.edge_count == 0
    assert is_connected(single)
    assert is_connected(graph_from_edges(0, []))


def test_connectivity():
    path2 = graph_from_edges(2, [(0, 1)])
    assert is_connected(path2)
    assert require_connected(path2) is path2
    split = graph_from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(split)
    with pytest.raises(DisconnectedGraphError):
        require_connected(split)


def test_adjacency_is_immutable():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert isinstance(g.adjacency, tuple)
    with pytest.raises(AttributeError):
        g.adjacency = ()


@given(connected_graphs())
def test_edges_roundtrip(g: Graph):
    rebuilt = graph_from_edges(g.vertex_count, g.edges())
    assert rebuilt == g
    assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count
