from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from boxbc import (
    DisconnectedGraphError,
    GeodesicTable,
    Graph,
    GraphError,
    all_pairs_tables,
    bfs_geodesics,
    complete,
    cycle,
    diameter,
    distance,
    graph_from_edges,
    grid,
    hypercube,
    interval,
    is_connected,
    is_geodetic,
    pair_dependency,
    path,
    sigma,
    sigma_through,
    star,
)
from boxbc.graph import breadth_first
from oracles import all_geodesics, enumerated_dependency, matrix_geodesics
from strategies import connected_graphs, edge_subsets


@given(connected_graphs())
@settings(max_examples=60)
def test_tables_match_matrix_powers(g: Graph):
    dist, count = matrix_geodesics(g)
    for s, table in enumerate(all_pairs_tables(g)):
        assert table.source == s
        assert list(table.dist) == dist[s]
        assert list(table.sigma) == count[s]


@given(edge_subsets())
@settings(max_examples=80)
def test_breadth_first_matches_matrix_powers(g: Graph):
    # disconnected graphs included: unreached vertices keep -1 and 0
    dist, count = matrix_geodesics(g)
    n = g.vertex_count
    for s in range(n):
        d, sig, order = breadth_first(g.adjacency, s)
        assert d == dist[s]
        assert sig == count[s]
        assert bfs_geodesics(g, s) == GeodesicTable(s, tuple(d), tuple(sig))
        assert order[0] == s
        assert sorted(order) == [v for v in range(n) if dist[s][v] >= 0]
        assert all(d[a] <= d[b] for a, b in zip(order, order[1:]))


@given(edge_subsets())
@settings(max_examples=80)
def test_is_connected_matches_matrix_distances(g: Graph):
    dist, _ = matrix_geodesics(g)
    assert is_connected(g) is all(d >= 0 for d in dist[0])


def test_bfs_on_even_cycle():
    table = bfs_geodesics(cycle(6), 0)
    assert table.dist == (0, 1, 2, 3, 2, 1)
    assert table.sigma == (1, 1, 1, 2, 1, 1)


def test_bfs_unreachable_markers():
    g = graph_from_edges(3, [(0, 1)])
    table = bfs_geodesics(g, 0)
    assert table.dist[2] == -1
    assert table.sigma[2] == 0


def test_distance_and_sigma_lookups():
    g = grid(3, 3)
    assert distance(g, 0, 8) == 4
    assert sigma(g, 0, 8) == 6
    assert sigma(g, 4, 4) == 1
    assert distance(g, 8, 0) == distance(g, 0, 8)
    for bad in (-1, 9):
        with pytest.raises(GraphError):
            distance(g, bad, 0)
        with pytest.raises(GraphError):
            sigma(g, 0, bad)


def test_sigma_through_guard():
    g = cycle(4)
    # Both two-step routes around the square pass through opposite corners.
    assert sigma_through(g, 0, 2, 1) == 1
    assert sigma_through(g, 0, 2, 3) == 1
    assert sigma_through(g, 0, 1, 2) == 0
    assert sigma_through(g, 0, 2, 0) == sigma(g, 0, 2)
    assert sigma_through(g, 0, 2, 2) == sigma(g, 0, 2)


@given(connected_graphs(max_vertices=8))
@settings(max_examples=40)
def test_dependency_matches_enumeration(g: Graph):
    n = g.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            for x in range(n):
                if x in (u, v):
                    assert pair_dependency(g, u, v, x) == 0
                else:
                    assert pair_dependency(g, u, v, x) == enumerated_dependency(g, u, v, x)


def test_dependency_validation():
    g = path(3)
    with pytest.raises(GraphError):
        pair_dependency(g, 1, 1, 0)
    with pytest.raises(GraphError):
        pair_dependency(g, 0, 2, 5)
    split = graph_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        pair_dependency(split, 0, 2, 1)


def test_dependency_known_values():
    assert pair_dependency(path(3), 0, 2, 1) == 1
    assert pair_dependency(cycle(4), 0, 2, 1) == Fraction(1, 2)
    assert pair_dependency(complete(4), 0, 1, 2) == 0


@given(connected_graphs(max_vertices=8))
@settings(max_examples=40)
def test_interval_is_union_of_geodesics(g: Graph):
    n = g.vertex_count
    for u in range(n):
        for v in range(u, n):
            on_paths = set()
            for p in all_geodesics(g, u, v):
                on_paths.update(p)
            assert interval(g, u, v) == on_paths


def test_interval_split_pair():
    assert interval(cycle(4), 0, 2) == {0, 1, 2, 3}
    assert interval(cycle(5), 0, 2) == {0, 1, 2}
    with pytest.raises(DisconnectedGraphError):
        interval(graph_from_edges(4, [(0, 1), (2, 3)]), 0, 3)


def test_diameter():
    assert diameter(path(5)) == 4
    assert diameter(cycle(6)) == 3
    assert diameter(cycle(7)) == 3
    assert diameter(complete(5)) == 1
    assert diameter(complete(1)) == 0
    with pytest.raises(DisconnectedGraphError):
        diameter(graph_from_edges(2, []))


def test_geodetic_families():
    assert is_geodetic(path(6))
    assert is_geodetic(star(4))
    assert is_geodetic(complete(5))
    assert is_geodetic(cycle(7))
    assert not is_geodetic(cycle(8))
    assert not is_geodetic(hypercube(2))
    assert not is_geodetic(grid(2, 3))


@given(connected_graphs(max_vertices=8))
@settings(max_examples=40)
def test_geodetic_iff_unique_counts(g: Graph):
    _, count = matrix_geodesics(g)
    unique = all(c == 1 for row in count for c in row if c)
    assert is_geodetic(g) is unique
