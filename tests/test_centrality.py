from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings

from boxbc import (
    CentralityReport,
    Graph,
    GraphError,
    all_pairs_tables,
    average_distance,
    betweenness,
    cartesian_product,
    complete,
    cycle,
    factorized_betweenness_all,
    graph_from_edges,
    grid,
    hypercube,
    hypercube_bc,
    path,
    product_spec,
    product_wiener,
    star,
    wiener,
)
from boxbc.centrality import _definitional
from oracles import enumerated_betweenness, matrix_geodesics
from strategies import connected_graphs


def test_known_vectors():
    assert betweenness(path(3)) == (0, 1, 0)
    assert betweenness(path(4)) == (0, 2, 2, 0)
    assert betweenness(star(3)) == (3, 0, 0, 0)
    assert betweenness(cycle(4)) == (Fraction(1, 2),) * 4
    assert betweenness(cycle(5)) == (1, 1, 1, 1, 1)
    assert betweenness(complete(6)) == (0,) * 6


def test_methods_agree_with_enumeration():
    for g in (path(5), cycle(6), star(4), complete(4), graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])):
        expected = enumerated_betweenness(g)
        assert _definitional(g) == expected
        assert betweenness(g) == expected


@given(connected_graphs(max_vertices=8))
@settings(max_examples=40)
def test_methods_agree_everywhere(g: Graph):
    expected = enumerated_betweenness(g)
    assert _definitional(g) == expected
    assert betweenness(g) == expected


def test_brandes_at_scale():
    # Q_9: sigma reaches 9!, and every source has the same lcm(sigma)
    assert set(betweenness(hypercube(9))) == {hypercube_bc(9)}
    # not vertex transitive: sources differ in lcm(sigma), so several
    # per-denominator sums are combined
    for factors in ((star(3), path(4), cycle(4)), (path(15), path(15))):
        g = cartesian_product(factors).graph
        assert len({lcm(*t.sigma) for t in all_pairs_tables(g)}) > 1
        assert betweenness(g) == factorized_betweenness_all(product_spec(factors))


def test_tiny_graphs():
    for n, edges, expected_wiener in ((0, [], 0), (1, [], 0), (2, [(0, 1)], 1)):
        g = graph_from_edges(n, edges)
        for values in (betweenness(g), _definitional(g)):
            assert values == (0,) * n
            assert all(type(v) is Fraction for v in values)
        assert wiener(g) == expected_wiener


def test_betweenness_takes_no_method():
    # Brandes is the one route; the definitional loop is only its reference
    with pytest.raises(TypeError):
        betweenness(path(3), method="definitional")
    assert _definitional(path(3)) == betweenness(path(3)) == (0, 1, 0)
    assert type(_definitional(path(3))) is tuple


def test_disconnected_rejected():
    with pytest.raises(GraphError):
        betweenness(graph_from_edges(3, [(0, 1)]))
    with pytest.raises(GraphError):
        wiener(graph_from_edges(3, [(0, 1)]))


def test_report_validation():
    with pytest.raises(ValueError):
        CentralityReport("brandes", "g", (Fraction(-1),))
    with pytest.raises(ValueError):
        CentralityReport("closed-form", "g", (Fraction(1), Fraction(1)), uniform=True)
    with pytest.raises(ValueError):
        CentralityReport(method="closed-form", graph="g", values=(), uniform=True)
    uniform = CentralityReport("closed-form", "g", (Fraction(1, 2),), uniform=True)
    assert uniform.uniform


def test_wiener_values():
    assert wiener(path(2)) == 1
    assert wiener(path(4)) == 10  # sum over pairs of |i-j|
    assert wiener(cycle(4)) == 8
    assert wiener(complete(5)) == 10


def test_wiener_builds_no_distance_table():
    g = grid(26, 29)
    expected = product_wiener([path(26), path(29)])
    tracemalloc.start()
    try:
        got = wiener(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 1 << 20, peak


@given(connected_graphs())
@settings(max_examples=60)
def test_wiener_matches_matrix_distances(g: Graph):
    dist, _ = matrix_geodesics(g)
    assert wiener(g) == sum(sum(row) for row in dist) // 2


@given(connected_graphs())
@settings(max_examples=60)
def test_sum_identity(g: Graph):
    total = sum(betweenness(g))
    assert total == wiener(g) - comb(g.vertex_count, 2)


def test_average_distance():
    assert average_distance(cycle(4)) == Fraction(4, 3)
    assert average_distance(complete(7)) == 1
    with pytest.raises(GraphError):
        average_distance(complete(1))
