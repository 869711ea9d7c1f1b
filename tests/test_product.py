from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd

import pytest
from hypothesis import example, given, settings

import boxbc.product
from boxbc import (
    Graph,
    GraphError,
    all_pairs_tables,
    betweenness,
    cartesian_product,
    cli,
    complete,
    cycle,
    diameter,
    factorized_betweenness,
    factorized_betweenness_all,
    format_edge_list,
    graph_from_edges,
    grid,
    hypercube,
    hypercube_bc,
    path,
    product_distance,
    product_pair_dependency,
    product_sigma,
    product_spec,
    product_wiener,
    save_graph,
    star,
    torus_bc,
    wiener,
)
from oracles import enumerated_dependency, matrix_geodesics
from strategies import random_factors, small_factors
from test_cli import _random_connected


def test_spec_layout():
    spec = product_spec([path(3), path(4), path(2)])
    assert spec.radices == (3, 4, 2)
    assert spec.strides == (8, 2, 1)  # last coordinate varies fastest
    assert spec.vertex_count == 24
    assert spec.encode((1, 2, 0)) == 12
    assert spec.decode(12) == (1, 2, 0)
    assert [spec.encode(c) for c in spec.coordinates()] == list(range(24))


def test_spec_validation():
    spec = product_spec([path(3), path(2)])
    with pytest.raises(GraphError):
        spec.encode((0,))
    with pytest.raises(GraphError):
        spec.encode((3, 0))
    with pytest.raises(GraphError):
        spec.decode(6)
    with pytest.raises(GraphError):
        spec.decode(-1)
    with pytest.raises(GraphError):
        product_spec([])
    with pytest.raises(GraphError):
        product_spec([graph_from_edges(0, [])])
    with pytest.raises(GraphError):
        product_spec([graph_from_edges(3, [(0, 1)])])


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0])
def test_coordinates_and_ids_follow_the_vertex_id_rule(bad):
    # the rule of Graph.check_vertex: an int, not a bool, in range
    spec = product_spec([path(3), path(3)])
    with pytest.raises(GraphError, match="out of range"):
        spec.encode((bad, 0))
    with pytest.raises(GraphError, match="out of range"):
        spec.decode(bad)
    with pytest.raises(GraphError, match="out of range"):
        product_distance(spec, (bad, 0), (0, 0))
    with pytest.raises(GraphError, match="out of range"):
        product_distance(spec, (0, 0), (0, bad))


@pytest.mark.parametrize(
    "bad, message",
    [
        ((True, 0), "coordinate True out of range 0..2"),
        ((1.0, 0), "coordinate 1.0 out of range 0..2"),
        ((1,), "expected 2 coordinates, got 1"),
        ((3, 0), "coordinate 3 out of range 0..2"),
        ((0, -1), "coordinate -1 out of range 0..1"),
    ],
    ids=["bool", "float", "short", "too large", "negative"],
)
def test_bad_coordinates_keep_their_messages(bad, message):
    spec = product_spec([path(3), path(2)])
    good, other = (0, 0), (2, 1)
    queries = [
        lambda: spec.encode(bad),
        lambda: product_distance(spec, bad, good),
        lambda: product_distance(spec, good, bad),
        lambda: product_sigma(spec, good, bad),
        lambda: product_pair_dependency(spec, bad, other, good),
        lambda: product_pair_dependency(spec, good, other, bad),
        lambda: factorized_betweenness(spec, bad),
    ]
    for query in queries:
        with pytest.raises(GraphError) as raised:
            query()
        assert str(raised.value) == message


def test_int_subclass_coordinates_are_accepted():
    class Coordinate(int):
        pass

    spec = product_spec([path(3), path(2)])
    v = (Coordinate(2), Coordinate(1))
    assert spec.encode(v) == 5
    assert product_distance(spec, (0, 0), v) == 3
    assert product_sigma(spec, v, (0, 0)) == 3
    assert product_pair_dependency(spec, (0, 0), v, (Coordinate(1), 0)) == Fraction(2, 3)


def test_known_products():
    # P_2 x P_2 is a 4-cycle under the row-major labeling 0=(0,0) .. 3=(1,1).
    square = cartesian_product([path(2), path(2)]).graph
    assert square == graph_from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert betweenness(square) == betweenness(cycle(4))
    assert cartesian_product([complete(2)] * 3).graph == hypercube(3)
    assert cartesian_product([path(5)]).graph == path(5)
    q3 = cartesian_product([complete(2)] * 3).graph
    assert q3.vertex_count == 8
    assert q3.edge_count == 12
    assert all(q3.degree(v) == 3 for v in range(8))


def test_product_edge_count():
    # |E(G x H)| = |G||E(H)| + |H||E(G)|, extended over all factors.
    factors = [cycle(5), path(3), complete(4)]
    g = cartesian_product(factors).graph
    expected = 0
    for i, f in enumerate(factors):
        scale = 1
        for j, other in enumerate(factors):
            if j != i:
                scale *= other.vertex_count
        expected += f.edge_count * scale
    assert g.edge_count == expected


@given(random_factors(max_product=60, max_arity=4))
@settings(max_examples=60, deadline=None)
def test_materialized_adjacency_matches_edge_definition(factors: list[Graph]):
    # the definition: two coordinate vectors differing in exactly one
    # position, where they are joined by an edge of that factor
    spec = product_spec(factors)
    coords = spec.coordinates()
    edges = []
    for u, cu in enumerate(coords):
        for v in range(u + 1, spec.vertex_count):
            differ = [i for i, (a, b) in enumerate(zip(cu, coords[v])) if a != b]
            if len(differ) == 1 and coords[v][differ[0]] in factors[differ[0]].adjacency[cu[differ[0]]]:
                edges.append((u, v))
    assert cartesian_product(factors).graph == graph_from_edges(spec.vertex_count, edges)
    assert list(spec.edges()) == edges


@given(random_factors(max_product=120, max_arity=5))
@settings(max_examples=60, deadline=None)
def test_streamed_edges_match_the_materialized_product(factors: list[Graph]):
    spec = product_spec(factors)
    g = cartesian_product(factors).graph
    assert list(spec.edges()) == list(g.edges())
    assert format_edge_list(spec) == format_edge_list(g)


def test_product_command_peaks_below_four_times_its_output(tmp_path):
    # the edge list streams from the factors into one text buffer; building
    # the product graph and one string per edge line peaked at about 19 times
    # the output on this 6,400-vertex product
    paths = []
    for i, g in enumerate([cycle(16), _random_connected(25, 6, seed=25), cycle(16)]):
        paths.append(str(tmp_path / f"f{i}.el"))
        save_graph(paths[-1], g)
    target = tmp_path / "product.el"
    argv = ["product", *paths, "-o", str(target)]
    assert cli.main(argv) == 0  # loads every module the command uses before tracing starts
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = target.stat().st_size
    assert peak < 4 * size, f"peak {peak} bytes for {size} bytes of output"


@given(small_factors())
@settings(max_examples=30, deadline=None)
def test_distance_and_sigma_match_materialized(factors: list[Graph]):
    pg = cartesian_product(factors)
    dist, count = matrix_geodesics(pg.graph)
    coords = pg.spec.coordinates()
    n = pg.graph.vertex_count
    for u in range(n):
        for v in range(u, n):
            assert product_distance(pg.spec, coords[u], coords[v]) == dist[u][v]
            assert product_sigma(pg.spec, coords[u], coords[v]) == count[u][v]


def test_sigma_multiplies_and_interleaves():
    spec = product_spec([path(3), path(3)])
    # Two straight-line factors: all geodesic mixing comes from interleaving.
    assert product_sigma(spec, (0, 0), (2, 2)) == comb(4, 2)
    assert product_sigma(spec, (0, 0), (2, 0)) == 1
    assert product_sigma(spec, (0, 1), (2, 1)) == 1


def test_interval_membership_examples():
    spec = product_spec([path(3), path(3)])
    # x is on the u-v interval exactly when the distance adds up through it, and,
    # away from u and v, exactly when the dependency of {u, v} on x is positive
    u, v = (0, 0), (2, 2)
    for x in [(1, 1), (0, 0), (0, 2), (2, 0)]:
        assert product_distance(spec, u, x) + product_distance(spec, x, v) == product_distance(spec, u, v)
        if x not in (u, v):
            assert product_pair_dependency(spec, u, v, x) > 0
    assert product_pair_dependency(spec, (0, 0), (1, 0), (2, 0)) == 0
    assert product_pair_dependency(spec, (0, 0), (0, 2), (1, 1)) == 0


@given(small_factors(max_product=24))
@settings(max_examples=20, deadline=None)
def test_dependency_matches_enumeration(factors: list[Graph]):
    pg = cartesian_product(factors)
    coords = pg.spec.coordinates()
    n = pg.graph.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            for x in range(n):
                if x in (u, v):
                    continue
                got = product_pair_dependency(pg.spec, coords[u], coords[v], coords[x])
                assert got == enumerated_dependency(pg.graph, u, v, x)


@given(small_factors(max_product=24))
@settings(max_examples=20, deadline=None)
def test_dependencies_of_a_pair_sum_to_its_distance_minus_one(factors: list[Graph]):
    # each u-v geodesic has d(u,v) - 1 interior vertices; no product is materialized
    spec = product_spec(factors)
    coords = spec.coordinates()
    for i, u in enumerate(coords):
        for v in coords[i + 1:]:
            total = sum(product_pair_dependency(spec, u, v, x) for x in coords)
            assert total == product_distance(spec, u, v) - 1


def test_dependency_endpoints_and_validation():
    spec = product_spec([path(3), path(3)])
    assert product_pair_dependency(spec, (0, 0), (2, 2), (0, 0)) == 0
    assert product_pair_dependency(spec, (0, 0), (2, 2), (1, 1)) == Fraction(2, 3)
    with pytest.raises(GraphError):
        product_pair_dependency(spec, (0, 0), (0, 0), (1, 1))
    with pytest.raises(GraphError):
        product_pair_dependency(spec, (0, 0), (3, 0), (1, 1))


@given(small_factors())
@settings(max_examples=25, deadline=None)
def test_factorized_betweenness_matches_brandes(factors: list[Graph]):
    pg = cartesian_product(factors)
    assert factorized_betweenness_all(pg.spec) == betweenness(pg.graph)


@given(random_factors())
@example([cycle(4), path(1), star(2)])
# P_8^3 (512 vertices, 56 classes) and P_6 x C_7 x star_3 reach a product
# degree D = sum of diameters (21 and 10) that random_factors never draws, where
# the alternating signs of the (1 - t)^b expansions cancel over many terms
@example([path(8)] * 3)
@example([path(6), cycle(7), star(3)])
@settings(max_examples=40, deadline=None)
def test_profile_route_matches_brandes_on_random_factors(factors: list[Graph]):
    pg = cartesian_product(factors)
    expected = betweenness(pg.graph)
    assert factorized_betweenness_all(pg.spec) == expected
    last = pg.spec.vertex_count - 1
    assert factorized_betweenness(pg.spec, pg.spec.decode(last)) == expected[last]


@given(random_factors())
@settings(max_examples=40, deadline=None)
def test_profiles_are_in_lowest_terms(factors: list[Graph]):
    for f in factors:
        tables = all_pairs_tables(f)
        for x in range(f.vertex_count):
            p, e, den = boxbc.product._profile(boxbc.product._sums(tables, x))
            assert den > 0 and gcd(den, *p, *e) == 1
    # a profile depends on its pair sums alone: an end of P_3 and a leaf of star_2 give the same one
    end = boxbc.product._profile(boxbc.product._sums(all_pairs_tables(path(3)), 0))
    assert end == boxbc.product._profile(boxbc.product._sums(all_pairs_tables(star(2)), 1))


def test_profile_shorter_than_the_factor_diameter():
    # P_5 with a pendant at its centre: the pendant's eccentricity 3 is below
    # the diameter 4, so its profile has degree 3 where the factor reaches 4
    spur = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert diameter(spur) == 4
    p, e, den = boxbc.product._profile(boxbc.product._sums(all_pairs_tables(spur), 5))
    assert len(p) == len(e) == 4
    for other in (complete(2), path(3), spur):
        pg = cartesian_product([spur, other])
        assert factorized_betweenness_all(pg.spec) == betweenness(pg.graph)


def _count_calls(monkeypatch, names: tuple[str, ...]) -> dict[str, int]:
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(boxbc.product, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(boxbc.product, name, counted)
    return calls


def test_equal_factors_share_profiles(monkeypatch):
    g = path(3)
    twin = graph_from_edges(3, list(g.edges()))
    assert twin == g and twin is not g
    factors = [g, twin, cycle(5)]
    calls = _count_calls(monkeypatch, ("_sums", "_profile", "_class_values", "_times"))
    values = factorized_betweenness_all(product_spec(factors))
    # pair sums are built once per distinct factor content (3 + 5 vertices);
    # P_3 has two profiles (end, middle) and C_5 one, so the sorted classes
    # are {end, end, C_5}, {end, middle, C_5} and {middle, middle, C_5}, all
    # evaluated in one call; each builds its 2-id prefix's dual product once,
    # three _times per profile
    assert calls == {"_sums": 8, "_profile": 3, "_class_values": 1, "_times": 3 * 3 * 2}
    assert values == betweenness(cartesian_product(factors).graph)


def test_equal_sums_share_one_expansion(monkeypatch):
    # mirrored vertices of P_6 share their pair sums (3 distinct), and every
    # vertex of C_7 has the same sums, so 13 pair loops expand 4 profiles
    factors = [path(6), cycle(7)]
    calls = _count_calls(monkeypatch, ("_sums", "_profile"))
    values = factorized_betweenness_all(product_spec(factors))
    assert calls == {"_sums": 13, "_profile": 4}
    assert values == betweenness(cartesian_product(factors).graph)


def test_each_class_prefix_builds_one_product(monkeypatch):
    # P_5's vertex c has profile id min(c, 4 - c), so P_5^3 has 10 sorted
    # classes but only 6 distinct prefixes (a class minus its last id); each
    # prefix's dual product is built once, three _times per profile
    ids = [min(c, 4 - c) for c in range(5)]
    classes = {tuple(sorted(key)) for key in product(ids, repeat=3)}
    prefixes = {key[:-1] for key in classes}
    assert (len(classes), len(prefixes)) == (10, 6)
    calls = _count_calls(monkeypatch, ("_class_values", "_times"))
    values = factorized_betweenness_all(product_spec([path(5)] * 3))
    assert calls == {"_class_values": 1, "_times": 3 * 2 * len(prefixes)}
    assert values == betweenness(cartesian_product([path(5)] * 3).graph)


def test_factor_order_permutes_values():
    factors = [star(3), path(4), cycle(4)]
    spec = product_spec(factors)
    values = factorized_betweenness_all(spec)
    for order in permutations(range(len(factors))):
        permuted = product_spec([factors[i] for i in order])
        permuted_values = factorized_betweenness_all(permuted)
        for vid, coords in enumerate(spec.coordinates()):
            assert permuted_values[permuted.encode([coords[i] for i in order])] == values[vid]


def test_profile_route_matches_closed_forms_at_scale():
    # 16,384 and 900 vertices: one profile class each, far past materialized reach
    assert factorized_betweenness_all(product_spec([complete(2)] * 14)) == (hypercube_bc(14),) * 2**14
    assert factorized_betweenness_all(product_spec([cycle(30)] * 2)) == (torus_bc(30, 30),) * 900


def test_single_vertex_route_agrees():
    spec = product_spec([path(3), path(3)])
    full = factorized_betweenness_all(spec)
    assert factorized_betweenness(spec, (1, 1)) == full[spec.encode((1, 1))]
    assert factorized_betweenness(spec, (0, 0)) == full[0]
    # the pair-by-pair sum of factorized dependencies stays the reference
    coords = spec.coordinates()
    for x in coords:
        pairs = [(u, v) for i, u in enumerate(coords) for v in coords[i + 1:] if x not in (u, v)]
        assert factorized_betweenness(spec, x) == sum(product_pair_dependency(spec, u, v, x) for u, v in pairs)


def test_grid_center_anchor():
    values = factorized_betweenness_all(product_spec([path(3), path(3)]))
    assert values[4] == Fraction(32, 3)
    assert values[0] == Fraction(4, 3)
    assert sum(values) == wiener(grid(3, 3)) - comb(9, 2)


@given(small_factors())
@settings(max_examples=30, deadline=None)
def test_product_wiener_composes(factors: list[Graph]):
    assert product_wiener(factors) == wiener(cartesian_product(factors).graph)


def test_fiber_isometry_star_product():
    # Fibers of a star product keep the star's distances.
    pg = cartesian_product([star(3), path(3)])
    tables = all_pairs_tables(pg.graph)
    spec = pg.spec
    hub_fiber = [spec.encode((v, 0)) for v in range(4)]
    for a_pos, u in enumerate(hub_fiber):
        for b_pos, v in enumerate(hub_fiber):
            assert tables[u].dist[v] == (0 if a_pos == b_pos else (1 if 0 in (a_pos, b_pos) else 2))
