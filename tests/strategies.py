"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from boxbc import Graph, complete, cycle, graph_from_edges, path, star


@st.composite
def connected_graphs(draw, min_vertices: int = 2, max_vertices: int = 9) -> Graph:
    """Random connected graph: a random tree plus a few chords."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n,
        )
    )
    edges.update((min(u, v), max(u, v)) for u, v in chords if u != v)
    return graph_from_edges(n, sorted(edges))


@st.composite
def edge_subsets(draw, min_vertices: int = 1, max_vertices: int = 9) -> Graph:
    """Random graph whose edges are any subset of the vertex pairs, so possibly disconnected."""
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph_from_edges(n, [p for p in pairs if draw(st.booleans())])


@st.composite
def small_factors(draw, max_product: int = 40, max_arity: int = 3) -> list[Graph]:
    """Factor lists drawn from the named families, bounded product size."""
    builders = (
        lambda k: path(k),
        lambda k: cycle(k + 1),
        lambda k: complete(k),
        lambda k: star(k - 1),
    )
    arity = draw(st.integers(1, max_arity))
    factors: list[Graph] = []
    budget = max_product
    for _ in range(arity):
        build = draw(st.sampled_from(builders))
        k = draw(st.integers(2, 5))
        g = build(k)
        if g.vertex_count > budget:
            break
        budget //= g.vertex_count
        factors.append(g)
    if not factors:
        factors.append(path(draw(st.integers(2, 5))))
    return factors


@st.composite
def random_factors(draw, max_product: int = 48, max_arity: int = 3) -> list[Graph]:
    """One to ``max_arity`` random connected factors, one-vertex factors included."""
    factors: list[Graph] = []
    budget = max_product
    for _ in range(draw(st.integers(1, max_arity))):
        g = draw(connected_graphs(min_vertices=1, max_vertices=min(6, budget)))
        budget //= g.vertex_count
        factors.append(g)
    return factors
