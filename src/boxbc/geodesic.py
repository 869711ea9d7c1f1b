"""Per-source geodesic tables and the quantities derived from them.

A :class:`GeodesicTable` stores, for one source vertex, the hop distance and
the number of distinct shortest paths to every other vertex.  Counts are plain
Python integers, so they stay exact even where they grow factorially.  The
Wiener index comes from a bit-parallel BFS from all sources at once and
builds no table.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import comb

from .graph import DisconnectedGraphError, Graph, GraphError, require_connected
from .record import Record


class GeodesicTable(Record):
    """Distances and geodesic counts from ``source``.

    ``dist[v]`` is -1 and ``sigma[v]`` is 0 for vertices unreachable from the
    source; on connected graphs every ``sigma[v]`` is at least 1.
    """

    source: int
    dist: tuple[int, ...]
    sigma: tuple[int, ...]


def bfs_geodesics(g: Graph, source: int) -> GeodesicTable:
    """Breadth-first search from ``source``, accumulating geodesic counts."""
    g.check_vertex(source)
    n = g.vertex_count
    dist = [-1] * n
    sigma = [0] * n
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    adjacency = g.adjacency
    while queue:
        v = queue.popleft()
        dv = dist[v]
        sv = sigma[v]
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sv
    return GeodesicTable(source, tuple(dist), tuple(sigma))


def all_pairs_tables(g: Graph) -> tuple[GeodesicTable, ...]:
    """Geodesic tables for every source, memoized on the graph instance."""
    return g.geodesic_tables


def distance(g: Graph, u: int, v: int) -> int:
    """Hop distance between ``u`` and ``v`` (-1 when unreachable)."""
    g.check_vertex(v)
    return all_pairs_tables(g)[g.check_vertex(u)].dist[v]


def sigma(g: Graph, u: int, v: int) -> int:
    """Number of distinct shortest ``u``-``v`` paths; ``sigma(u, u) == 1``."""
    g.check_vertex(v)
    return all_pairs_tables(g)[g.check_vertex(u)].sigma[v]


def sigma_through(g: Graph, u: int, v: int, x: int) -> int:
    """Number of shortest ``u``-``v`` paths that pass through ``x``.

    Equals ``sigma(u, x) * sigma(x, v)`` when ``x`` lies on some ``u``-``v``
    geodesic and 0 otherwise; with ``x`` an endpoint this reduces to
    ``sigma(u, v)``.
    """
    tables = all_pairs_tables(g)
    tu = tables[g.check_vertex(u)]
    tx = tables[g.check_vertex(x)]
    g.check_vertex(v)
    if tu.dist[x] + tx.dist[v] != tu.dist[v] or tu.dist[v] < 0:
        return 0
    return tu.sigma[x] * tx.sigma[v]


def pair_dependency(g: Graph, u: int, v: int, x: int) -> Fraction:
    """Fraction of shortest ``u``-``v`` paths through ``x``.

    Endpoints carry no dependency: the result is 0 when ``x`` is ``u`` or
    ``v``, which is the convention betweenness accumulation needs.
    """
    if u == v:
        raise GraphError("pair dependency needs two distinct endpoints")
    if x == u or x == v:
        g.check_vertex(x)
        return Fraction(0)
    den = sigma(g, u, v)
    if den == 0:
        raise DisconnectedGraphError(f"vertices {u} and {v} are not connected")
    return Fraction(sigma_through(g, u, v, x), den)


def interval(g: Graph, u: int, v: int) -> frozenset[int]:
    """All vertices lying on at least one shortest ``u``-``v`` path."""
    tables = all_pairs_tables(g)
    du = tables[g.check_vertex(u)].dist
    dv = tables[g.check_vertex(v)].dist
    duv = du[v]
    if duv < 0:
        raise DisconnectedGraphError(f"vertices {u} and {v} are not connected")
    return frozenset(w for w in range(g.vertex_count) if du[w] + dv[w] == duv)


def diameter(g: Graph) -> int:
    """Maximum pairwise distance; requires a connected graph."""
    require_connected(g)
    if g.vertex_count == 0:
        return 0
    return max(max(t.dist) for t in all_pairs_tables(g))


def is_geodetic(g: Graph) -> bool:
    """True when every vertex pair is joined by exactly one shortest path."""
    require_connected(g)
    return all(s == 1 for t in all_pairs_tables(g) for s in t.sigma)


def wiener(g: Graph) -> int:
    """Sum of distances over all unordered vertex pairs.

    Bit-parallel BFS from every source at once: bit ``u`` of ``reach[v]`` is
    set once ``v`` lies within distance ``d`` of ``u``, so level ``d`` adds
    ``d`` for each newly set bit.  No distance table is built.
    """
    require_connected(g)
    adjacency = g.adjacency
    reach = [1 << v for v in range(len(adjacency))]
    seen = len(reach)
    total = 0
    d = 0
    while True:
        d += 1
        grown = []
        for v, nbrs in enumerate(adjacency):
            r = reach[v]
            for w in nbrs:
                r |= reach[w]
            grown.append(r)
        count = sum(r.bit_count() for r in grown)
        if count == seen:
            return total // 2
        total += d * (count - seen)
        seen = count
        reach = grown


def average_distance(g: Graph) -> Fraction:
    """Mean pairwise distance ``W(G) / C(n, 2)``; needs at least two vertices."""
    n = g.vertex_count
    if n < 2:
        raise GraphError("average distance needs at least two vertices")
    return Fraction(wiener(g), comb(n, 2))
