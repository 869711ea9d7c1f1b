"""Independent reference computations for the test suite.

Nothing here shares code with the library: distances and geodesic counts
come from integer powers of the adjacency matrix, dependencies and
betweenness from exhaustive enumeration of every geodesic.  Slow on
purpose; use small graphs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from boxbc import Graph


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(a):
        out_i = out[i]
        for k, aik in enumerate(row):
            if aik:
                brow = b[k]
                for j in range(n):
                    out_i[j] += aik * brow[j]
    return out


@lru_cache(maxsize=None)
def matrix_geodesics(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """(dist, count) matrices; count[u][v] = (A^d)[u][v] at the first d with a walk.

    Every walk of minimal length is a geodesic, so the matrix power counts
    them.  Unreachable pairs keep dist -1 and count 0.  Memoized per graph:
    callers share the matrices and must not modify them.
    """
    n = g.vertex_count
    adj = [[0] * n for _ in range(n)]
    for u, v in g.edges():
        adj[u][v] = adj[v][u] = 1
    dist = [[0 if i == j else -1 for j in range(n)] for i in range(n)]
    count = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    power = adj
    for level in range(1, n):
        hit = False
        for i in range(n):
            for j in range(n):
                if dist[i][j] < 0 and power[i][j]:
                    dist[i][j] = level
                    count[i][j] = power[i][j]
                    hit = True
        if not hit and level > 1:
            break
        power = _matmul(power, adj)
    return dist, count


@lru_cache(maxsize=None)
def all_geodesics(g: Graph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every geodesic from u to v as a vertex tuple, by exhaustive DFS.

    Memoized per (graph, u, v): callers share the list and must not modify it.
    """
    dist, _ = matrix_geodesics(g)
    target = dist[u][v]
    if target < 0:
        return []
    paths: list[tuple[int, ...]] = []

    def walk(prefix: list[int], here: int) -> None:
        if here == v:
            paths.append(tuple(prefix))
            return
        for w in g.neighbors(here):
            if dist[u][w] == len(prefix) and dist[w][v] == target - len(prefix):
                prefix.append(w)
                walk(prefix, w)
                prefix.pop()

    walk([u], u)
    return paths


def enumerated_dependency(g: Graph, u: int, v: int, x: int) -> Fraction:
    paths = all_geodesics(g, u, v)
    through = sum(1 for p in paths if x in p[1:-1])
    return Fraction(through, len(paths))


def enumerated_betweenness(g: Graph) -> tuple[Fraction, ...]:
    """Betweenness over unordered pairs, one geodesic at a time."""
    n = g.vertex_count
    acc = [Fraction(0)] * n
    for u in range(n):
        for v in range(u + 1, n):
            paths = all_geodesics(g, u, v)
            share = Fraction(1, len(paths))
            for p in paths:
                for x in p[1:-1]:
                    acc[x] += share
    return tuple(acc)
