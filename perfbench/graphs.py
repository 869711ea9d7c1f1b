"""Benchmark-side graphs: seeded factors, product composition and Wiener sums.

Everything here is written independently of ``boxbc`` so that the expected
values the checker compares against do not come from the program under test.
Product vertex ids follow the same row-major mixed-radix labeling as
``boxbc.product`` (the last coordinate varies fastest), so a product edge list
written here and the product ``boxbc`` composes from the factor files label
their vertices identically.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on ``0..n-1``; ``edges`` holds sorted ``(u, v)`` with ``u < v``."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def make_graph(n: int, edges) -> Graph:
    edges = list(edges)
    canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
    if len(canon) != len(edges) or any(u == v or not 0 <= u < v < n for u, v in canon):
        raise ValueError("edges must be distinct, loop-free and inside 0..n-1")
    return Graph(n, tuple(canon))


def path(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return make_graph(n, list(combinations(range(n), 2)))


def star(leaves: int) -> Graph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def relabel(g: Graph, rng: random.Random) -> Graph:
    """The same graph under a seeded permutation of its vertex ids."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_connected(n: int, extra: int, rng: random.Random) -> Graph:
    """A random spanning tree on ``n`` vertices plus ``extra`` random non-tree edges.

    Vertex and edge counts are fixed by the arguments, so only the shape
    depends on the seed.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    missing = [e for e in combinations(range(n), 2) if e not in edges]
    if extra > len(missing):
        raise ValueError(f"cannot add {extra} edges to a tree on {n} vertices")
    edges.update(rng.sample(missing, extra))
    return make_graph(n, edges)


def edge_list_text(g: Graph) -> str:
    """``boxbc`` edge-list format: an ``n`` header, then one ``u v`` line per edge."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def product_vertex_count(factors) -> int:
    count = 1
    for f in factors:
        count *= f.n
    return count


def product_edge_count(factors) -> int:
    """``sum_i m_i * prod_{j != i} n_j``."""
    total = product_vertex_count(factors)
    return sum(len(f.edges) * (total // f.n) for f in factors)


def product_edges(factors) -> list[tuple[int, int]]:
    """Edges of the Cartesian product under the row-major mixed-radix labeling, sorted."""
    radices = [f.n for f in factors]
    strides = [1] * len(factors)
    for i in range(len(factors) - 2, -1, -1):
        strides[i] = strides[i + 1] * radices[i + 1]
    total = product_vertex_count(factors)
    edges = []
    for i, f in enumerate(factors):
        stride = strides[i]
        block = stride * radices[i]
        for a, b in f.edges:
            delta = (b - a) * stride
            for base in range(a * stride, total, block):
                edges.extend((v, v + delta) for v in range(base, base + stride))
    edges.sort()
    return edges


def product_graph(factors) -> Graph:
    return Graph(product_vertex_count(factors), tuple(product_edges(factors)))


def coordinate_labels(factors) -> list[str]:
    """Vertex labels as ``boxbc bc --labels coords`` prints them, in vertex-id order."""
    labels = [()]
    for f in factors:
        labels = [c + (x,) for c in labels for x in range(f.n)]
    return [str(c) for c in labels]


def wiener(g: Graph) -> int:
    """Sum of BFS distances over unordered pairs; ``g`` must be connected."""
    adj = g.adjacency()
    total = 0
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if min(dist) < 0:
            raise ValueError("graph is not connected")
        total += sum(dist)
    return total // 2


def product_wiener(factors) -> int:
    """``sum_i W(G_i) * prod_{j != i} n_j^2``: distances add across factors."""
    total = product_vertex_count(factors)
    return sum(wiener(f) * (total // f.n) ** 2 for f in factors)
