"""Exact betweenness centrality, Wiener index and average distance.

Betweenness sums pair dependencies over unordered vertex pairs, so the whole
vector of a graph obeys ``sum(B) == W - C(n, 2)`` exactly.  Two independent
routes are provided: the definitional triple loop over geodesic tables, and
Brandes-style per-source accumulation carried out on exact rationals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .geodesic import all_pairs_tables
from .graph import Graph, GraphError, require_connected

METHODS = ("definitional", "brandes")
ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class CentralityReport:
    """Per-vertex exact betweenness values plus method metadata.

    ``uniform`` marks closed-form results for vertex-transitive families,
    where a single value stands for every vertex.
    """

    method: str
    graph: str
    values: tuple[Fraction, ...]
    uniform: bool = False

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.values):
            raise ValueError("betweenness values cannot be negative")
        if self.uniform and len(self.values) != 1:
            raise ValueError("a uniform report carries exactly one value")


def betweenness(g: Graph, method: str = "brandes", descriptor: str | None = None) -> CentralityReport:
    """Exact betweenness of every vertex, over unordered pairs.

    ``method`` selects the computation route; both return identical values.
    """
    require_connected(g)
    if method == "definitional":
        values = _definitional(g)
    elif method == "brandes":
        values = _brandes(g)
    else:
        raise GraphError(f"unknown betweenness method {method!r}; expected one of {METHODS}")
    if descriptor is None:
        descriptor = f"graph(n={g.vertex_count}, m={g.edge_count})"
    return CentralityReport(method, descriptor, values)


def _definitional(g: Graph) -> tuple[Fraction, ...]:
    # B(x) = sum over pairs {u, v} of sigma(u,x)*sigma(x,v)/sigma(u,v),
    # restricted to x strictly between the endpoints.
    n = g.vertex_count
    tables = all_pairs_tables(g)
    acc = [ZERO] * n
    for u in range(n):
        du = tables[u].dist
        su = tables[u].sigma
        for v in range(u + 1, n):
            dv = tables[v].dist
            sv = tables[v].sigma
            duv = du[v]
            suv = su[v]
            for x in range(n):
                if x != u and x != v and du[x] + dv[x] == duv:
                    acc[x] += Fraction(su[x] * sv[x], suv)
    return tuple(acc)


def _brandes(g: Graph) -> tuple[Fraction, ...]:
    # Per-source dependency accumulation with exact rational deltas.  The
    # source loop counts every ordered pair, hence the final halving.
    n = g.vertex_count
    adjacency = g.adjacency
    acc = [ZERO] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        order: list[int] = []
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [ZERO] * n
        for w in reversed(order):
            coeff = (ONE + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                acc[w] += delta[w]
    return tuple(b / 2 for b in acc)


def wiener(g: Graph) -> int:
    """Sum of distances over all unordered vertex pairs."""
    require_connected(g)
    return sum(sum(t.dist) for t in all_pairs_tables(g)) // 2


def average_distance(g: Graph) -> Fraction:
    """Mean pairwise distance ``W(G) / C(n, 2)``; needs at least two vertices."""
    n = g.vertex_count
    if n < 2:
        raise GraphError("average distance needs at least two vertices")
    return Fraction(wiener(g), comb(n, 2))
