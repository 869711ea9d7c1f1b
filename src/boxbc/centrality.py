"""Exact betweenness centrality, Wiener index and average distance.

Betweenness sums pair dependencies over unordered vertex pairs, so the whole
vector of a graph obeys ``sum(B) == W - C(n, 2)`` exactly.  Two independent
routes are provided: the definitional triple loop over geodesic tables, and
Brandes-style per-source accumulation.  The accumulation runs in integers:
per source, ``C(w) = L/sigma(w) + sum of C(y)`` over the children ``y`` of
``w`` with ``L = lcm(sigma)``, so the dependency of ``w`` is
``(sigma(w)*C(w) - L) / L``; the sum over sources counts each pair twice and
is halved.  The Wiener index comes from a bit-parallel BFS from all sources
at once and builds no distance table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .geodesic import all_pairs_tables
from .graph import Graph, GraphError, require_connected
from .record import Record

METHODS = ("definitional", "brandes")
ZERO = Fraction(0)


class CentralityReport(Record):
    """Per-vertex exact betweenness values plus method metadata.

    ``uniform`` marks closed-form results for vertex-transitive families,
    where a single value stands for every vertex.
    """

    method: str
    graph: str
    values: tuple[Fraction, ...]
    uniform: bool

    def __init__(self, method: str, graph: str, values: tuple[Fraction, ...], uniform: bool = False) -> None:
        super().__init__(method, graph, values, uniform)
        if any(v < 0 for v in values):
            raise ValueError("betweenness values cannot be negative")
        if uniform and len(values) != 1:
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
    # Brandes accumulation kept exact in integers.  With c(w) = (1 + delta(w))
    # / sigma(w), the dependency recurrence becomes
    #     c(w) = 1/sigma(w) + sum of c(y) over the children y of w,
    # the children being the neighbours one level further from the source.
    # Scaled by L = lcm(sigma) (every sigma is at least 1 on the connected
    # graphs ``betweenness`` admits), C(w) = L/sigma(w) + sum C(y) is an
    # integer, and delta(w) = (sigma(w)*C(w) - L) / L.  Numerators are summed
    # per distinct L; the source loop counts every ordered pair, hence the
    # final halving.
    n = g.vertex_count
    adjacency = g.adjacency
    sums: dict[int, list[int]] = {}
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        order = [s]
        dist[s] = 0
        sigma[s] = 1
        for v in order:
            dv = dist[v] + 1
            sv = sigma[v]
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dv
                    order.append(w)
                if dist[w] == dv:
                    sigma[w] += sv
        scale = lcm(*sigma)
        row = sums.setdefault(scale, [0] * n)
        scaled = [0] * n
        for w in order[:0:-1]:
            dw = dist[w] + 1
            c = scale // sigma[w]
            for y in adjacency[w]:
                if dist[y] == dw:
                    c += scaled[y]
            scaled[w] = c
            row[w] += sigma[w] * c - scale
    return tuple(sum((Fraction(row[v], 2 * scale) for scale, row in sums.items()), ZERO) for v in range(n))


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
