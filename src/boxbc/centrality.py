"""Exact betweenness centrality of a materialized graph.

Betweenness sums pair dependencies over unordered vertex pairs, so the whole
vector of a graph obeys ``sum(B) == W - C(n, 2)`` exactly.  The two routes
share one forward search, :func:`boxbc.graph.breadth_first`, and differ in
accumulation: the definitional triple loop sums pair dependencies over the
memoized geodesic tables, and Brandes-style accumulation sweeps each source's
search backwards in integers: ``C(w) = L/sigma(w) + sum of C(y)`` over the
children ``y`` of ``w`` with ``L = lcm(sigma)``, so the dependency of ``w`` is
``(sigma(w)*C(w) - L) / L``; the sum over sources counts each pair twice and
is halved.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .geodesic import all_pairs_tables
from .graph import Graph, GraphError, breadth_first, require_connected
from .report import CentralityReport

METHODS = ("definitional", "brandes")
ZERO = Fraction(0)


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
        dist, sigma, order = breadth_first(adjacency, s)
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
