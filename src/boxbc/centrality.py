"""Exact betweenness centrality of a materialized graph.

Betweenness sums pair dependencies over unordered vertex pairs, so the whole
vector of a graph obeys ``sum(B) == W - C(n, 2)`` exactly.  :func:`betweenness`
runs Brandes accumulation (Brandes 2001) over :func:`boxbc.graph.breadth_first`,
kept exact in integers.  :func:`_definitional`, the definition's triple loop
over the memoized geodesic tables, is the reference that ``verify`` and the
tests check it against.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .graph import Graph, all_pairs_tables, breadth_first, require_connected

ZERO = Fraction(0)


def betweenness(g: Graph) -> tuple[Fraction, ...]:
    """Exact betweenness of every vertex, over unordered pairs, in vertex-id order."""
    require_connected(g)
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


def _definitional(g: Graph) -> tuple[Fraction, ...]:
    """The reference :func:`betweenness` is checked against, on a connected ``g``."""
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
