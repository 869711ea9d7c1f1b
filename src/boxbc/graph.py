"""Immutable simple undirected graphs with dense integer vertex ids."""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from .record import Record

if TYPE_CHECKING:
    from .geodesic import GeodesicTable


class GraphError(ValueError):
    """Invalid graph input: bad vertex ids, self-loops, duplicate edges, bad parameters."""


class DisconnectedGraphError(GraphError):
    """An operation that needs a connected graph received a disconnected one."""


class Graph(Record):
    """Simple undirected graph on vertices ``0..n-1``.

    ``adjacency[v]`` is the sorted tuple of neighbours of ``v``.  Instances are
    immutable and hashable; build them through :func:`graph_from_edges` or the
    generators so the invariants (no loops, no duplicate edges, symmetric
    adjacency) hold.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    @cached_property
    def geodesic_tables(self) -> tuple[GeodesicTable, ...]:
        """One BFS table per source, built on first use; read it through ``all_pairs_tables``."""
        from .geodesic import bfs_geodesics  # imported here because geodesic imports this module

        return tuple(bfs_geodesics(self, s) for s in range(self.vertex_count))

    def degree(self, v: int) -> int:
        return len(self.adjacency[self.check_vertex(v)])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[self.check_vertex(v)]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    def check_vertex(self, v: int) -> int:
        """Return ``v`` if it is a valid vertex id, else raise :class:`GraphError`."""
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < len(self.adjacency):
            raise GraphError(f"vertex id {v!r} out of range 0..{len(self.adjacency) - 1}")
        return v


def graph_from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a canonical :class:`Graph` from an edge list.

    Rejects out-of-range ids, self-loops and duplicate edges.  Connectivity is
    not required here; analysis entry points check it separately.
    """
    if vertex_count < 0:
        raise GraphError(f"vertex count must be non-negative, got {vertex_count}")
    nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        for w in (u, v):
            if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < vertex_count:
                raise GraphError(f"vertex id {w!r} out of range 0..{vertex_count - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if v in nbrs[u]:
            raise GraphError(f"duplicate edge ({u}, {v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(tuple(tuple(sorted(s)) for s in nbrs))


def breadth_first(adjacency: tuple[tuple[int, ...], ...], source: int) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from ``source``: ``(dist, sigma, order)``.

    The one search that counts geodesics: ``sigma[w]`` sums ``sigma`` over the
    neighbours of ``w`` one level nearer the source.  Unreached vertices keep
    ``dist`` -1 and ``sigma`` 0; ``order`` lists each reached vertex once, in
    visiting order, so ``dist`` never decreases along it.
    """
    dist = [-1] * len(adjacency)
    sigma = [0] * len(adjacency)
    dist[source] = 0
    sigma[source] = 1
    order = [source]
    for v in order:
        dv = dist[v] + 1
        sv = sigma[v]
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dv
                order.append(w)
            if dist[w] == dv:
                sigma[w] += sv
    return dist, sigma, order


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (vacuously for n <= 1)."""
    n = g.vertex_count
    return n <= 1 or len(breadth_first(g.adjacency, 0)[2]) == n


def require_connected(g: Graph) -> Graph:
    """Return ``g`` unchanged, raising :class:`DisconnectedGraphError` if disconnected."""
    if not is_connected(g):
        raise DisconnectedGraphError(
            f"graph with {g.vertex_count} vertices and {g.edge_count} edges is not connected"
        )
    return g
