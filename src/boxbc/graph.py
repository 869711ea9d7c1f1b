"""Immutable simple undirected graphs and the geodesic quantities read from them.

Vertex ids are dense integers.  :func:`breadth_first` is the one search that
counts geodesics; a :class:`GeodesicTable` holds one source's distances and
shortest-path counts, plain integers that stay exact however large.  The
Wiener index comes from a bit-parallel BFS from all sources and builds no table.
A graph's text form is an edge list: an optional header line ``n <count>``, then
one ``u v`` pair of non-negative integer ids per line; lines starting with ``#``
are ignored, and without a header the vertex count is the largest id plus one.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from os import PathLike
from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:
    from .product import ProductSpec


class Record:
    """Base class of immutable value objects, without :mod:`dataclasses`.

    Importing ``dataclasses`` also imports ``inspect`` and, through it,
    ``ast``, ``dis`` and ``tokenize``: several milliseconds on every
    command-line call, a large share of a fast request.

    A subclass lists its fields as annotations in its body; the constructor
    takes one value per field, in that order.  A subclass that needs
    keywords, defaults or checks defines ``__init__`` and passes the values
    on.  Two records are equal, and hash alike, when they have the same
    class and equal fields; ``repr`` shows ``Name(field=value, ...)``.
    Assigning or deleting an attribute raises :class:`AttributeError`.
    ``functools.cached_property`` still works, because it stores into the
    instance ``__dict__`` directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        # the fields' values (a bare value for a single field), compared and hashed
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *values: Any) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}({', '.join(self._fields)}) got {len(values)} values")
        self.__dict__.update(zip(self._fields, values))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


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
        if not is_vertex_id(v, len(self.adjacency)):
            raise GraphError(f"vertex id {v!r} out of range 0..{len(self.adjacency) - 1}")
        return v


def is_int(v: object) -> bool:
    """The type rule for vertex ids, coordinates, counts and family parameters: an ``int``, not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_vertex_id(v: object, count: int) -> bool:
    """The one rule for vertex ids and coordinates: :func:`is_int` and in ``0..count-1``."""
    return is_int(v) and 0 <= v < count


def graph_from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a canonical :class:`Graph` from an edge list.

    Rejects out-of-range ids, self-loops and duplicate edges.  Connectivity is
    not required here; analysis entry points check it separately.
    """
    if not is_int(vertex_count) or vertex_count < 0:
        raise GraphError(f"vertex count must be non-negative, got {vertex_count}")
    nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        for w in (u, v):
            if not is_vertex_id(w, vertex_count):
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
    dist, sigma, _ = breadth_first(g.adjacency, g.check_vertex(source))
    return GeodesicTable(source, tuple(dist), tuple(sigma))


def all_pairs_tables(g: Graph) -> tuple[GeodesicTable, ...]:
    """Geodesic tables for every source, memoized on the graph instance."""
    return g.geodesic_tables


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


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a validated :class:`Graph`.

    Ids must be dense: every id below the vertex count has to appear in some
    edge (single-vertex graphs excepted), otherwise the first gap is named.
    Range and density are decided from the ids alone, before anything sized
    by the vertex count is allocated, so a large header or id fails cheaply.
    """
    header: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None and not edges and fields[0] == "n":
            if len(fields) != 2:
                raise GraphError(f"line {lineno}: header must be 'n <count>', got {line!r}")
            header = _parse_id(fields[1], lineno)
            continue
        if len(fields) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        u = _parse_id(fields[0], lineno)
        v = _parse_id(fields[1], lineno)
        max_id = max(max_id, u, v)
        edges.append((u, v))
    vertex_count = header if header is not None else max_id + 1
    if max_id >= vertex_count:
        bad = next(w for edge in edges for w in edge if w >= vertex_count)
        raise GraphError(f"vertex id {bad} out of range 0..{vertex_count - 1}")
    used = {w for edge in edges for w in edge}
    if vertex_count > 1 and len(used) < vertex_count:
        gap = next(vid for vid in range(vertex_count) if vid not in used)
        raise GraphError(f"vertex ids are not dense: {gap} has no incident edge")
    return graph_from_edges(vertex_count, edges)


def _parse_id(token: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphError(f"line {lineno}: {token!r} is not an integer") from None
    if value < 0:
        raise GraphError(f"line {lineno}: negative id {value}")
    return value


def format_edge_list(g: Graph | ProductSpec) -> str:
    """Deterministic edge-list text: header plus edges sorted by endpoint ids.

    ``g`` is anything with ``vertex_count`` and ``edges()``, such as a
    :class:`Graph` or a :class:`~boxbc.product.ProductSpec`, whose edges
    stream from its factors.  The text grows in one buffer, never as a list
    of line strings.
    """
    text = bytearray(b"n %d\n" % g.vertex_count)
    for edge in g.edges():
        text += b"%d %d\n" % edge
    return text.decode()


def load_graph(path: str | PathLike[str]) -> Graph:
    with open(path, encoding="utf-8") as handle:
        return parse_edge_list(handle.read())


def save_graph(path: str | PathLike[str], g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_edge_list(g))
