"""Plain-text edge lists.

Format: an optional header line ``n <count>``, then one ``u v`` pair per line
with whitespace-separated non-negative integer ids.  Lines starting with ``#``
are ignored.  Without a header the vertex count is the largest id plus one.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .graph import Graph, GraphError, graph_from_edges

if TYPE_CHECKING:
    from .product import ProductSpec


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


def load_graph(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def save_graph(path: str | Path, g: Graph) -> None:
    Path(path).write_text(format_edge_list(g), encoding="utf-8")
