"""Independent reference computations for the test suite.

The oracles share no code with the library: distances and geodesic counts
come from integer powers of the adjacency matrix, dependencies and
betweenness from exhaustive enumeration of every geodesic.  Slow on
purpose; use small graphs.  Reports are read back, and written for
comparison, with ``csv``, ``json`` and ``decimal`` alone, under the writers'
lifted int-digit cap.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from boxbc import CentralityReport, Graph
from boxbc.report import _uncapped_int_text


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


def csv_values(text: str) -> dict[str, Fraction]:
    """Exact values of a CSV report keyed by vertex label; the decimal column is ignored."""
    header, *rows = csv.reader(io.StringIO(text))
    if header != ["vertex", "betweenness", "decimal"]:
        raise ValueError(f"not a report header: {header!r}")
    with _uncapped_int_text():
        return {label: Fraction(exact) for label, exact, _ in rows}


def json_report(text: str) -> CentralityReport:
    with _uncapped_int_text():
        payload = json.loads(text)
    values = tuple(Fraction(entry["num"], entry["den"]) for entry in payload["values"])
    return CentralityReport(payload["method"], payload["graph"], values, payload.get("uniform", False))


def _reference_labels(report: CentralityReport, labels) -> list:
    return list(labels) if labels is not None else ["*"] if report.uniform else list(range(len(report.values)))


def csv_reference(report: CentralityReport, labels=None) -> str:
    """The CSV report as ``csv.writer`` writes its rows, decimals from a 12-digit ``Decimal`` division."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("vertex", "betweenness", "decimal"))
    with _uncapped_int_text(), localcontext() as ctx:
        ctx.prec = 12
        for label, v in zip(_reference_labels(report, labels), report.values):
            decimal = Decimal(v.numerator) / Decimal(v.denominator)
            writer.writerow([label, f"{v.numerator}/{v.denominator}", str(decimal)])
    return out.getvalue()


def json_reference(report: CentralityReport, labels=None) -> str:
    """The JSON report as ``json.dumps(payload, indent=2)`` writes it, and a newline."""
    payload: dict = {
        "method": report.method,
        "graph": report.graph,
        "values": [
            {"vertex": label, "num": v.numerator, "den": v.denominator}
            for label, v in zip(_reference_labels(report, labels), report.values)
        ],
    }
    if report.uniform:
        payload["uniform"] = True
    with _uncapped_int_text():
        return json.dumps(payload, indent=2) + "\n"
