"""Output checker: every request's output is verified before it counts as correct.

A ``bc`` report must have one row per vertex (or the single ``*`` row of a
uniform closed form) with exact values in lowest terms that satisfy
``sum(B) == W - C(n, 2)``, with ``W`` computed by the benchmark from the
factors.  Vertex-transitive instances must carry one value everywhere, which
then equals the closed form ``(W - C(n, 2)) / n``; grid closed forms must be
symmetric under both reflections.  ``wiener`` must print ``W``; ``product``
must print exactly the product's edge set.  Requests for the same instance
must agree value for value.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb, gcd

import graphs
from workloads import BcExpect, ProductExpect, Request, WienerExpect


class OutputError(Exception):
    pass


def _fraction(num: int, den: int) -> Fraction:
    if den <= 0 or gcd(num, den) != 1:
        raise OutputError(f"{num}/{den} is not in lowest terms with a positive denominator")
    return Fraction(num, den)


def _parse_csv(text: str) -> tuple[list[str], list[Fraction]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["vertex", "betweenness", "decimal"]:
        raise OutputError("missing 'vertex,betweenness,decimal' header")
    labels, values = [], []
    for row in rows[1:]:
        if len(row) != 3:
            raise OutputError(f"expected 3 fields, got {row!r}")
        num, slash, den = row[1].partition("/")
        if not slash:
            raise OutputError(f"expected an exact 'p/q' value, got {row[1]!r}")
        labels.append(row[0])
        values.append(_fraction(int(num), int(den)))
    return labels, values


def _parse_json(text: str) -> tuple[list[str], list[Fraction]]:
    payload = json.loads(text)
    entries = payload["values"]
    labels = [str(e["vertex"]) for e in entries]
    values = [_fraction(e["num"], e["den"]) for e in entries]
    return labels, values


def _check_bc(expect: BcExpect, fmt: str, text: str) -> tuple[Fraction, ...]:
    labels, values = _parse_csv(text) if fmt == "csv" else _parse_json(text)
    want_labels = list(expect.labels) if expect.labels is not None else [str(i) for i in range(expect.n)]
    if labels != want_labels:
        raise OutputError(f"{len(labels)} rows with unexpected labels; want {len(want_labels)} rows")
    excess = expect.wiener - comb(expect.n, 2)
    if want_labels == ["*"]:
        if values[0] * expect.n != excess:
            raise OutputError(f"uniform value {values[0]} differs from (W - C(n,2))/n = {Fraction(excess, expect.n)}")
        return tuple(values)
    if sum(values) != excess:
        raise OutputError(f"values sum to {sum(values)}, not W - C(n,2) = {excess}")
    if expect.vertex_transitive and len(set(values)) != 1:
        raise OutputError("a vertex-transitive product got differing values")
    if expect.grid is not None:
        m, n = expect.grid
        for a in range(m):
            for b in range(n):
                v = values[a * n + b]
                if v != values[(m - 1 - a) * n + b] or v != values[a * n + (n - 1 - b)]:
                    raise OutputError(f"grid values are not symmetric at ({a}, {b})")
    return tuple(values)


def _check_edges(expect: ProductExpect, text: str, cache: dict) -> None:
    lines = text.splitlines()
    if not lines or lines[0] != f"n {expect.n}":
        raise OutputError(f"header {lines[:1]!r} differs from 'n {expect.n}'")
    edges = [tuple(map(int, line.split())) for line in lines[1:]]
    if len(edges) != expect.edge_count:
        raise OutputError(f"{len(edges)} edges, expected {expect.edge_count}")
    want = cache.get(expect)
    if want is None:
        want = cache[expect] = frozenset(graphs.product_edges(expect.factors))
    if set(edges) != want:
        raise OutputError("edge set differs from the product of the factors")


class Checker:
    """Checks outputs and remembers each instance's first values for cross-request agreement."""

    def __init__(self) -> None:
        self._seen: dict[str, object] = {}
        self._edge_sets: dict = {}

    def check(self, request: Request, returncode: int, text: str) -> str | None:
        """``None`` when the output is correct, otherwise the reason it is not."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            expect = request.expect
            if isinstance(expect, BcExpect):
                values = _check_bc(expect, request.fmt, text)
            elif isinstance(expect, WienerExpect):
                if text != f"{expect.value}\n":
                    raise OutputError(f"printed {text.strip()[:40]!r}, expected {expect.value}")
                values = expect.value
            else:
                _check_edges(expect, text, self._edge_sets)
                values = None
        except (OutputError, ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        first = self._seen.setdefault(request.instance, values)
        if first != values:
            return f"values differ from an earlier request for {request.instance}"
        return None
