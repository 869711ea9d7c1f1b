"""Centrality reports and their serialization.

CSV rows are ``vertex,betweenness,decimal`` where betweenness is the exact
``p/q`` string in lowest terms and decimal is a 12-significant-digit rendering
for human readers only, made in one module-level decimal context whatever the
caller's; verification always reconstructs from the exact field.
JSON carries ``{method, graph, values: [{vertex, num, den}]}``.  Uniform
closed-form reports use ``*`` as the vertex of their single row.  Callers may
supply their own vertex labels (coordinate tuples, say); labels containing
commas are quoted by the CSV layer.

A request writes one format, so ``csv`` and ``json`` are imported by the
functions that use them, not by every request.  ``decimal`` is imported at
the top: ``fractions`` has loaded it already.
"""

from __future__ import annotations

import io
import sys
from contextlib import contextmanager
from decimal import Context, Decimal
from fractions import Fraction
from typing import Sequence

from .graph import Record

UNIFORM_VERTEX = "*"
DECIMAL_DIGITS = 12
_DECIMAL = Context(prec=DECIMAL_DIGITS)


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


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: Fraction) -> str:
    return _DECIMAL.to_sci_string(_DECIMAL.divide(Decimal(value.numerator), Decimal(value.denominator)))


@contextmanager
def _uncapped_int_text():
    # Python 3.10.7+ converts no int of over 4,300 digits to or from text, and an exact value may be longer;
    # only the report writers, and verify reading back what they wrote, lift the cap
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _vertex_labels(report: CentralityReport, labels: Sequence[str] | None) -> Sequence[str | int]:
    if labels is not None:
        if report.uniform:
            raise ValueError("uniform reports carry a single '*' row, not labels")
        if len(labels) != len(report.values):
            raise ValueError(f"{len(labels)} labels for {len(report.values)} values")
        return list(labels)
    if report.uniform:
        return [UNIFORM_VERTEX]
    return range(len(report.values))


def report_to_csv(report: CentralityReport, labels: Sequence[str] | None = None) -> str:
    """The report as ``vertex,betweenness,decimal`` CSV rows under a header."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("vertex", "betweenness", "decimal"))
    with _uncapped_int_text():
        for label, value in zip(_vertex_labels(report, labels), report.values):
            writer.writerow([label, fraction_str(value), decimal_str(value)])
    return out.getvalue()


def report_to_json(report: CentralityReport, labels: Sequence[str] | None = None) -> str:
    """The report as an indented ``{method, graph, values: [{vertex, num, den}]}`` JSON object."""
    import json

    payload: dict = {
        "method": report.method,
        "graph": report.graph,
        "values": [
            {"vertex": label, "num": v.numerator, "den": v.denominator}
            for label, v in zip(_vertex_labels(report, labels), report.values)
        ],
    }
    if report.uniform:
        payload["uniform"] = True
    with _uncapped_int_text():
        return json.dumps(payload, indent=2) + "\n"
