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

from .graph import Record, is_int

UNIFORM_VERTEX = "*"
_CSV_HEADER = ("vertex", "betweenness", "decimal")
DECIMAL_DIGITS = 12
_DECIMAL = Context(prec=DECIMAL_DIGITS)
# the longest integer field a reader converts: int() of text is quadratic in its length (0.1 s here)
MAX_READ_DIGITS = 100_000


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


def _read_int(text: str) -> int:
    if len(text) > MAX_READ_DIGITS:
        raise ValueError(f"integer field of {len(text)} characters, over the {MAX_READ_DIGITS} a reader takes")
    return int(text)


def _fraction(num: object, den: object, where: str) -> Fraction:
    # a bool is no int here (is_int), and a report writes every value over a denominator of at least 1
    if not (is_int(num) and is_int(den) and den >= 1):
        raise ValueError(f"{where}: expected an integer over an integer of at least 1, got {num!r} over {den!r}")
    return Fraction(num, den)


def parse_fraction(text: str, where: str = "fraction") -> Fraction:
    num, _, den = text.partition("/")
    # checked first: int() also takes signs, spaces, underscores and non-ASCII digits, none of which a report writes
    if not (text.isascii() and num.isdigit() and den.isdigit()):
        raise ValueError(f"{where}: expected 'p/q' in ASCII digits, got {text!r}")
    return _fraction(_read_int(num), _read_int(den), where)


def decimal_str(value: Fraction) -> str:
    return _DECIMAL.to_sci_string(_DECIMAL.divide(Decimal(value.numerator), Decimal(value.denominator)))


@contextmanager
def _uncapped_int_text():
    # Python 3.10.7+ converts no int of over 4,300 digits to or from text, and an exact value may be longer;
    # only report writers and readers (which bound a field by MAX_READ_DIGITS) lift the cap
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
    writer.writerow(_CSV_HEADER)
    with _uncapped_int_text():
        for label, value in zip(_vertex_labels(report, labels), report.values):
            writer.writerow([label, fraction_str(value), decimal_str(value)])
    return out.getvalue()


def values_from_csv(text: str) -> dict[str, Fraction]:
    """Exact values keyed by vertex label; the decimal column is ignored.

    A header other than ``vertex,betweenness,decimal``, a row not of three fields, a vertex given twice, or a value
    not ``p/q`` in ASCII digits with ``q >= 1`` raises ``ValueError`` naming its line; so does a field over
    ``MAX_READ_DIGITS`` characters, unconverted.
    """
    import csv

    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    line, header = rows[0] if rows else (1, [])
    if tuple(header) != _CSV_HEADER:
        raise ValueError(f"line {line}: expected the header {','.join(_CSV_HEADER)!r}, got {','.join(header)!r}")
    values, lines = {}, {}
    with _uncapped_int_text():
        for line, row in rows[1:]:
            if len(row) != 3:
                raise ValueError(f"line {line}: expected 3 fields 'vertex,betweenness,decimal', got {len(row)}")
            if row[0] in lines:
                raise ValueError(f"line {line}: vertex {row[0]!r} already given on line {lines[row[0]]}")
            lines[row[0]] = line
            values[row[0]] = parse_fraction(row[1], f"line {line}")
    return values


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


def report_from_json(text: str) -> CentralityReport:
    """The report in *text*.

    A malformed payload raises ``ValueError``, naming the entry whose ``num`` or ``den`` is not an int (a bool is
    not) or whose ``den`` is below 1, a ``method`` or ``graph`` that is not a string, or a ``uniform`` that is not a
    JSON boolean; so does an integer over ``MAX_READ_DIGITS`` characters, unconverted.
    """
    import json

    with _uncapped_int_text():
        payload = json.loads(text, parse_int=_read_int)
        entries = payload.get("values") if isinstance(payload, dict) and {"method", "graph"} <= payload.keys() else None
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise ValueError("expected an object with 'method', 'graph' and a 'values' list of objects")
        method, graph, uniform = payload["method"], payload["graph"], payload.get("uniform", False)
        if not (isinstance(method, str) and isinstance(graph, str)):
            raise ValueError(f"method, graph: expected two strings, got {method!r} and {graph!r}")
        if not isinstance(uniform, bool):
            raise ValueError(f"uniform: expected true or false, got {uniform!r}")
        values = tuple(_fraction(entry.get("num"), entry.get("den"), f"values[{i}]") for i, entry in enumerate(entries))
    return CentralityReport(method=method, graph=graph, values=values, uniform=uniform)
