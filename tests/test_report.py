from __future__ import annotations

import random
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction

import pytest

from boxbc import CentralityReport, betweenness, grid, torus
from boxbc.report import DECIMAL_DIGITS, _uncapped_int_text, decimal_str, fraction_str, report_to_csv, report_to_json
from oracles import csv_values, json_report


def test_fraction_strings():
    assert fraction_str(Fraction(32, 3)) == "32/3"
    assert fraction_str(Fraction(5)) == "5/1"


def test_decimal_rendering():
    assert decimal_str(Fraction(4, 3)) == "1.33333333333"
    assert decimal_str(Fraction(5)) == "5"
    assert decimal_str(Fraction(1, 2)) == "0.5"


def test_decimal_column_is_decimal_division_in_a_12_digit_context():
    rng = random.Random(29)
    values = [Fraction(rng.randrange(10 ** rng.randrange(1, 40)), rng.randrange(1, 10 ** rng.randrange(1, 40)))
              for _ in range(2000)]
    # exponent forms both ways, and a numerator past Python's 4,300-digit int-to-text cap
    values += [Fraction(10**20, 3), Fraction(1, 10**20), Fraction(7 * 10**5000 + 1, 3)]
    with _uncapped_int_text(), localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        for value in values:
            assert decimal_str(value) == str(Decimal(value.numerator) / Decimal(value.denominator))
    assert decimal_str(Fraction(10**20, 3)) == "3.33333333333E+19"
    assert decimal_str(Fraction(1, 10**20)) == "1E-20"


def test_decimal_column_ignores_the_callers_decimal_context():
    values = (Fraction(2, 3), Fraction(10**20, 3), Fraction(1, 10**20))
    with localcontext() as ctx:
        ctx.rounding, ctx.prec, ctx.capitals = ROUND_DOWN, 3, 0
        assert [decimal_str(v) for v in values] == ["0.666666666667", "3.33333333333E+19", "1E-20"]


def test_csv_roundtrip_exact():
    report = CentralityReport("brandes", "grid(3, 3)", betweenness(grid(3, 3)))
    decoded = csv_values(report_to_csv(report))
    assert tuple(decoded[str(i)] for i in range(9)) == report.values


def test_csv_header_required():
    with pytest.raises(ValueError):
        csv_values("0,1/2,0.5\n")


def test_csv_coordinate_labels_quote_commas():
    report = CentralityReport("brandes", "torus(3, 3)", betweenness(torus(3, 3)))
    labels = [f"({i // 3}, {i % 3})" for i in range(9)]
    text = report_to_csv(report, labels)
    assert '"(0, 1)"' in text
    decoded = csv_values(text)
    assert decoded["(0, 1)"] == Fraction(2)


def test_uniform_report_row():
    report = CentralityReport("closed-form", "hypercube(3)", (Fraction(5, 2),), uniform=True)
    text = report_to_csv(report)
    assert text.splitlines()[1] == "*,5/2,2.5"
    assert csv_values(text)["*"] == Fraction(5, 2)


def test_labels_validation():
    report = CentralityReport("brandes", "grid(2, 2)", betweenness(grid(2, 2)))
    with pytest.raises(ValueError):
        report_to_csv(report, ["a", "b"])
    uniform = CentralityReport("closed-form", "g", (Fraction(1),), uniform=True)
    with pytest.raises(ValueError):
        report_to_csv(uniform, ["a"])


def test_json_roundtrip():
    report = CentralityReport("brandes", "grid(3, 3)", betweenness(grid(3, 3)))
    assert json_report(report_to_json(report)) == report
    uniform = CentralityReport("closed-form", "torus(3, 4)", (Fraction(9, 2),), uniform=True)
    text = report_to_json(uniform)
    assert '"uniform": true' in text
    assert json_report(text) == uniform
