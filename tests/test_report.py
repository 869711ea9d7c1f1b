from __future__ import annotations

import random
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxbc import CentralityReport, betweenness, grid, torus
from boxbc.report import DECIMAL_DIGITS, _uncapped_int_text, decimal_str, fraction_str, report_to_csv, report_to_json
from oracles import csv_reference, csv_values, json_reference, json_report


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


# a numerator of 4,521 digits, past Python's 4,300-digit int-to-text cap
_LONG = Fraction(7 * 10**4520 + 1, 3)
# characters that csv quotes or leaves alone, json escapes or leaves alone
_LABEL_CHARS = st.sampled_from([",", '"', "\n", "\r", "\\", "\t", "\x7f", "é", "\U0001f600", "*", " ", "a", "0"])
_texts = st.text(_LABEL_CHARS | st.characters(), max_size=6)


@st.composite
def _reports(draw) -> tuple[CentralityReport, list[str] | None]:
    """A report and its labels (None for ids): rows share value objects drawn from a small pool."""
    method, graph = draw(_texts), draw(_texts)
    if draw(st.booleans()):
        value = draw(st.fractions(min_value=0) | st.just(_LONG))
        return CentralityReport(method, graph, (value,), uniform=True), None
    pool = draw(st.lists(st.fractions(min_value=0, max_denominator=10**6) | st.just(_LONG), min_size=1, max_size=4))
    values = tuple(draw(st.lists(st.sampled_from(pool), max_size=12)))
    labels = draw(st.none() | st.lists(_texts | st.just("*") | st.just(""), min_size=len(values), max_size=len(values)))
    return CentralityReport(method, graph, values), labels


@given(_reports())
@settings(max_examples=300)
def test_writers_match_the_csv_and_json_modules(case):
    report, labels = case
    assert report_to_csv(report, labels) == csv_reference(report, labels)
    assert report_to_json(report, labels) == json_reference(report, labels)


@pytest.mark.parametrize("uniform", [False, True])
def test_writers_match_the_csv_and_json_modules_past_the_int_digit_cap(uniform):
    report = CentralityReport("closed-form", "big", (_LONG,) if uniform else (_LONG, Fraction(1, 2), _LONG), uniform)
    assert report_to_csv(report) == csv_reference(report)
    assert report_to_json(report) == json_reference(report)


def test_empty_report():
    report = CentralityReport("brandes", "empty", ())
    assert report_to_csv(report) == csv_reference(report) == "vertex,betweenness,decimal\n"
    assert report_to_json(report) == json_reference(report)
    assert '"values": []' in report_to_json(report)


def test_negative_value_is_refused_when_shared_and_last_distinct():
    # the one negative value is a single object on several rows, first met after every other distinct value
    half, one, negative = Fraction(1, 2), Fraction(1), Fraction(-1, 3)
    with pytest.raises(ValueError, match="cannot be negative"):
        CentralityReport("brandes", "g", (half, one, half, negative, one, negative, negative))

