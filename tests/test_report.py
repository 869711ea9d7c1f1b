from __future__ import annotations

from fractions import Fraction

import pytest

from boxbc import CentralityReport, betweenness, grid, torus
from boxbc.report import (
    MAX_READ_DIGITS,
    decimal_str,
    fraction_str,
    parse_fraction,
    report_from_json,
    report_to_csv,
    report_to_json,
    values_from_csv,
)


def test_fraction_strings():
    assert fraction_str(Fraction(32, 3)) == "32/3"
    assert fraction_str(Fraction(5)) == "5/1"
    assert parse_fraction("32/3") == Fraction(32, 3)
    with pytest.raises(ValueError):
        parse_fraction("1.5")


def test_decimal_rendering():
    assert decimal_str(Fraction(4, 3)) == "1.33333333333"
    assert decimal_str(Fraction(5)) == "5"
    assert decimal_str(Fraction(1, 2)) == "0.5"


def test_csv_roundtrip_exact():
    report = CentralityReport("brandes", "grid(3, 3)", betweenness(grid(3, 3)))
    decoded = values_from_csv(report_to_csv(report))
    assert tuple(decoded[str(i)] for i in range(9)) == report.values


def test_csv_header_required():
    with pytest.raises(ValueError):
        values_from_csv("0,1/2,0.5\n")


def test_csv_coordinate_labels_quote_commas():
    report = CentralityReport("brandes", "torus(3, 3)", betweenness(torus(3, 3)))
    labels = [f"({i // 3}, {i % 3})" for i in range(9)]
    text = report_to_csv(report, labels)
    assert '"(0, 1)"' in text
    decoded = values_from_csv(text)
    assert decoded["(0, 1)"] == Fraction(2)


def test_uniform_report_row():
    report = CentralityReport("closed-form", "hypercube(3)", (Fraction(5, 2),), uniform=True)
    text = report_to_csv(report)
    assert text.splitlines()[1] == "*,5/2,2.5"
    assert values_from_csv(text)["*"] == Fraction(5, 2)


def test_labels_validation():
    report = CentralityReport("brandes", "grid(2, 2)", betweenness(grid(2, 2)))
    with pytest.raises(ValueError):
        report_to_csv(report, ["a", "b"])
    uniform = CentralityReport("closed-form", "g", (Fraction(1),), uniform=True)
    with pytest.raises(ValueError):
        report_to_csv(uniform, ["a"])


def test_json_roundtrip():
    report = CentralityReport("brandes", "grid(3, 3)", betweenness(grid(3, 3)))
    assert report_from_json(report_to_json(report)) == report
    uniform = CentralityReport("closed-form", "torus(3, 4)", (Fraction(9, 2),), uniform=True)
    text = report_to_json(uniform)
    assert '"uniform": true' in text
    assert report_from_json(text) == uniform


def test_readers_refuse_an_integer_field_over_the_bound():
    longest = (10**MAX_READ_DIGITS - 1) // 9  # MAX_READ_DIGITS ones, built without int-to-text
    csv_text = "vertex,betweenness,decimal\n*,{}/1,0\n"
    json_text = '{{"method": "closed-form", "graph": "g", "values": [{{"vertex": "*", "num": {}, "den": 1}}]}}'
    within, over = "1" * MAX_READ_DIGITS, "1" * (MAX_READ_DIGITS + 1)
    assert values_from_csv(csv_text.format(within)) == {"*": longest}
    assert report_from_json(json_text.format(within)).values == (longest,)
    with pytest.raises(ValueError, match=f"over the {MAX_READ_DIGITS}"):
        values_from_csv(csv_text.format(over))
    with pytest.raises(ValueError, match=f"over the {MAX_READ_DIGITS}"):
        report_from_json(json_text.format(over))


CSV_HEADER = "vertex,betweenness,decimal\n"
ENTRY = '{"method": "brandes", "graph": "g", "values": [{"vertex": 0, %s}]}'


@pytest.mark.parametrize(
    "reader, text, match",
    [
        pytest.param(values_from_csv, CSV_HEADER + "0,1/0,x\n", "line 2:.* 1 over 0$", id="csv-zero-den"),
        pytest.param(values_from_csv, CSV_HEADER + "0,1/-2,x\n", "line 2:.* 1 over -2$", id="csv-negative-den"),
        pytest.param(values_from_csv, CSV_HEADER + "0,1/2\n", "line 2: expected 3 fields", id="csv-two-fields"),
        pytest.param(values_from_csv, CSV_HEADER + "0,1/2,0.5,x\n", "line 2: expected 3 fields", id="csv-four-fields"),
        pytest.param(report_from_json, ENTRY % '"num": 1.5, "den": 1', r"values\[0\]:.* 1.5 over 1$", id="json-float"),
        pytest.param(report_from_json, ENTRY % '"num": "1", "den": 1', r"values\[0\]:.* '1' over 1$", id="json-string"),
        pytest.param(report_from_json, ENTRY % '"num": true, "den": 1', r"values\[0\]:.* True over 1$", id="json-bool"),
        pytest.param(report_from_json, ENTRY % '"num": 1, "den": 0', r"values\[0\]:.* 1 over 0$", id="json-zero-den"),
        pytest.param(report_from_json, ENTRY % '"num": 1', r"values\[0\]:.* 1 over None$", id="json-missing-den"),
        pytest.param(report_from_json, "[1]", "expected an object", id="json-list-payload"),
    ],
)
def test_readers_refuse_a_malformed_report(reader, text, match):
    with pytest.raises(ValueError, match=match):
        reader(text)
