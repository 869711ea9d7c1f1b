"""Tests of the benchmark's output checker against real ``boxbc`` output.

Run with ``python3 -m pytest perfbench/test_check.py`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import graphs
from check import Checker
from workloads import ProductExpect, WienerExpect, _Builder, write_inputs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from boxbc.cli import main as boxbc_main  # noqa: E402


def _small_workload():
    b = _Builder("test", 7)
    p3, p4, k3 = b.fixed("path", 3), b.fixed("path", 4), b.fixed("complete", 3)
    r5 = b.random_factor("rand5", 5, 2)
    b.bc_factors("P3xR5", [p3, r5])
    b.bc_factors("P3xR5", [p3, r5], "json", coords=True)
    b.bc_product_file("P3xR5", [p3, r5])
    b.bc_factors("K3^2", [k3, k3], "json", method="factorized", output="out.json", vt=True)
    b.bc_closed_form("hamming", (3, 4), [graphs.complete(3), graphs.complete(4)])
    b.bc_closed_form("grid", (3, 4), [graphs.path(3), graphs.path(4)], fmt="json")
    b.add("wiener", ["wiener", "--factors", f"{p4[0]},{r5[0]}"], "wiener",
          WienerExpect(graphs.product_wiener([p4[1], r5[1]])))
    b.add("product", ["product", p4[0], r5[0], p3[0]], "edges",
          ProductExpect((p4[1], r5[1], p3[1])))
    return b.build()


@pytest.fixture()
def outputs(tmp_path, monkeypatch):
    """Each request of the small workload with the text ``boxbc`` printed for it."""
    workload = _small_workload()
    write_inputs(workload, tmp_path)
    monkeypatch.chdir(tmp_path)
    result = []
    for request in workload.requests:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = boxbc_main(list(request.argv))
        assert code == 0
        text = (tmp_path / request.output).read_text() if request.output else stdout.getvalue()
        result.append((request, text))
    return result


def test_real_outputs_pass(outputs):
    checker = Checker()
    for request, text in outputs:
        assert checker.check(request, 0, text) is None, request.argv


def _add_one_over_den(request, text: str) -> str:
    """The same report with ``1/den`` added to its first non-zero value."""
    if request.fmt == "json":
        payload = json.loads(text)
        entry = next(e for e in payload["values"] if e["num"])
        entry["num"] += 1
        return json.dumps(payload)
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        label, exact, decimal = line.rsplit(",", 2)
        num, den = exact.split("/")
        if num != "0":
            lines[i] = f"{label},{int(num) + 1}/{den},{decimal}"
            return "".join(lines)
    raise AssertionError("no non-zero value")


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 5])
def test_value_off_by_one_over_den_is_caught(outputs, index):
    request, text = outputs[index]
    assert Checker().check(request, 0, _add_one_over_den(request, text)) is not None


def test_swapped_values_are_caught_across_requests(outputs):
    (first, text), (third, third_text) = outputs[0], outputs[2]
    lines = third_text.splitlines(keepends=True)
    values = [line.split(",", 1)[1] for line in lines[1:]]
    i = next(k for k in range(1, len(values)) if values[k] != values[0])
    values[0], values[i] = values[i], values[0]
    swapped = lines[0] + "".join(f"{k},{v}" for k, v in enumerate(values))
    assert Checker().check(third, 0, swapped) is None  # the sum identity alone cannot see a swap
    checker = Checker()
    assert checker.check(first, 0, text) is None
    assert checker.check(third, 0, swapped) is not None


def test_asymmetric_grid_closed_form_is_caught(outputs):
    grid, grid_text = outputs[5]
    payload = json.loads(grid_text)
    values = payload["values"]
    values[1]["num"], values[1]["den"], values[5]["num"], values[5]["den"] = (
        values[5]["num"], values[5]["den"], values[1]["num"], values[1]["den"])
    assert values[1] != values[5]
    assert Checker().check(grid, 0, json.dumps(payload)) is not None


def test_wiener_product_and_exit_code_are_checked(outputs):
    wiener, wiener_text = outputs[6]
    product, product_text = outputs[7]
    assert Checker().check(wiener, 0, f"{int(wiener_text) + 1}\n") is not None
    lines = product_text.splitlines(keepends=True)
    moved = lines[:-1] + [f"0 {product.expect.n - 1}\n"]
    assert Checker().check(product, 0, "".join(lines[:-1])) is not None
    assert Checker().check(product, 0, "".join(moved)) is not None
    assert Checker().check(wiener, 1, wiener_text) is not None
