from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from boxbc import cycle, format_edge_list, grid, hypercube, parse_edge_list
from boxbc.cli import main
from boxbc.report import values_from_csv
from boxbc.verify import CheckFailure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "4")
    assert code == 0
    assert out == "n 4\n0 1\n0 3\n1 2\n2 3\n"


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "q3.el"
    code, out, _ = run_cli(capsys, "gen", "hypercube", "3", "-o", str(target))
    assert code == 0
    assert out == ""
    assert parse_edge_list(target.read_text()) == hypercube(3)


def test_gen_bad_family(capsys):
    code, _, err = run_cli(capsys, "gen", "moebius", "4")
    assert code == 2
    assert "moebius" in err


def test_product_command(capsys, tmp_path):
    p3 = tmp_path / "p3.el"
    p3.write_text("n 3\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "product", str(p3), str(p3))
    assert code == 0
    assert parse_edge_list(out) == grid(3, 3)


def test_bc_file_brandes(capsys, tmp_path):
    el = tmp_path / "grid33.el"
    el.write_text(format_edge_list(grid(3, 3)))
    code, out, _ = run_cli(capsys, "bc", str(el))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex,betweenness,decimal"
    assert lines[1].startswith("0,4/3,")
    assert lines[5].startswith("4,32/3,")


def test_bc_closed_form_uniform(capsys):
    code, out, _ = run_cli(capsys, "bc", "--family", "hypercube", "3", "--method", "closed-form")
    assert code == 0
    assert out.splitlines()[1] == "*,5/2,2.5"


def test_bc_closed_form_grid_positions(capsys):
    code, out, _ = run_cli(capsys, "bc", "--family", "grid", "3", "3", "--method", "closed-form")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 9
    assert rows[4].startswith("4,32/3,")


@pytest.mark.parametrize(
    "family",
    [
        ["hypercube", "3"],
        ["hamming", "2", "3"],
        ["torus", "3", "3"],
        ["torus", "4", "4"],
        ["torus", "3", "4"],
        ["cycle", "5"],
        ["cycle", "6"],
        ["complete", "4"],
        ["complete", "1"],
        ["path", "5"],
        ["path", "1"],
        ["grid", "3", "4"],
    ],
    ids=" ".join,
)
def test_bc_closed_form_matches_brandes(capsys, family):
    outputs = {}
    for method in ("closed-form", "brandes"):
        code, out, err = run_cli(capsys, "bc", "--family", *family, "--method", method)
        assert code == 0, err
        outputs[method] = values_from_csv(out)
    closed, brandes = outputs["closed-form"], outputs["brandes"]
    if "*" in closed:
        assert list(closed) == ["*"]
        assert set(brandes.values()) == {closed["*"]}
    else:
        assert closed == brandes


@pytest.mark.parametrize(
    "family, message",
    [
        (["torus", "3"], "family 'torus' takes 2 parameter(s), got 1"),
        (["hypercube"], "family 'hypercube' takes 1 parameter(s), got 0"),
        (["path", "2", "3"], "family 'path' takes 1 parameter(s), got 2"),
        (["path", "0"], "path needs at least 1 vertex, got 0"),
    ],
    ids=["torus 3", "hypercube", "path 2 3", "path 0"],
)
def test_bc_closed_form_checks_parameters(capsys, family, message):
    # the closed-form route reports bad parameters exactly as generating the family does
    code, out, err = run_cli(capsys, "bc", "--family", *family, "--method", "closed-form")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert run_cli(capsys, "gen", *family) == (2, "", f"error: {message}\n")


def test_bc_methods_agree_on_factors(capsys, tmp_path):
    k3 = tmp_path / "k3.el"
    k3.write_text("n 3\n0 1\n0 2\n1 2\n")
    spec = f"{k3},{k3}"
    outputs = {}
    for method in ("definitional", "brandes", "factorized"):
        code, out, _ = run_cli(capsys, "bc", "--factors", spec, "--method", method)
        assert code == 0
        outputs[method] = [line.rsplit(",", 1)[0] for line in out.splitlines()]
    assert outputs["definitional"] == outputs["brandes"] == outputs["factorized"]
    assert outputs["brandes"][1] == "0,2/1"


def test_bc_json_with_coordinate_labels(capsys):
    code, out, _ = run_cli(
        capsys, "bc", "--family", "torus", "3", "3", "--format", "json", "--labels", "coords"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "brandes"
    assert payload["values"][1] == {"vertex": "(0, 1)", "num": 2, "den": 1}


def test_bc_usage_errors(capsys, tmp_path):
    el = tmp_path / "c4.el"
    el.write_text(format_edge_list(cycle(4)))
    assert run_cli(capsys, "bc")[0] == 1
    assert run_cli(capsys, "bc", str(el), "--family", "cycle", "4")[0] == 1
    assert run_cli(capsys, "bc", str(el), "--method", "factorized")[0] == 1
    assert run_cli(capsys, "bc", str(el), "--method", "closed-form")[0] == 1
    assert run_cli(capsys, "bc", "--family", "cycle", "4", "--labels", "coords")[0] == 1
    assert run_cli(capsys, "bc", "--family", "star", "3", "--method", "closed-form")[0] == 2
    assert run_cli(capsys, "bc", str(tmp_path / "nope.el"))[0] == 2


def test_bc_rejects_disconnected(capsys, tmp_path):
    el = tmp_path / "split.el"
    el.write_text("0 1\n2 3\n")
    code, _, err = run_cli(capsys, "bc", str(el))
    assert code == 2
    assert "not connected" in err


def test_wiener_file_and_factors(capsys, tmp_path):
    c4 = tmp_path / "c4.el"
    c4.write_text(format_edge_list(cycle(4)))
    p3 = tmp_path / "p3.el"
    p3.write_text("n 3\n0 1\n1 2\n")
    assert run_cli(capsys, "wiener", str(c4)) == (0, "8\n", "")
    assert run_cli(capsys, "wiener", "--factors", f"{p3},{p3}") == (0, "72\n", "")
    assert run_cli(capsys, "wiener")[0] == 1
    assert run_cli(capsys, "wiener", str(c4), "--factors", f"{p3},{p3}")[0] == 1


def test_verify_prints_check_seconds(capsys, monkeypatch):
    def fine() -> str:
        return "fine"

    checks = [("cli", "first", fine), ("core", "other", fine), ("cli", "second", fine)]
    monkeypatch.setattr("boxbc.verify._CHECKS", checks)
    code, out, _ = run_cli(capsys, "verify", "--scope", "cli")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 3
    for line, name in zip(lines, ("first", "second")):
        assert re.fullmatch(rf"ok   \[cli\] {name}: fine \(\d+\.\d\d s\)", line), line
    assert lines[-1] == "2/2 checks passed"


def test_verify_failure_exits_3(capsys, monkeypatch):
    def broken() -> str:
        raise CheckFailure("counterexample")

    monkeypatch.setattr("boxbc.verify._CHECKS", [("cli", "broken", broken)])
    code, out, _ = run_cli(capsys, "verify")
    lines = out.splitlines()
    assert code == 3
    assert re.fullmatch(r"FAIL \[cli\] broken: counterexample \(\d+\.\d\d s\)", lines[0]), lines[0]
    assert lines[1:] == ["0/1 checks passed"]


def test_verify_rejects_unknown_scope(capsys):
    assert run_cli(capsys, "verify", "--scope", "everything")[0] == 1


def test_bench_schema(capsys):
    code, out, _ = run_cli(capsys, "bench", "--family", "hamming", "--max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance,n,method,seconds"
    fixed = [line.rsplit(",", 1)[0] for line in lines[1:]]
    assert fixed == [
        "K_2 x K_2,4,brandes",
        "K_2 x K_2,4,factorized",
        "K_3 x K_3,9,brandes",
        "K_3 x K_3,9,factorized",
    ]
    assert all(float(line.rsplit(",", 1)[1]) >= 0 for line in lines[1:])


def test_bench_monotone_ladder(capsys):
    code, out, _ = run_cli(capsys, "bench", "--family", "hamming", "--max", "4", "--methods", "factorized")
    assert code == 0
    ns = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert ns == sorted(ns) == [4, 9, 16]


def test_bench_bad_bounds(capsys):
    assert run_cli(capsys, "bench", "--family", "torus", "--max", "2")[0] == 2
    assert run_cli(capsys, "bench", "--family", "hamming", "--max", "3", "--methods", "magic")[0] == 2


def test_missing_subcommand(capsys):
    assert run_cli(capsys)[0] == 1


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "boxbc", "bc", "--family", "hamming", "3", "4", "--method", "closed-form"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "*,3/1,3"
