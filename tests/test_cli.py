from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from boxbc import cycle, format_edge_list, grid, grid_bc, hypercube, parse_edge_list
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


@pytest.mark.parametrize(
    "family",
    [["grid", "3", "4"], ["hypercube", "4"], ["hamming", "2", "3"], ["torus", "3", "4"]],
    ids=" ".join,
)
def test_bc_family_factorized_matches_brandes(capsys, family):
    outputs = {}
    for method in ("factorized", "brandes"):
        code, out, err = run_cli(capsys, "bc", "--family", *family, "--method", method)
        assert code == 0, err
        outputs[method] = values_from_csv(out)
    assert outputs["factorized"] == outputs["brandes"]


def test_bc_family_factorized_coordinate_labels(capsys):
    rows = {}
    for method in ("factorized", "brandes"):
        code, out, err = run_cli(capsys, "bc", "--family", "grid", "2", "3", "--method", method, "--labels", "coords")
        assert code == 0, err
        rows[method] = [line.rsplit(",", 1)[0] for line in out.splitlines()]
    assert rows["factorized"] == rows["brandes"]
    assert rows["factorized"][1:3] == ['"(0, 0)",5/6', '"(0, 1)",10/3']


def test_bc_usage_errors(capsys, tmp_path):
    el = tmp_path / "c4.el"
    el.write_text(format_edge_list(cycle(4)))
    assert run_cli(capsys, "bc")[0] == 1
    assert run_cli(capsys, "bc", str(el), "--family", "cycle", "4")[0] == 1
    for method in ("factorized", "closed-form"):
        message = f"usage error: --method {method} does not apply to a plain edge-list file\n"
        assert run_cli(capsys, "bc", str(el), "--method", method) == (1, "", message)
    assert run_cli(capsys, "bc", "--family", "cycle", "4", "--method", "factorized") == (
        1, "", "usage error: --method factorized needs --factors or a product family\n")
    # the factor files do not exist: the route is refused before either is read
    missing = f"{tmp_path / 'a.el'},{tmp_path / 'b.el'}"
    assert run_cli(capsys, "bc", "--factors", missing, "--method", "closed-form") == (
        1, "", "usage error: --method closed-form needs --family\n")
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
    assert run_cli(capsys, "bench", "--family", "hamming", "--max", "3", "--methods", ",")[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("grid", "--max", "250"), "P_71 x P_71 has 5041 vertices; brandes bench instances are capped at 5000"),
        (("hypercube", "--max", "40", "--methods", "factorized"),
         "Q_17 has 131072 vertices; factorized bench instances are capped at 100000"),
    ],
    ids=["brandes", "factorized"],
)
def test_bench_caps_each_method_before_timing(capsys, monkeypatch, argv, message):
    def untimed(*args, **kwargs):
        pytest.fail("a rung was timed before the cap was checked")

    monkeypatch.setattr("boxbc.bench.cartesian_product", untimed)
    monkeypatch.setattr("boxbc.bench.product_spec", untimed)
    code, out, err = run_cli(capsys, "bench", "--family", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_cli_import_leaves_verify_bench_and_dataclasses_unloaded():
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import boxbc.cli",
        "heavy = ('boxbc.verify', 'boxbc.bench', 'dataclasses', 'inspect')",
        "print(sorted(m for m in heavy if m in sys.modules and m not in before))",
        "import boxbc",
        "print(boxbc.run_verify.__module__, boxbc.SCOPES[-1], boxbc.CheckResult.__name__)",
        "from boxbc import *",
        "print(sorted(n for n in boxbc.__all__ if n not in globals()))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "boxbc.verify all CheckResult", "[]"]


def test_unknown_package_attribute_raises():
    import boxbc

    with pytest.raises(AttributeError, match="no_such_name"):
        boxbc.no_such_name


def _recorded_help() -> list:
    # ``$ boxbc … --help`` lines, each followed by the text it printed
    blocks = Path(__file__).with_name("cli_help.txt").read_text().split("$ boxbc")[1:]
    heads_texts = (b.partition("\n")[::2] for b in blocks)
    return [pytest.param(head.split(), text, id=head.strip()) for head, text in heads_texts]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="help recorded with the argparse layout of Python 3.10-3.12")
@pytest.mark.parametrize("argv, expected", _recorded_help())
def test_help_text_unchanged(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv, choices",
    [
        (("verify", "--scope", "bogus"), ("core", "products", "closed-forms", "sum-identity", "cli", "all")),
        (("bench", "--family", "bogus", "--max", "3"), ("torus", "hamming", "grid", "hypercube")),
    ],
    ids=["verify", "bench"],
)
def test_invalid_choice_of_lazy_subcommand(capsys, argv, choices):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: argument {argv[1]}: invalid choice: 'bogus' (choose from ")
    assert all(repr(c) in err for c in choices)


def test_grid_closed_form_evaluates_each_mirror_class_once(capsys, monkeypatch):
    import boxbc.cli as cli

    calls = []

    def counted(m, n, a, b):
        calls.append((a, b))
        return grid_bc(m, n, a, b)

    monkeypatch.setattr(cli, "grid_bc", counted)
    code, closed, _ = run_cli(capsys, "bc", "--family", "grid", "8", "5", "--method", "closed-form")
    assert code == 0
    assert sorted(calls) == [(a, b) for a in range(1, 5) for b in range(1, 4)]
    assert run_cli(capsys, "bc", "--family", "grid", "8", "5", "--method", "factorized")[1] == closed
