from __future__ import annotations

import ast
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import boxbc
from boxbc import (
    cartesian_product,
    complete,
    cycle,
    format_edge_list,
    graph_from_edges,
    grid,
    hamming_bc,
    hypercube,
    hypercube_bc,
    parse_edge_list,
    path,
)
from boxbc.cli import main
from boxbc.verify import _LADDERS, CheckFailure, _rung_factors, run_bench
from oracles import csv_values, json_report


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


@pytest.mark.parametrize(
    "argv, factors",
    [
        (("product", "{p3}", "{k2}", "{p3}"), [path(3), complete(2), path(3)]),
        (("gen", "hypercube", "3"), [complete(2)] * 3),
    ],
    ids=["product", "gen hypercube"],
)
def test_product_edge_lists_stream_from_the_factors(capsys, monkeypatch, tmp_path, argv, factors):
    # the edge list is written from the factors' offset tables; building the
    # product graph on either route fails the request
    import boxbc.cli as cli
    import boxbc.generators as generators

    expected = format_edge_list(cartesian_product(factors).graph)

    def refuse(*args, **kwargs):
        raise AssertionError("the product graph was materialized")

    monkeypatch.setattr(cli, "cartesian_product", refuse)
    monkeypatch.setattr(generators, "cartesian_product", refuse)
    files = _write_factors(tmp_path)
    assert run_cli(capsys, *(a.format(**files) for a in argv)) == (0, expected, "")


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
        ["complete", "2"],
        ["path", "5"],
        ["path", "1"],
        ["path", "2"],
        ["path", "30"],
        ["grid", "3", "4"],
        ["grid", "1", "7"],
        ["grid", "2", "9"],
    ],
    ids=" ".join,
)
def test_bc_closed_form_matches_brandes(capsys, family):
    outputs = {}
    for method in ("closed-form", "brandes"):
        code, out, err = run_cli(capsys, "bc", "--family", *family, "--method", method)
        assert code == 0, err
        outputs[method] = csv_values(out)
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
    for method in ("brandes", "factorized"):
        code, out, _ = run_cli(capsys, "bc", "--factors", spec, "--method", method)
        assert code == 0
        outputs[method] = [line.rsplit(",", 1)[0] for line in out.splitlines()]
    assert outputs["brandes"] == outputs["factorized"]
    assert outputs["brandes"][1] == "0,2/1"


@pytest.mark.parametrize(
    "argv, factors",
    [
        pytest.param(["--factors", "{k2},{k2},{k2}"], 3, id="brandes"),
        pytest.param(["--family", "torus", "4", "5"], 2, id="brandes torus"),
        pytest.param(["--family", "hypercube", "5"], 5, id="brandes hypercube"),
        pytest.param(["--family", "grid", "8", "10", "--method", "closed-form"], 2, id="grid closed-form"),
    ],
)
def test_bc_factors_checks_each_factor_once(capsys, monkeypatch, tmp_path, argv, factors):
    # the materialized route builds the product from the spec it validated, and
    # the grid closed form reads only its own spec, so each factor's
    # connectivity is checked once, as on the factorized route
    import boxbc.product as product

    checked = []
    original = product.require_connected

    def counted(g):
        checked.append(g)
        return original(g)

    monkeypatch.setattr(product, "require_connected", counted)
    files = _write_factors(tmp_path)
    code, _, err = run_cli(capsys, "bc", *(a.format(**files) for a in argv))
    assert (code, err) == (0, "")
    assert len(checked) == factors


def test_bc_json_with_coordinate_labels(capsys):
    code, out, _ = run_cli(
        capsys, "bc", "--family", "torus", "3", "3", "--format", "json", "--labels", "coords"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "brandes"
    assert payload["values"][1] == {"vertex": "(0, 1)", "num": 2, "den": 1}


def test_every_method_builds_one_report(capsys):
    values = {}
    for method in ("brandes", "factorized", "closed-form"):
        code, out, err = run_cli(capsys, "bc", "--family", "grid", "2", "3", "--format", "json", "--method", method)
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["method"], payload["graph"]) == (method, "grid(2, 3)")
        assert "uniform" not in payload
        values[method] = payload["values"]
    assert len(values["brandes"]) == 6
    assert values["brandes"] == values["factorized"] == values["closed-form"]


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
        outputs[method] = csv_values(out)
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
    # the definitional loop is verify's reference, not a route
    assert run_cli(capsys, "bc", "--family", "path", "3", "--method", "definitional") == (1, "", (
        "usage error: argument --method: invalid choice: 'definitional'"
        " (choose from 'brandes', 'factorized', 'closed-form')\n"))
    assert run_cli(capsys, "bc", "--family", "star", "3", "--method", "closed-form")[0] == 2
    assert run_cli(capsys, "bc", str(tmp_path / "nope.el"))[0] == 2


def test_coordinate_labels_refuse_a_plain_input_before_any_work(capsys, monkeypatch, tmp_path):
    import boxbc.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the route ran before the usage error")

    class Unbuilt(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a closed-form value was built before the usage error")

    monkeypatch.setattr(cli, "load_graph", refuse)
    monkeypatch.setattr(cli, "betweenness", refuse)
    monkeypatch.setattr(cli, "Fraction", Unbuilt)
    message = "usage error: --labels coords needs a product input (--factors or a product family)\n"
    for argv in (
        [str(tmp_path / "q9.el")],
        ["--family", "cycle", "4"],
        ["--family", "path", "5", "--method", "closed-form"],
        ["--family", "path", "1000000", "--method", "closed-form"],
        ["--family", "star", "3", "--method", "brandes"],
    ):
        assert run_cli(capsys, "bc", *argv, "--labels", "coords") == (1, "", message)


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


def test_bench_refuses_a_repeated_method(capsys):
    argv = ("bench", "--family", "hamming", "--max", "3", "--methods", "brandes,brandes,factorized")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: bench method 'brandes' is given twice\n")


@pytest.mark.parametrize("family", ["torus", "hamming", "grid", "hypercube"])
def test_bench_vertex_count_rule_matches_the_built_factors(family):
    # run_bench sizes a rung from the counts its factors list, before building them
    low, _, rung = _LADDERS[family]
    for m in range(low, low + 4):
        assert [g.vertex_count for g in _rung_factors(family, m)] == [count for _, count in rung(m)]


# each ladder's four smallest rungs, pinned so that rewriting a rung can neither relabel nor resize it
BENCH_RUNGS = {
    "torus": [("C_3 x C_3", 9), ("C_4 x C_4", 16), ("C_5 x C_5", 25), ("C_6 x C_6", 36)],
    "hamming": [("K_2 x K_2", 4), ("K_3 x K_3", 9), ("K_4 x K_4", 16), ("K_5 x K_5", 25)],
    "grid": [("P_2 x P_2", 4), ("P_3 x P_3", 9), ("P_4 x P_4", 16), ("P_5 x P_5", 25)],
    "hypercube": [("Q_1", 2), ("Q_2", 4), ("Q_3", 8), ("Q_4", 16)],
}


@pytest.mark.parametrize("family", BENCH_RUNGS)
def test_bench_rungs_keep_their_labels_and_sizes(family):
    rows = run_bench(family, _LADDERS[family][0] + 3)
    want = [(label, n, method) for label, n in BENCH_RUNGS[family] for method in ("brandes", "factorized")]
    assert [(row.instance, row.n, row.method) for row in rows] == want


def test_bench_refuses_an_over_cap_ladder_before_building_a_factor(capsys, monkeypatch):
    def unbuilt(*args, **kwargs):
        pytest.fail("a factor graph was built before the cap was checked")

    monkeypatch.setattr("boxbc.verify._rung_factors", unbuilt)
    code, out, err = run_cli(capsys, "bench", "--family", "hamming", "--max", "400", "--methods", "factorized")
    message = "K_317 x K_317 has 100489 vertices; factorized bench instances are capped at 100000"
    assert (code, out, err) == (2, "", f"error: {message}\n")


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

    monkeypatch.setattr("boxbc.verify.cartesian_product", untimed)
    monkeypatch.setattr("boxbc.verify.product_spec", untimed)
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
        "heavy = ('boxbc.verify', 'dataclasses', 'inspect')",
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


PUBLIC_NAMES = """
    CentralityReport CheckResult DisconnectedGraphError FAMILIES GeodesicTable Graph GraphError
    ProductGraph ProductSpec SCOPES all_pairs_tables average_distance betweenness bfs_geodesics
    cartesian_product check_family complete cycle cycle_product_wiener diameter distance
    even_cycles_bc factorized_betweenness factorized_betweenness_all family_factors
    format_edge_list generate graph_from_edges grid grid_bc hamming hamming_bc hypercube hypercube_bc
    interval is_connected is_geodetic load_graph odd_cycles_bc pair_dependency
    parse_edge_list path product_distance product_pair_dependency product_sigma product_spec product_wiener
    report_to_csv report_to_json run_verify save_graph sigma sigma_through star torus torus_bc wiener
""".split()


def test_public_names_are_pinned():
    import boxbc

    # a move between modules must keep every public name, under the same spelling
    assert len(PUBLIC_NAMES) == 57
    assert boxbc.__all__ == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(boxbc, name) is not None


def test_only_cli_defers_imports_into_functions():
    # A relative import inside a function hides a dependency (or an import
    # cycle) from the module header; only cli's bench deferrals may, because
    # bench's names are not public.
    import boxbc

    def deferred(node, function=None):
        # the innermost enclosing function of each relative import
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from deferred(child, child.name)
            else:
                if function and isinstance(child, ast.ImportFrom) and child.level > 0:
                    yield function
                yield from deferred(child, function)

    found = [
        (source.stem, function)
        for source in sorted(Path(boxbc.__file__).parent.glob("*.py"))
        for function in deferred(ast.parse(source.read_text(encoding="utf-8")))
    ]
    assert sorted(found) == [("cli", "_bench_arguments"), ("cli", "cmd_bench")]


def test_cli_reads_only_public_names():
    # cli is a client of the public API: every ``_self.<name>`` it reads is
    # one of boxbc's exports or defined in cli itself
    import boxbc
    import boxbc.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_self"
    }
    # top-level functions, classes and assignments (plain or annotated)
    defined = {getattr(node, "name", None) for node in tree.body} | {
        target.id for node in tree.body for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name)
    }
    assert "betweenness" in read
    assert sorted(read - set(boxbc.__all__) - defined) == []


def test_computation_modules_leave_the_report_module_unloaded():
    script = "\n".join([
        "import sys",
        "import boxbc.centrality, boxbc.product, boxbc.generators",
        "print('boxbc.report' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_graph_module_imports_no_other_boxbc_module():
    # graph.py names ProductSpec only for type checking; at run time every other module builds on it
    script = "import sys, boxbc.graph; print(sorted(m for m in sys.modules if m.startswith('boxbc')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['boxbc', 'boxbc.graph']\n"


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


def test_grid_closed_form_is_one_factorized_pass(capsys, monkeypatch):
    import boxbc.cli as cli

    calls = []
    factorized = cli.factorized_betweenness_all

    def counted(spec):
        calls.append(spec.radices)
        return factorized(spec)

    def refused(*args):
        raise AssertionError("the grid closed form evaluates no position on its own")

    monkeypatch.setattr(cli, "factorized_betweenness_all", counted)
    monkeypatch.setattr(cli, "grid_bc", refused)
    code, closed, _ = run_cli(capsys, "bc", "--family", "grid", "8", "5", "--method", "closed-form")
    assert code == 0
    assert calls == [(8, 5)]
    assert run_cli(capsys, "bc", "--family", "grid", "8", "5", "--method", "factorized")[1] == closed


def test_path_closed_form_searches_nothing(capsys, monkeypatch):
    import boxbc.graph

    def refused(*args, **kwargs):
        raise AssertionError("the path closed form runs no search")

    monkeypatch.setattr(boxbc.graph, "breadth_first", refused)
    code, out, err = run_cli(capsys, "bc", "--family", "path", "300", "--method", "closed-form")
    assert code == 0, err
    values = csv_values(out)
    assert len(values) == 300
    assert all(values[str(i)] == i * (299 - i) for i in range(300))


@pytest.mark.parametrize("sizes", [(2000,), (100000, 100000)], ids=["hamming 2000", "hamming 100000 100000"])
def test_uniform_closed_form_builds_nothing(capsys, monkeypatch, sizes):
    # a uniform closed form reads only the parameters, so it answers at any size
    import boxbc.generators

    def refused(*args, **kwargs):
        raise AssertionError("a uniform closed form builds no graph")

    # complete too: a route that built K_n would otherwise list its n(n-1)/2 edges first
    for name in ("graph_from_edges", "complete"):
        monkeypatch.setattr(boxbc.generators, name, refused)
    code, out, err = run_cli(capsys, "bc", "--family", "hamming", *map(str, sizes), "--method", "closed-form")
    assert (code, err) == (0, "")
    assert csv_values(out) == {"*": hamming_bc(sizes)}


@pytest.mark.parametrize(
    "request_", [["hamming", "1500"], ["hypercube", "12"], ["torus", "5", "7"], ["cycle", "5"], ["complete", "4"]],
    ids=" ".join,
)
def test_uniform_closed_form_refuses_coordinates_before_building(capsys, monkeypatch, request_):
    # the closed form's one value tells that the report has one '*' row, so no factor is built to learn it,
    # and a single cycle or complete graph is refused as uniform, not as an input that is no product
    import boxbc.generators

    def refused(*args, **kwargs):
        raise AssertionError("a refused request builds no factor")

    for name in ("complete", "cycle"):
        monkeypatch.setattr(boxbc.generators, name, refused)
    argv = ("bc", "--family", *request_, "--method", "closed-form", "--labels", "coords")
    message = "usage error: a uniform report has a single '*' row; coordinate labels do not apply\n"
    assert run_cli(capsys, *argv) == (1, "", message)
    # bad parameters are still a validation error first
    bad = ("bc", "--family", request_[0], "0", *request_[2:], "--method", "closed-form", "--labels", "coords")
    assert run_cli(capsys, *bad)[0] == 2


def test_exact_values_print_past_the_int_digit_cap(capsys, tmp_path):
    # (r - 2) 2^(r-2) + 1/2 at r = 15000 has a numerator of 4,520 digits
    value = hypercube_bc(15000)
    assert value == Fraction(14998 * 2**14999 + 1, 2)
    code, out, err = run_cli(capsys, "bc", "--family", "hypercube", "15000", "--method", "closed-form")
    assert (code, err) == (0, "")
    # read back exactly: the tests' reader lifts the cap too
    assert csv_values(out) == {"*": value}
    code, out, err = run_cli(
        capsys, "bc", "--family", "hypercube", "15000", "--method", "closed-form", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert json_report(out).values == (value,)
    if hasattr(sys, "get_int_max_str_digits"):
        # the cap is lifted only while the report is written: input parsing keeps it
        big = tmp_path / "big.el"
        token = "1" * 5000
        big.write_text(f"n 2\n0 {token}\n")
        code, _, err = run_cli(capsys, "bc", str(big))
        assert (code, err) == (2, f"error: line 2: {token!r} is not an integer\n")


def _write_factors(directory: Path) -> dict[str, str]:
    files = {"k2": "n 2\n0 1\n", "p3": "n 3\n0 1\n1 2\n"}
    for name, text in files.items():
        (directory / f"{name}.el").write_text(text)
    return {name: str(directory / f"{name}.el") for name in files}


# every boxbc submodule and the two report-format modules; each request loads exactly the listed ones
_ROUTE_WATCH = tuple(f"boxbc.{m.name}" for m in pkgutil.iter_modules(boxbc.__path__)) + ("csv", "json")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (
            ["bc", "--factors", "{k2},{p3},{k2}", "--method", "factorized"],
            ["boxbc.cli", "boxbc.graph", "boxbc.product", "boxbc.report", "csv"],
        ),
        (
            ["bc", "--factors", "{k2},{p3},{k2}", "--method", "factorized", "--format", "json"],
            ["boxbc.cli", "boxbc.graph", "boxbc.product", "boxbc.report", "json"],
        ),
        (
            ["bc", "--family", "grid", "3", "4", "--method", "closed-form"],
            ["boxbc.cli", "boxbc.generators", "boxbc.graph", "boxbc.product", "boxbc.report", "csv"],
        ),
        (
            ["bc", "--family", "hamming", "2", "3", "--method", "closed-form"],
            ["boxbc.cli", "boxbc.generators", "boxbc.graph", "boxbc.report", "csv"],
        ),
        (
            ["bc", "--factors", "{k2},{p3}"],
            ["boxbc.centrality", "boxbc.cli", "boxbc.graph", "boxbc.product", "boxbc.report", "csv"],
        ),
        (["gen", "cycle", "5"], ["boxbc.cli", "boxbc.generators", "boxbc.graph"]),
        (["gen", "grid", "2", "3"], ["boxbc.cli", "boxbc.generators", "boxbc.graph", "boxbc.product"]),
        (["product", "{k2}", "{p3}"], ["boxbc.cli", "boxbc.graph", "boxbc.product"]),
        (["wiener", "{p3}"], ["boxbc.cli", "boxbc.graph"]),
        (["wiener", "--factors", "{k2},{p3}"], ["boxbc.cli", "boxbc.graph", "boxbc.product"]),
    ],
    ids=[
        "factorized csv", "factorized json", "grid closed-form", "uniform closed-form", "brandes csv",
        "gen cycle", "gen grid", "product", "wiener", "wiener factors",
    ],
)
def test_route_loads_only_its_modules(tmp_path, argv, loaded):
    # the pairwise queries are library-only, so no route loads them
    assert "boxbc.queries" in _ROUTE_WATCH
    files = _write_factors(tmp_path)
    script = "\n".join([
        "import sys",
        "from boxbc.cli import main",
        "code = main(sys.argv[1:])",
        f"print(code, sorted(m for m in {_ROUTE_WATCH!r} if m in sys.modules))",
    ])
    argv = [a.format(**files) for a in argv] + ["-o", str(tmp_path / "report")]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"0 {loaded}\n"


# one request per name that perfbench/traced_child.py wraps on ``cli``; it also
# wraps path, cycle, complete and grid_bc, which no command calls
_UNCALLED = {"path", "cycle", "complete", "grid_bc"}
_TRACED_REQUESTS = {
    "betweenness": ("bc", "--factors", "{p3},{p3}"),
    "wiener": ("wiener", "{p3}"),
    "load_graph": ("wiener", "{p3}"),
    "format_edge_list": ("gen", "cycle", "4"),
    "generate": ("gen", "cycle", "4"),
    "cartesian_product": ("bc", "--factors", "{p3},{k2}"),
    "factorized_betweenness_all": ("bc", "--factors", "{p3},{k2}", "--method", "factorized"),
    "product_wiener": ("wiener", "--factors", "{p3},{k2}"),
    "report_to_csv": ("bc", "--family", "torus", "3", "3", "--method", "closed-form"),
    "report_to_json": ("bc", "--factors", "{p3},{k2}", "--method", "factorized", "--format", "json"),
    "hypercube_bc": ("bc", "--family", "hypercube", "3", "--method", "closed-form"),
    "hamming_bc": ("bc", "--family", "hamming", "2", "3", "--method", "closed-form"),
    "torus_bc": ("bc", "--family", "torus", "3", "4", "--method", "closed-form"),
    "even_cycles_bc": ("bc", "--family", "cycle", "6", "--method", "closed-form"),
    "odd_cycles_bc": ("bc", "--family", "cycle", "5", "--method", "closed-form"),
}


def test_traced_requests_cover_the_traced_cli_names():
    from test_bench_hooks import _load_traced_child

    layers = _load_traced_child().LAYERS
    traced = next(names for module, names in layers.items() if module.__name__ == "boxbc.cli")
    assert set(traced) - _UNCALLED == set(_TRACED_REQUESTS)


@pytest.mark.parametrize("name", sorted(_TRACED_REQUESTS))
def test_patched_cli_name_is_the_one_called(capsys, monkeypatch, tmp_path, name):
    # tracing wrappers and test patches rebind names on ``cli``; every route
    # must call the rebound name, not a copy bound when the module loaded
    import boxbc.cli as cli

    files = _write_factors(tmp_path)
    argv = [a.format(**files) for a in _TRACED_REQUESTS[name]]
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0, expected
    original = getattr(cli, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    assert run_cli(capsys, *argv) == expected
    assert calls


def _random_connected(n: int, extra: int, seed: int):
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return graph_from_edges(n, sorted(edges))


def _buffered_env() -> dict[str, str]:
    # stdout to a pipe is block-buffered unless PYTHONUNBUFFERED is set; the
    # exit has to flush what the buffer still holds
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_frozen_exit_writes_everything(tmp_path):
    # console_main freezes the heap before exiting; output written to a pipe
    # or a file must still arrive whole
    factors = [cycle(16), _random_connected(25, 6, seed=25), cycle(16)]
    paths = []
    for i, g in enumerate(factors):
        paths.append(tmp_path / f"f{i}.el")
        paths[-1].write_text(format_edge_list(g))
    expected = format_edge_list(cartesian_product(factors).graph).encode()
    command = [sys.executable, "-m", "boxbc", "product", *map(str, paths)]
    piped = subprocess.run(command, capture_output=True, env=_buffered_env())
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == expected
    target = tmp_path / "product.el"
    written = subprocess.run([*command, "-o", str(target)], capture_output=True, env=_buffered_env())
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert target.read_bytes() == expected


def test_closed_output_pipe_exits_quietly():
    # a reader that stops early (``| head -1``) is no validation error: the
    # writer exits 141, as a shell reports one killed by SIGPIPE, and says nothing
    command = [sys.executable, "-m", "boxbc", "gen", "hypercube", "13"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env()) as proc:
        assert proc.stdout.readline() == b"n 8192\n"
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")


_FAILING_VERIFY = "\n".join([
    "import runpy, sys",
    "import boxbc.verify as verify",
    "def broken():",
    "    raise verify.CheckFailure('counterexample')",
    "verify._CHECKS = [('cli', 'broken', broken)]",
    "runpy.run_module('boxbc', run_name='__main__', alter_sys=True)",
])


@pytest.mark.parametrize(
    "argv, code",
    [(["bc"], 1), (["gen", "moebius", "4"], 2), (["verify"], 3)],
    ids=["usage", "validation", "verification"],
)
def test_frozen_exit_keeps_exit_codes_and_stderr(capsys, monkeypatch, argv, code):
    if code == 3:
        def broken() -> str:
            raise CheckFailure("counterexample")

        monkeypatch.setattr("boxbc.verify._CHECKS", [("cli", "broken", broken)])
        command = [sys.executable, "-c", _FAILING_VERIFY, *argv]
    else:
        command = [sys.executable, "-m", "boxbc", *argv]
    expected_code, expected_out, expected_err = run_cli(capsys, *argv)
    assert expected_code == code
    proc = subprocess.run(command, capture_output=True, text=True, env=_buffered_env())
    assert (proc.returncode, proc.stderr) == (code, expected_err)
    # verify's lines carry timings; its last line is the tally
    assert proc.stdout.splitlines()[-1:] == expected_out.splitlines()[-1:]
