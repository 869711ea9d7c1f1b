"""Acceptance gate: every ``boxbc verify`` check as its own test.

One module-scoped ``run_verify("all")`` feeds one test per entry of
``verify._CHECKS`` (one per lemma for the folded walks), so each
check body runs once and a failing test shows that check's counterexample; ``--durations`` lists that run as the setup of
the first test.  A check's seconds include any memoized product or table it
is the first to build (see ``run_verify``).

``tests/verify_all.txt`` pins every line ``boxbc verify --scope all`` prints
from that run, without its seconds, and so the instance counts of every
sweep.  The remaining tests guard the harness itself: the product walks
catch a single wrong value of each function under test and a wrong interval
test inside the dependency query, report-exactness catches a writer that
gets one value wrong, the per-vertex sweeps name
every route's value at the first vertex that differs, the basket holds no
labeled graph twice, the hypercubes and tori are graphs the hamming and
cycle-products checks accumulate, every budget names a check, the
one-cycle multisets reach C_64, and one raising check fails alone.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from boxbc import DisconnectedGraphError, cli, complete, cycle, hamming, hypercube, path, queries, torus, verify
from boxbc.verify import _CHECKS, CheckFailure, run_verify

SUITE_BUDGET = 300.0
BUDGETS = {
    "pair-agreement": 30.0,
    "triple-agreement": 30.0,
    "betweenness-agreement": 60.0,
    "grid": 30.0,
    "anchors": 10.0,
    "hypercube": 10.0,
    "torus": 10.0,
}


@pytest.fixture(scope="module")
def results():
    return {f"{r.scope}/{r.name}": r for r in run_verify("all")}


# a folded walk answers for each lemma it checks, under that lemma's name and with the
# words of the walk's detail that claim it; every other check answers under its own name
LEMMAS = {
    "graph-walk": {
        "geodesic-tables": "geodesic recurrence", "method-agreement": "definitional and accumulation routes agree",
    },
    "dependency-walk": {"dependency-range": "within [0,1]", "dependency-sum": "equal d(u,v)-1"},
    "product-walk": {
        "labeling-roundtrip": "labels round-trip", "edge-stream": "streamed edge lists",
        "diameter-additivity": "diameters add", "wiener-agreement": "total-distance composition",
    },
    "pair-agreement": {"distance-additivity": "coordinate distances", "sigma-agreement": "geodesic counts"},
    "triple-agreement": {"interval-characterization": "interval tests", "dependency-agreement": "dependencies"},
    "hamming": {"hamming": "complete-factor formula", "uniform-complete": "uniform specialization"},
    "cycle-products": {"cycle-products": "cycle-product formulas", "cycle-product-wiener": "total-distance form"},
}
CHECK_CASES = [
    pytest.param(f"{scope}/{name}", claim, id=f"{scope}/{lemma}")
    for scope, name, _ in _CHECKS
    for lemma, claim in LEMMAS.get(name, {name: ""}).items()
]


@pytest.mark.parametrize("check, claim", CHECK_CASES)
def test_check(results, check, claim):
    result = results[check]
    assert result.passed, result.detail
    assert claim in result.detail
    budget = BUDGETS.get(result.name, SUITE_BUDGET)
    assert result.seconds < budget, f"took {result.seconds:.1f} s, budget {budget:.0f} s"


def _body(check: str):
    # the body of the check named *check*, or of the walk that answers for the lemma *check*
    return next(fn for _, name, fn in _CHECKS if check == name or check in LEMMAS.get(name, {}))


def test_check_ids_are_the_lemma_ids():
    # a folded check keeps answering for every lemma it absorbed, so no id is lost, added or doubled
    assert sorted(case.id for case in CHECK_CASES) == sorted([
        "core/geodesic-tables", "core/method-agreement", "core/dependency-range", "core/dependency-sum",
        "core/geodetic-flags",
        "products/labeling-roundtrip", "products/edge-stream", "products/distance-additivity",
        "products/sigma-agreement", "products/interval-characterization", "products/dependency-agreement",
        "products/fiber-convexity", "products/diameter-additivity", "products/betweenness-agreement",
        "products/wiener-agreement", "products/associativity",
        "closed-forms/hamming", "closed-forms/uniform-complete", "closed-forms/hypercube",
        "closed-forms/hypercube-sigma", "closed-forms/cycle-products", "closed-forms/even-cycles-alt",
        "closed-forms/torus", "closed-forms/grid", "closed-forms/anchors", "closed-forms/debruijn-lattice-paths",
        "closed-forms/cycle-product-wiener",
        "sum-identity/totals",
        "cli/edge-list-roundtrip", "cli/report-exactness",
    ])


def test_suite_budget(results):
    total = sum(r.seconds for r in results.values())
    assert total < SUITE_BUDGET, f"all checks took {total:.1f} s, budget {SUITE_BUDGET:.0f} s"


def test_verify_prints_the_pinned_lines(results, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_verify", lambda scope: list(results.values()))
    assert cli.main(["verify", "--scope", "all"]) == cli.EXIT_OK
    lines = [re.sub(r" \(\d+\.\d\d s\)$", "", line) for line in capsys.readouterr().out.splitlines()]
    assert lines == Path(__file__).with_name("verify_all.txt").read_text().splitlines()


# (check, patched name, coordinates where the patch is wrong, wrong value, expected detail);
# the first products walked are P_2, then P_3 in the triple walk
FAULTS = [
    ("pair-agreement", "product_distance", ((0,), (1,)), 2, "P_2: d((0,),(1,)) = 2 != 1"),
    ("pair-agreement", "product_sigma", ((0,), (1,)), 2, "P_2: sigma((0,),(1,)) = 2 != 1"),
    (
        "triple-agreement", "product_pair_dependency", ((0,), (2,), (1,)), Fraction(1, 2),
        "P_3: delta((0,),(2,)|(1,)) = 1/2 != 1",
    ),
    (
        "triple-agreement", "product_pair_dependency", ((0,), (1,), (2,)), Fraction(1, 2),
        "P_3: delta((0,),(1,)|(2,)) = 1/2 != 0",
    ),
]


@pytest.mark.parametrize("check, name, wrong_at, wrong, detail", FAULTS)
def test_product_sweeps_catch_a_single_wrong_value(monkeypatch, check, name, wrong_at, wrong, detail):
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda spec, *coords: wrong if coords == wrong_at else original(spec, *coords))
    body = _body(check)
    with pytest.raises(CheckFailure) as failure:
        body()
    assert str(failure.value) == detail


def test_triple_walk_catches_a_wrong_interval_test(monkeypatch):
    # the dependency query's own interval test, wrong at one P_3 triple, reads as a dependency of 0
    original = queries._between
    wrong_at = ((0,), (2,), (1,))
    monkeypatch.setattr(queries, "_between", lambda tables, *coords: coords != wrong_at and original(tables, *coords))
    with pytest.raises(CheckFailure) as failure:
        _body("interval-characterization")()
    assert str(failure.value) == "P_3: delta((0,),(2,)|(1,)) = 0 != 1"


def _first_exact_field(text: str, write) -> str:
    # vertex 0's exact field rewritten by *write*; its decimal column is left as written
    header, first, rest = text.split("\n", 2)
    label, exact, decimal = first.split(",")
    return "\n".join([header, f"{label},{write(exact)},{decimal}", rest])


def _wrong_exact_field(text: str) -> str:
    return _first_exact_field(text, lambda exact: str(Fraction(exact) + 1))


def _signed_unreduced_field(text: str) -> str:
    # vertex 0 of grid 3x3 carries 4/3, a value Fraction also reads from +8/6
    return _first_exact_field(text, lambda exact: "+8/6")


def _wrong_den(text: str) -> str:
    payload = json.loads(text)
    payload["values"][0]["den"] += 1
    return json.dumps(payload)


def _unreduced_num_den(text: str) -> str:
    payload = json.loads(text)
    payload["values"][0].update(num=8, den=6)
    return json.dumps(payload)


# (patched writer, its fault, expected detail): the first report read back is grid 3x3's; each
# exact field must be its value's p/q in lowest terms, so a value written as 8/6 fails like a wrong one
REPORT_FAULTS = [
    ("report_to_csv", _wrong_exact_field, "grid 3x3: CSV round trip lost exactness"),
    ("report_to_json", _wrong_den, "grid 3x3: JSON round trip changed the report"),
    ("report_to_csv", _signed_unreduced_field, "grid 3x3: CSV round trip lost exactness"),
    ("report_to_json", _unreduced_num_den, "grid 3x3: JSON round trip changed the report"),
]


@pytest.mark.parametrize("name, fault, detail", REPORT_FAULTS)
def test_report_exactness_catches_a_faulty_writer(monkeypatch, name, fault, detail):
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda report: fault(original(report)))
    body = _body("report-exactness")
    with pytest.raises(CheckFailure) as failure:
        body()
    assert str(failure.value) == detail


# (check or lemma, patched name, its wrong stand-in, expected detail): the first instances compared are
# P_2 in the core graph walk, K_2 (H[2]) in the hamming check and P_2 x P_2, a 4-cycle, in betweenness-agreement
VERTEX_FAULTS = [
    ("method-agreement", "_definitional", lambda g: (0, 1), "P_2: vertex 1: definitional 1, brandes 0"),
    ("hamming", "hamming_bc", lambda sizes: Fraction(1, 3), "H[2]: vertex 0: formula 1/3, brandes 0, uniform 0"),
    (
        "betweenness-agreement", "factorized_betweenness_all", lambda spec: (0,) * spec.vertex_count,
        "P_2 x P_2: vertex 0: brandes 1/2, definitional 1/2, factorized 0",
    ),
]


@pytest.mark.parametrize("check, name, wrong, detail", VERTEX_FAULTS)
def test_vertex_sweeps_name_each_route_at_the_first_wrong_vertex(monkeypatch, check, name, wrong, detail):
    monkeypatch.setattr(verify, name, wrong)
    body = _body(check)
    with pytest.raises(CheckFailure) as failure:
        body()
    assert str(failure.value) == detail


def test_the_basket_holds_no_labeled_graph_twice():
    # so it starts the complete graphs at K_4
    assert path(2) == complete(2)
    assert cycle(3) == complete(3)


def test_hypercubes_are_binary_hamming_graphs():
    # so the hamming check, which accumulates H[2, ..., 2] for r <= 6, covers Q_r
    for r in range(1, 7):
        assert hypercube(r) == hamming(*[2] * r)


def test_tori_are_the_two_cycle_products_swept():
    # so the cycle-products check, which compares torus_bc on each two-cycle product, covers torus(m, n)
    pairs = [sizes for sizes in verify._size_multisets(3, 64) if len(sizes) == 2 and sizes[1] <= 8]
    assert len(pairs) == 21
    for m, n in pairs:
        assert torus(m, n) == verify._materialize((cycle(m), cycle(n))).graph


def test_every_budget_names_a_check():
    # a renamed check would otherwise fall back to the suite budget unnoticed
    assert set(BUDGETS) <= {name for _, name, _ in _CHECKS}


def test_one_cycle_multisets_reach_every_cycle_to_64():
    # cycle-products compares each of C_3 .. C_64 alone with its BFS Wiener index
    assert {(n,) for n in range(3, 65)} <= set(verify._size_multisets(3, 64))


def test_a_raising_check_fails_alone(monkeypatch, capsys):
    def broken():
        raise DisconnectedGraphError("vertices 0 and 3 are not connected")

    checks = [("core", "before", lambda: "fine"), ("core", "broken", broken), ("cli", "after", lambda: "fine")]
    monkeypatch.setattr(verify, "_CHECKS", checks)
    detail = "DisconnectedGraphError: vertices 0 and 3 are not connected"
    got = [(r.name, r.passed, r.detail) for r in run_verify("all")]
    assert got == [("before", True, "fine"), ("broken", False, detail), ("after", True, "fine")]
    assert cli.main(["verify"]) == cli.EXIT_VERIFY == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith(f"FAIL [core] broken: {detail} (")
    assert lines[2].startswith("ok   [cli] after: fine (")
    assert lines[3] == "2/3 checks passed"
