"""Acceptance gate: every ``boxbc verify`` check as its own test.

One module-scoped ``run_verify("all")`` feeds one test per entry of
``verify._CHECKS``, so each check body runs once and a failing test shows
that check's counterexample; ``--durations`` lists that run as the setup of
the first test.  A check's seconds include any memoized product or table it
is the first to build (see ``run_verify``).

``tests/verify_all.txt`` pins every line ``boxbc verify --scope all`` prints
from that run, without its seconds.  The remaining tests guard the harness
itself: the product sweeps keep their instance counts and catch a single
wrong value of the function under test, the basket holds no labeled graph
twice, the hypercubes and tori are graphs the hamming and cycle-products
checks accumulate, every budget names a check, the one-cycle multisets reach
C_64, and one raising check fails alone.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest

from boxbc import DisconnectedGraphError, cli, complete, cycle, hamming, hypercube, path, torus, verify
from boxbc.verify import _CHECKS, CheckFailure, run_verify

SUITE_BUDGET = 300.0
BUDGETS = {"betweenness-agreement": 60.0, "grid": 30.0, "anchors": 10.0, "hypercube": 10.0, "torus": 10.0}


@pytest.fixture(scope="module")
def results():
    return {f"{r.scope}/{r.name}": r for r in run_verify("all")}


@pytest.mark.parametrize("check", [f"{scope}/{name}" for scope, name, _ in _CHECKS])
def test_check(results, check):
    result = results[check]
    assert result.passed, result.detail
    budget = BUDGETS.get(result.name, SUITE_BUDGET)
    assert result.seconds < budget, f"took {result.seconds:.1f} s, budget {budget:.0f} s"


def test_suite_budget(results):
    total = sum(r.seconds for r in results.values())
    assert total < SUITE_BUDGET, f"all checks took {total:.1f} s, budget {SUITE_BUDGET:.0f} s"


def test_verify_prints_the_pinned_lines(results, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_verify", lambda scope: list(results.values()))
    assert cli.main(["verify", "--scope", "all"]) == cli.EXIT_OK
    lines = [re.sub(r" \(\d+\.\d\d s\)$", "", line) for line in capsys.readouterr().out.splitlines()]
    assert lines == Path(__file__).with_name("verify_all.txt").read_text().splitlines()


SWEEP_DETAILS = {
    "products/distance-additivity": "coordinate distances match materialized distances on 243732 pairs",
    "products/sigma-agreement": "factorized geodesic counts match BFS counts on 243732 pairs",
    "products/dependency-agreement": "factorized dependencies match materialized ones on 993162 triples",
    "products/interval-characterization": "per-factor interval test matches the distance test on 1067772 triples",
}


@pytest.mark.parametrize("check", SWEEP_DETAILS)
def test_product_sweeps_keep_their_instances(results, check):
    assert results[check].detail == SWEEP_DETAILS[check]


# (check, patched name, coordinates where the patch is wrong, wrong value, expected detail);
# the first products swept are P_2, then P_3 in the triple checks
FAULTS = [
    ("distance-additivity", "product_distance", ((0,), (1,)), 2, "P_2: d((0,),(1,)) = 2 != 1"),
    ("sigma-agreement", "product_sigma", ((0,), (1,)), 2, "P_2: sigma((0,),(1,)) = 2 != 1"),
    (
        "dependency-agreement", "product_pair_dependency", ((0,), (2,), (1,)), Fraction(1, 2),
        "P_3: delta((0,),(2,)|(1,)) = 1/2 != 1",
    ),
    (
        "dependency-agreement", "product_pair_dependency", ((0,), (1,), (2,)), Fraction(1, 2),
        "P_3: delta((0,),(1,)|(2,)) = 1/2 != 0",
    ),
    (
        "interval-characterization", "interval_membership", ((0,), (2,), (1,)), False,
        "P_3: membership of (1,) between (0,) and (2,): False != True",
    ),
]


@pytest.mark.parametrize("check, name, wrong_at, wrong, detail", FAULTS)
def test_product_sweeps_catch_a_single_wrong_value(monkeypatch, check, name, wrong_at, wrong, detail):
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda spec, *coords: wrong if coords == wrong_at else original(spec, *coords))
    body = next(fn for _, n, fn in _CHECKS if n == check)
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
    # cycle-product-wiener compares each of C_3 .. C_64 alone with its BFS Wiener index
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
