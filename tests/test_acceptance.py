"""Acceptance gate: every ``boxbc verify`` check as its own test.

One module-scoped ``run_verify("all")`` feeds one test per entry of
``verify._CHECKS``, so each check body runs once and a failing test shows
that check's counterexample; ``--durations`` lists that run as the setup of
the first test.  A check's seconds include any memoized product or table it
is the first to build (see ``run_verify``).
"""

from __future__ import annotations

import pytest

from boxbc.verify import _CHECKS, run_verify

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
