"""Timing ladders comparing the two routes to product betweenness.

Each ladder instance is timed end to end from its factor graphs: the
``brandes`` route pays for materializing the product before accumulating,
the ``factorized`` route works from factor tables alone.  Row order is
deterministic; only the seconds column varies between runs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import prod
from time import perf_counter
from typing import Iterator, Sequence

from .centrality import betweenness
from .generators import family_factors
from .graph import Graph, GraphError
from .product import cartesian_product, factorized_betweenness_all, product_spec

# family -> (least ladder size, instance label, parameter count); rung m is
# the family instance whose parameters all equal m
_LADDERS = {
    "torus": (3, "C_{m} x C_{m}", 2),
    "hamming": (2, "K_{m} x K_{m}", 2),
    "grid": (2, "P_{m} x P_{m}", 2),
    "hypercube": (1, "Q_{m}", 1),
}
BENCH_FAMILIES = tuple(_LADDERS)

# method -> largest product, in vertices, it may be timed on.  The caps keep an
# accidental ladder size from running for hours: Brandes works on the
# materialized product in O(n*m), the factorized route on factor tables only.
BENCH_METHODS = {"brandes": 5_000, "factorized": 100_000}


@dataclass(frozen=True)
class BenchRow:
    instance: str
    n: int
    method: str
    seconds: float


def _ladder(family: str, maximum: int) -> Iterator[tuple[str, list[Graph]]]:
    if family not in _LADDERS:
        raise GraphError(f"unknown bench family {family!r}; expected one of {', '.join(BENCH_FAMILIES)}")
    low, label, count = _LADDERS[family]
    if maximum < low:
        raise GraphError(f"bench family {family!r} needs a maximum of at least {low}")
    for m in range(low, maximum + 1):
        yield label.format(m=m), family_factors(family, *[m] * count)


def run_bench(
    family: str,
    maximum: int,
    methods: Sequence[str] = tuple(BENCH_METHODS),
) -> list[BenchRow]:
    """Time every ladder instance with every requested method.

    Rungs grow with ``m``, so the ladder is built up to the first rung over a
    requested method's cap and refused there, before any rung is timed.
    """
    if not methods:
        raise GraphError(f"bench needs at least one method; expected some of {', '.join(BENCH_METHODS)}")
    for method in methods:
        if method not in BENCH_METHODS:
            raise GraphError(f"unknown bench method {method!r}; expected one of {', '.join(BENCH_METHODS)}")
    ladder = []
    for label, factors in _ladder(family, maximum):
        n = prod(g.vertex_count for g in factors)
        for method in methods:
            if n > BENCH_METHODS[method]:
                raise GraphError(f"{label} has {n} vertices; {method} bench instances are capped at {BENCH_METHODS[method]}")
        ladder.append((label, factors, n))
    rows = []
    for label, factors, n in ladder:
        for method in methods:
            start = perf_counter()
            if method == "brandes":
                betweenness(cartesian_product(factors).graph, method="brandes")
            else:
                factorized_betweenness_all(product_spec(factors))
            rows.append(BenchRow(label, n, method, perf_counter() - start))
    return rows


def bench_to_csv(rows: Sequence[BenchRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["instance", "n", "method", "seconds"])
    for row in rows:
        writer.writerow([row.instance, row.n, row.method, f"{row.seconds:.6f}"])
    return out.getvalue()
