"""The two benchmark workloads: their seeded input files, requests and expected outputs.

Each workload is a fixed list of requests, one ``boxbc`` command line each.
The seed draws the edges of the random factor graphs and nothing else here;
instance sizes never depend on it, so every seed asks for work of the same size.

A round asks each of a workload's requests once.  They fall in three cost
classes, light, middle and heavy, whose typical costs are 1.3 times or more
apart: 3, 6 and 4 requests on ``many_factor``, 6, 9 and 6 on
``materialized``.  Over whole rounds the median latency then falls inside
the middle class, which holds over 40% of all samples, so the density of
samples around the median is high and the median of a run moves little
with the noise of single requests.  The heavy class holds over a quarter of
a run's requests, and its slowest instance enough of them that the tail
(the eleventh-slowest request) falls among that instance's samples.
Neither falls on the edge between two classes, where it would jump from run
to run.  The middle class uses no seeded random graph, since the shape of a
random factor changes what a request costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import graphs
from graphs import Graph


@dataclass(frozen=True)
class BcExpect:
    """A betweenness report on ``n`` vertices whose values must sum to ``wiener - C(n, 2)``.

    ``labels`` lists the expected vertex labels in order (``None`` means ids
    ``0..n-1``); a uniform closed-form report has the single label ``*``.
    ``vertex_transitive`` asks every vertex to carry the same value, which
    then equals the closed form ``(W - C(n, 2)) / n``.  ``grid`` gives the
    sides of a grid whose values must be symmetric under both reflections.
    """

    n: int
    wiener: int
    labels: tuple[str, ...] | None = None
    vertex_transitive: bool = False
    grid: tuple[int, int] | None = None


@dataclass(frozen=True)
class WienerExpect:
    value: int


@dataclass(frozen=True)
class ProductExpect:
    """A product edge list: ``n`` vertices and exactly the edges of the product of ``factors``."""

    factors: tuple[Graph, ...]

    @property
    def n(self) -> int:
        return graphs.product_vertex_count(self.factors)

    @property
    def edge_count(self) -> int:
        return graphs.product_edge_count(self.factors)


@dataclass(frozen=True)
class Request:
    """One ``boxbc`` invocation.

    ``instance`` names what is computed: requests with the same instance must
    print the same values.  ``fmt`` is ``csv`` or ``json`` for ``bc``,
    ``wiener`` or ``edges`` otherwise; ``output`` is the ``-o`` file, if any.
    """

    instance: str
    argv: tuple[str, ...]
    fmt: str
    expect: BcExpect | WienerExpect | ProductExpect
    output: str | None = None


@dataclass(frozen=True)
class Workload:
    files: dict[str, Graph]
    requests: tuple[Request, ...]


def write_inputs(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, g in workload.files.items():
        (directory / name).write_text(graphs.edge_list_text(g), encoding="utf-8")


class _Builder:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.files: dict[str, Graph] = {}
        self.requests: list[Request] = []

    def rng(self, key: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{key}")

    def file(self, name: str, g: Graph) -> tuple[str, Graph]:
        self.files[name] = g
        return name, g

    def fixed(self, kind: str, size: int) -> tuple[str, Graph]:
        build, prefix = {"path": (graphs.path, "P"), "cycle": (graphs.cycle, "C"), "complete": (graphs.complete, "K")}[kind]
        return self.file(f"{prefix}{size}.el", build(size))

    def random_factor(self, key: str, n: int, extra: int) -> tuple[str, Graph]:
        return self.file(f"{key}.el", graphs.random_connected(n, extra, self.rng(key)))

    def relabeled(self, key: str, g: Graph) -> tuple[str, Graph]:
        return self.file(f"{key}.el", graphs.relabel(g, self.rng(key)))

    def add(self, instance: str, argv: list[str], fmt: str, expect, output: str | None = None) -> None:
        if fmt == "json":
            argv = argv + ["--format", "json"]
        if output is not None:
            argv = argv + ["-o", output]
        self.requests.append(Request(instance, tuple(argv), fmt, expect, output))

    def bc_factors(self, instance: str, factors, fmt: str = "csv", method: str | None = None,
                   coords: bool = False, output: str | None = None, vt: bool = False) -> None:
        gs = [g for _, g in factors]
        argv = ["bc", "--factors", ",".join(name for name, _ in factors)]
        if method is not None:
            argv += ["--method", method]
        if coords:
            argv += ["--labels", "coords"]
        labels = tuple(graphs.coordinate_labels(gs)) if coords else None
        expect = BcExpect(graphs.product_vertex_count(gs), graphs.product_wiener(gs), labels, vt)
        self.add(instance, argv, fmt, expect, output)

    def bc_product_file(self, instance: str, factors, fmt: str = "csv", vt: bool = False) -> None:
        gs = [g for _, g in factors]
        name, _ = self.file(f"{instance.replace('^', '_')}.el", graphs.product_graph(gs))
        expect = BcExpect(graphs.product_vertex_count(gs), graphs.product_wiener(gs), None, vt)
        self.add(instance, ["bc", name], fmt, expect)

    def bc_closed_form(self, family: str, params: tuple[int, ...], factors: list[Graph], fmt: str = "csv") -> None:
        argv = ["bc", "--family", family, *map(str, params), "--method", "closed-form"]
        n = graphs.product_vertex_count(factors)
        w = graphs.product_wiener(factors)
        if family == "grid":
            expect = BcExpect(n, w, grid=params)
        else:
            expect = BcExpect(n, w, labels=("*",), vertex_transitive=True)
        self.add(f"{family}{params}", argv, fmt, expect)

    def build(self) -> Workload:
        return Workload(dict(self.files), tuple(self.requests))


def many_factor(seed: int) -> Workload:
    """Factorized route on products of 3 to 6 factors and 27 to 80 vertices.

    Light: K_3^3 and T_4 x S_3 x P_3; middle: Q_6 from K_2 files and
    K_2^2 x P_4^2, 64 vertices; heavy: K_2^4 x K_5 and K_2^2 x P_5 x P_4, 80
    vertices.  Three instances are vertex-transitive; three are built from a
    seeded random tree, a star and paths.  The O(n^3 k) triple loop of
    ``product.factorized_betweenness_all`` does almost all of the work;
    factor tables and parsing cost next to nothing.
    """
    b = _Builder("many_factor", seed)
    k2, k3, k5 = b.fixed("complete", 2), b.fixed("complete", 3), b.fixed("complete", 5)
    tree4 = b.random_factor("tree4", 4, 0)
    star3, path3 = b.relabeled("star3", graphs.star(3)), b.relabeled("path3", graphs.path(3))
    path4, path5 = b.relabeled("path4", graphs.path(4)), b.relabeled("path5", graphs.path(5))
    fact = "factorized"
    b.bc_factors("K3^3", [k3] * 3, "csv", fact, vt=True)
    b.bc_factors("K3^3", [k3] * 3, "json", fact, output="out.json", vt=True)
    b.bc_factors("T4xS3xP3", [tree4, star3, path3], "json", fact)
    for fmt, output in (("csv", None), ("json", None), ("csv", "out.csv"), ("json", "out.json")):
        b.bc_factors("Q6", [k2] * 6, fmt, fact, output=output, vt=True)
    b.bc_factors("K2^2xP4^2", [k2, k2, path4, path4], "csv", fact)
    b.bc_factors("K2^2xP4^2", [k2, k2, path4, path4], "json", fact)
    b.bc_factors("K2^4xK5", [k2] * 4 + [k5], "json", fact, output="out.json", vt=True)
    b.bc_factors("K2^2xP5xP4", [k2, k2, path5, path4], "csv", fact)
    b.bc_factors("K2^2xP5xP4", [k2, k2, path5, path4], "csv", fact, output="out.csv")
    b.bc_factors("K2^2xP5xP4", [k2, k2, path5, path4], "json", fact)
    return b.build()


def materialized(seed: int) -> Workload:
    """Default Brandes route on materialized products, with Wiener tables, composition and closed forms.

    Light: Brandes on the grid P_7 x P_7 and on a product of two seeded
    random connected graphs, 49 and 56 vertices; ``wiener --factors`` and
    the uniform hamming closed form, which cost little beyond process
    start-up; ``product``, which composes and formats an edge list of 6,400
    vertices.  Middle: Brandes on the torus C_10 x C_10 and the grid
    P_10 x P_10, 100 vertices, and the grid closed form of 80 vertices, pure
    arithmetic in ``closedform.grid_bc``.  Heavy: Brandes on K_5^3 and Q_7,
    125 and 128 vertices, and ``wiener PRODUCT.el``, which builds the
    all-pairs geodesic tables of a materialized product of 754 vertices,
    O(n^2) memory.  Products are asked for from factor files (CSV, or JSON
    with coordinate labels) and from product edge lists written at set-up.
    ``centrality.betweenness`` does most of the work.
    """
    b = _Builder("materialized", seed)
    p7, p10 = b.fixed("path", 7), b.fixed("path", 10)
    c10, c16 = b.fixed("cycle", 10), b.fixed("cycle", 16)
    k2, k5 = b.fixed("complete", 2), b.fixed("complete", 5)
    r7, r8 = b.random_factor("rand7", 7, 2), b.random_factor("rand8", 8, 3)
    b.bc_factors("P7xP7", [p7, p7])
    b.bc_product_file("P7xP7", [p7, p7], "json")
    b.bc_factors("R7xR8", [r7, r8], "json", coords=True)
    b.bc_closed_form("hamming", (3, 4, 5), [graphs.complete(s) for s in (3, 4, 5)], fmt="json")
    w6, w7, w8 = (b.random_factor(f"wrand{n}", n, 2) for n in (6, 7, 8))
    b.add("wiener W6xW7xW8", ["wiener", "--factors", f"{w6[0]},{w7[0]},{w8[0]}"], "wiener",
          WienerExpect(graphs.product_wiener([w6[1], w7[1], w8[1]])))
    r25 = b.random_factor("rand25", 25, 6)
    b.add("product C16xR25xC16", ["product", c16[0], r25[0], c16[0]], "edges",
          ProductExpect((c16[1], r25[1], c16[1])))
    for name, factors, vt in (("C10xC10", [c10, c10], True), ("P10xP10", [p10, p10], False)):
        b.bc_product_file(name, factors, vt=vt)
        b.bc_factors(name, factors, vt=vt)
        b.bc_factors(name, factors, "json", coords=True, vt=vt)
        b.bc_factors(name, factors, "json", vt=vt)
    b.bc_closed_form("grid", (8, 10), [graphs.path(8), graphs.path(10)], fmt="json")
    b.bc_factors("K5^3", [k5] * 3, "json", coords=True, vt=True)
    # Q7 is the slowest request; three a round put the tail among its samples.
    b.bc_factors("Q7", [k2] * 7, vt=True)
    b.bc_factors("Q7", [k2] * 7, "json", coords=True, vt=True)
    b.bc_product_file("Q7", [k2] * 7, vt=True)
    for key, sides in (("A", (26, 29)), ("B", (29, 26))):
        factors = [graphs.random_connected(n, 8, b.rng(f"{key}:{n}")) for n in sides]
        name, _ = b.file(f"wiener{key}.el", graphs.product_graph(factors))
        b.add(f"wiener {name}", ["wiener", name], "wiener", WienerExpect(graphs.product_wiener(factors)))
    return b.build()


WORKLOADS = {
    "many_factor": many_factor,
    "materialized": materialized,
}
