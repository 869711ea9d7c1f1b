"""Self-checking suites that cross-validate every computation route.

Each check compares two independent routes to the same quantity (for
example a closed-form formula against Brandes accumulation on the
materialized graph) over a fixed instance set, and fails fast with a
counterexample string.  ``run_verify`` executes the checks for one
scope, or all of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from time import perf_counter
from typing import Callable, Iterator

from .centrality import _definitional, betweenness
from .generators import (
    _cycle_product_bc, complete, cycle, cycle_product_wiener, even_cycles_bc, grid, grid_bc, hamming, hamming_bc,
    hypercube, hypercube_bc, odd_cycles_bc, path, star, torus, torus_bc,
)
from .graph import (
    Graph,
    GraphError,
    Record,
    all_pairs_tables,
    average_distance,
    diameter,
    distance,
    format_edge_list,
    interval,
    is_geodetic,
    pair_dependency,
    parse_edge_list,
    wiener,
)
from .product import (
    ProductGraph,
    ProductSpec,
    cartesian_product,
    factorized_betweenness_all,
    interval_membership,
    product_distance,
    product_pair_dependency,
    product_sigma,
    product_spec,
    product_wiener,
)
from .report import CentralityReport, report_from_json, report_to_csv, report_to_json, values_from_csv

SCOPES = ("core", "products", "closed-forms", "sum-identity", "cli", "all")


class CheckResult(Record):
    """Outcome of one named check within a scope."""

    scope: str
    name: str
    passed: bool
    detail: str
    seconds: float


class CheckFailure(Exception):
    """Raised inside a check body at the first counterexample."""


_CHECKS: list[tuple[str, str, Callable[[], str]]] = []


def _check(scope: str, name: str) -> Callable[[Callable[[], str]], Callable[[], str]]:
    def register(fn: Callable[[], str]) -> Callable[[], str]:
        _CHECKS.append((scope, name, fn))
        return fn

    return register


def run_verify(scope: str = "all") -> list[CheckResult]:
    """Run every check in *scope* and return their results in order.

    A check that raises fails alone; an exception other than ``CheckFailure``
    is reported by its type and message.  Each result's ``seconds`` is the
    wall time of its check body.  Checks share memoized products and BFS
    tables, and the first check to need one pays for building it, so a
    check's seconds depend on what ran before it.
    """
    if scope not in SCOPES:
        raise GraphError(f"unknown scope {scope!r}; expected one of {', '.join(SCOPES)}")
    results = []
    for check_scope, name, fn in _CHECKS:
        if scope != "all" and check_scope != scope:
            continue
        start = perf_counter()
        try:
            passed, detail = True, fn()
        except CheckFailure as failure:
            passed, detail = False, str(failure)
        except Exception as error:
            passed, detail = False, f"{type(error).__name__}: {error}"
        results.append(CheckResult(check_scope, name, passed, detail, perf_counter() - start))
    return results


# ---------------------------------------------------------------------------
# instance sets


@lru_cache(maxsize=1)
def _basket() -> tuple[tuple[str, Graph], ...]:
    # K_2 and K_3 are P_2 and C_3 as labeled graphs, so the complete graphs start at K_4
    entries: list[tuple[str, Graph]] = []
    entries.extend((f"P_{n}", path(n)) for n in range(2, 6))
    entries.extend((f"C_{n}", cycle(n)) for n in range(3, 7))
    entries.extend((f"K_{n}", complete(n)) for n in range(4, 6))
    entries.append(("star_3", star(3)))
    return tuple(entries)


@lru_cache(maxsize=None)
def _product_multisets(max_vertices: int, max_arity: int) -> tuple[tuple[str, tuple[Graph, ...]], ...]:
    """Multisets of basket factors whose product stays within *max_vertices*."""
    out = []
    for arity in range(1, max_arity + 1):
        for combo in combinations_with_replacement(_basket(), arity):
            if prod(g.vertex_count for _, g in combo) <= max_vertices:
                label = " x ".join(name for name, _ in combo)
                out.append((label, tuple(g for _, g in combo)))
    return tuple(out)


@lru_cache(maxsize=1)
def _agreement_instances() -> tuple[tuple[str, tuple[Graph, ...]], ...]:
    k2, k3, c4 = complete(2), complete(3), cycle(4)
    pairs = [entry for entry in _product_multisets(36, 2) if len(entry[1]) == 2]
    pairs.append(("Q_3", (k2, k2, k2)))
    pairs.append(("Q_4", (k2, k2, k2, k2)))
    pairs.append(("K_2 x K_2 x K_3", (k2, k2, k3)))
    # three distinct factors, not vertex transitive: several profile classes
    pairs.append(("star_3 x P_4 x C_4", (star(3), path(4), c4)))
    pairs.append(("K_2 x P_3 x C_4", (k2, path(3), c4)))
    # P_5 with a pendant at its centre has profiles of degree 4 and 3, so one prefix ends in both
    pairs.append(("K_2 x P_3 x spur_5", (k2, path(3), parse_edge_list("0 1\n1 2\n2 3\n3 4\n2 5\n"))))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _materialize(factors: tuple[Graph, ...]) -> ProductGraph:
    return cartesian_product(factors)


def _product_pairs(max_vertices: int, max_arity: int) -> Iterator[tuple[str, ProductSpec, list, tuple, int, int]]:
    """``(label, spec, coords, tables, u, v)`` for each pair ``u < v`` of each materialized product."""
    for label, factors in _product_multisets(max_vertices, max_arity):
        pg = _materialize(factors)
        coords = pg.spec.coordinates()
        tables = all_pairs_tables(pg.graph)
        n = len(coords)
        for u in range(n):
            for v in range(u + 1, n):
                yield label, pg.spec, coords, tables, u, v


def _size_multisets(min_size: int, max_product: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing size tuples with the given product bound."""

    def extend(prefix: tuple[int, ...], low: int, budget: int) -> Iterator[tuple[int, ...]]:
        if prefix:
            yield prefix
        for n in range(low, budget + 1):
            yield from extend(prefix + (n,), n, budget // n)

    yield from extend((), min_size, max_product)


# ---------------------------------------------------------------------------
# core scope


@lru_cache(maxsize=1)
def _core_instances() -> tuple[tuple[str, Graph], ...]:
    extra = (
        ("P_7", path(7)),
        ("C_7", cycle(7)),
        ("K_6", complete(6)),
        ("star_5", star(5)),
        ("grid_3x4", grid(3, 4)),
        ("Q_3", hypercube(3)),
        ("torus_3x4", torus(3, 4)),
    )
    return _basket() + extra


@_check("core", "geodesic-tables")
def _check_geodesic_tables() -> str:
    checked = 0
    for label, g in _core_instances():
        tables = all_pairs_tables(g)
        for s, table in enumerate(tables):
            if table.dist[s] != 0 or table.sigma[s] != 1:
                raise CheckFailure(f"{label}: source row broken at s={s}")
            for v in range(g.vertex_count):
                if table.sigma[v] < 1:
                    raise CheckFailure(f"{label}: unreachable vertex {v} from {s}")
                if v == s:
                    continue
                below = [w for w in g.neighbors(v) if table.dist[w] == table.dist[v] - 1]
                if not below:
                    raise CheckFailure(f"{label}: no predecessor for v={v} from s={s}")
                if table.sigma[v] != sum(table.sigma[w] for w in below):
                    raise CheckFailure(f"{label}: count recurrence broken at v={v}, s={s}")
                checked += 1
            for u, v in g.edges():
                if abs(table.dist[u] - table.dist[v]) > 1:
                    raise CheckFailure(f"{label}: edge ({u},{v}) jumps levels from s={s}")
        # the tables are the independent reference for the bit-parallel Wiener
        got = wiener(g)
        want = sum(sum(t.dist) for t in tables) // 2
        if got != want:
            raise CheckFailure(f"{label}: wiener {got} != total distance {want} from the BFS tables")
    return f"geodesic recurrence holds at {checked} vertices across {len(_core_instances())} graphs"


@_check("core", "method-agreement")
def _check_method_agreement() -> str:
    for label, g in _core_instances():
        by_def = _definitional(g)
        by_brandes = betweenness(g)
        if by_def != by_brandes:
            x = next(i for i, (a, b) in enumerate(zip(by_def, by_brandes)) if a != b)
            raise CheckFailure(
                f"{label}: vertex {x}: definitional {by_def[x]} != brandes {by_brandes[x]}"
            )
    return f"definitional and accumulation routes agree on {len(_core_instances())} graphs"


def _core_dependencies() -> Iterator[tuple[str, Graph, int, int, dict[int, Fraction]]]:
    """``(label, g, u, v, {x: delta(u,v|x)})`` for each pair ``u < v`` of each core graph of at most 12 vertices."""
    for label, g in _core_instances():
        n = g.vertex_count
        if n > 12:
            continue
        for u in range(n):
            for v in range(u + 1, n):
                yield label, g, u, v, {x: pair_dependency(g, u, v, x) for x in range(n) if x not in (u, v)}


@_check("core", "dependency-range")
def _check_dependency_range() -> str:
    triples = 0
    for label, _, u, v, deps in _core_dependencies():
        for x, value in deps.items():
            if not 0 <= value <= 1:
                raise CheckFailure(f"{label}: delta({u},{v}|{x}) = {value} outside [0,1]")
            triples += 1
    return f"pair dependencies within [0,1] on {triples} triples"


@_check("core", "dependency-sum")
def _check_dependency_sum() -> str:
    # Every interior vertex of a geodesic contributes, so the dependencies
    # over x sum to d(u,v) - 1 exactly.
    pairs = 0
    for label, g, u, v, deps in _core_dependencies():
        total = sum(deps.values())
        if total != distance(g, u, v) - 1:
            raise CheckFailure(f"{label}: sum_x delta({u},{v}|x) = {total} != d-1 = {distance(g, u, v) - 1}")
        pairs += 1
    return f"dependency totals equal d(u,v)-1 on {pairs} pairs"


@_check("core", "geodetic-flags")
def _check_geodetic_flags() -> str:
    expected = (
        ("P_5", path(5), True),
        ("star_4", star(4), True),
        ("K_4", complete(4), True),
        ("C_5", cycle(5), True),
        ("C_7", cycle(7), True),
        ("C_4", cycle(4), False),
        ("C_6", cycle(6), False),
        ("grid_2x2", grid(2, 2), False),
        ("grid_3x3", grid(3, 3), False),
        ("Q_3", hypercube(3), False),
    )
    for label, g, want in expected:
        if is_geodetic(g) is not want:
            raise CheckFailure(f"{label}: is_geodetic = {not want}, expected {want}")
        # geodetic exactly when every interval is one path: two distinct u-v geodesics differ in an inner vertex
        n = g.vertex_count
        if all(len(interval(g, u, v)) == distance(g, u, v) + 1 for u in range(n) for v in range(u)) is not want:
            raise CheckFailure(f"{label}: interval sizes disagree with flag")
    return f"geodetic classification correct on {len(expected)} graphs"


# ---------------------------------------------------------------------------
# products scope


@_check("products", "labeling-roundtrip")
def _check_labeling_roundtrip() -> str:
    vertices = 0
    for label, factors in _product_multisets(64, 6):
        spec = product_spec(factors)
        # coordinates() walks the radices in row-major order without encode or decode
        for vid, coords in enumerate(spec.coordinates()):
            if spec.encode(coords) != vid or spec.decode(vid) != coords:
                raise CheckFailure(f"{label}: labeling broken at vertex {vid}")
            vertices += 1
    return f"mixed-radix labels round-trip on {vertices} vertices"


@_check("products", "edge-stream")
def _check_edge_stream() -> str:
    products = _product_multisets(64, 6)
    edges = 0
    for label, factors in products:
        spec, g = product_spec(factors), _materialize(factors).graph
        streamed = list(spec.edges())
        if streamed != list(g.edges()):
            raise CheckFailure(f"{label}: streamed edges differ from the materialized product's")
        if format_edge_list(spec) != format_edge_list(g):
            raise CheckFailure(f"{label}: streamed edge-list text differs from the materialized product's")
        edges += len(streamed)
    return f"streamed edge lists match the materialized products on {len(products)} products ({edges} edges)"


def _pair_sweep(subject: Callable[..., int], symbol: str, field: str) -> int:
    """Compare ``subject(spec, u, v)`` with the BFS tables' ``field`` row on every product pair; count the pairs."""
    pairs = 0
    for label, spec, coords, tables, u, v in _product_pairs(64, 6):
        want = getattr(tables[u], field)[v]
        got = subject(spec, coords[u], coords[v])
        if got != want:
            raise CheckFailure(f"{label}: {symbol}({coords[u]},{coords[v]}) = {got} != {want}")
        pairs += 1
    return pairs


@_check("products", "distance-additivity")
def _check_distance_additivity() -> str:
    return f"coordinate distances match materialized distances on {_pair_sweep(product_distance, 'd', 'dist')} pairs"


@_check("products", "sigma-agreement")
def _check_sigma_agreement() -> str:
    return f"factorized geodesic counts match BFS counts on {_pair_sweep(product_sigma, 'sigma', 'sigma')} pairs"


@_check("products", "dependency-agreement")
def _check_dependency_agreement() -> str:
    triples = 0
    for label, spec, coords, tables, u, v in _product_pairs(36, 5):
        tu, tv = tables[u], tables[v]
        duv, suv = tu.dist[v], tu.sigma[v]
        for x in range(len(coords)):
            if x in (u, v):
                continue
            got = product_pair_dependency(spec, coords[u], coords[v], coords[x])
            through = tu.sigma[x] * tv.sigma[x] if tu.dist[x] + tv.dist[x] == duv else 0
            if got.numerator * suv != through * got.denominator:
                raise CheckFailure(
                    f"{label}: delta({coords[u]},{coords[v]}|{coords[x]})"
                    f" = {got} != {Fraction(through, suv)}"
                )
            triples += 1
    return f"factorized dependencies match materialized ones on {triples} triples"


@_check("products", "interval-characterization")
def _check_interval_characterization() -> str:
    triples = 0
    for label, spec, coords, tables, u, v in _product_pairs(36, 5):
        du, dv = tables[u].dist, tables[v].dist
        duv = du[v]
        for x in range(len(coords)):
            want = du[x] + dv[x] == duv
            got = interval_membership(spec, coords[u], coords[v], coords[x])
            if got is not want:
                raise CheckFailure(
                    f"{label}: membership of {coords[x]} between"
                    f" {coords[u]} and {coords[v]}: {got} != {want}"
                )
            triples += 1
    return f"per-factor interval test matches the distance test on {triples} triples"


@_check("products", "fiber-convexity")
def _check_fiber_convexity() -> str:
    # A fiber (one coordinate free, the rest pinned) is an isometric copy of
    # its factor, and geodesics between fiber vertices never leave it.
    checked = 0
    for label, factors in _product_multisets(36, 5):
        pg = _materialize(factors)
        spec = pg.spec
        tables = all_pairs_tables(pg.graph)
        for axis, factor in enumerate(spec.factors):
            for base in range(pg.graph.vertex_count):
                if spec.decode(base)[axis] != 0:
                    continue
                fiber = [base + w * spec.strides[axis] for w in range(factor.vertex_count)]
                for a_pos, u in enumerate(fiber):
                    du = tables[u].dist
                    for b_pos in range(a_pos + 1, len(fiber)):
                        v = fiber[b_pos]
                        if du[v] != distance(factor, a_pos, b_pos):
                            raise CheckFailure(f"{label}: fiber not isometric at axis {axis}")
                        for x in interval(pg.graph, u, v):
                            if x not in fiber:
                                raise CheckFailure(
                                    f"{label}: geodesic between fiber vertices {u},{v}"
                                    f" leaves the fiber through {x}"
                                )
                        checked += 1
    return f"fibers are isometric and convex on {checked} vertex pairs"


@_check("products", "diameter-additivity")
def _check_diameter_additivity() -> str:
    for label, factors in _product_multisets(64, 6):
        pg = _materialize(factors)
        want = sum(diameter(g) for g in factors)
        got = diameter(pg.graph)
        if got != want:
            raise CheckFailure(f"{label}: diameter {got} != sum of factor diameters {want}")
    return f"diameters add across factors on {len(_product_multisets(64, 6))} products"


@_check("products", "betweenness-agreement")
def _check_betweenness_agreement() -> str:
    for label, factors in _agreement_instances():
        # the reversed factor order labels the same product differently
        for order in dict.fromkeys((factors, factors[::-1])):
            pg = _materialize(order)
            by_brandes = betweenness(pg.graph)
            by_def = _definitional(pg.graph)
            by_factors = factorized_betweenness_all(pg.spec)
            if not by_brandes == by_def == by_factors:
                x = next(
                    i for i in range(len(by_brandes))
                    if not by_brandes[i] == by_def[i] == by_factors[i]
                )
                raise CheckFailure(
                    f"{label}{'' if order == factors else ' reversed'}: vertex {x}:"
                    f" brandes {by_brandes[x]}, definitional {by_def[x]},"
                    f" factorized {by_factors[x]}"
                )
    return f"three betweenness routes agree on {len(_agreement_instances())} products"


@_check("products", "wiener-agreement")
def _check_wiener_agreement() -> str:
    for label, factors in _product_multisets(64, 6):
        pg = _materialize(factors)
        want = wiener(pg.graph)
        got = product_wiener(factors)
        if got != want:
            raise CheckFailure(f"{label}: composed total distance {got} != BFS total {want}")
    return f"total-distance composition holds on {len(_product_multisets(64, 6))} products"


@_check("products", "associativity")
def _check_associativity() -> str:
    cases = (
        ("P_3, C_4, K_2", (path(3), cycle(4), complete(2))),
        ("K_2 x4", (complete(2),) * 4),
        ("P_2, P_3, P_4", (path(2), path(3), path(4))),
    )
    for label, factors in cases:
        flat = cartesian_product(factors).graph
        left = cartesian_product([cartesian_product(factors[:2]).graph, *factors[2:]]).graph
        right = cartesian_product([factors[0], cartesian_product(factors[1:]).graph]).graph
        if not flat == left == right:
            raise CheckFailure(f"{label}: regrouped products differ from the flat product")
    return f"products associate under the row-major labeling on {len(cases)} cases"


# ---------------------------------------------------------------------------
# closed-forms scope

# Second closed forms, derived apart from those in generators and evaluated
# only here as oracles for them: they share no name with the formulas they
# check and check no input, since every call below passes valid sizes.


def _uniform_kn_bc(n: int, r: int) -> Fraction:
    # Betweenness in the r-fold product of one complete graph:
    # ((r - 1) n^r - r n^(r-1) + 1) / 2, hamming_bc on the repeated size list.
    return Fraction((r - 1) * n**r - r * n ** (r - 1) + 1, 2)


def _even_cycles_bc_alt(sizes: tuple[int, ...]) -> Fraction:
    # Half-length form of even_cycles_bc: with n_i = 2 k_i,
    # 2^(r-2) prod(k) (sum(k) - 2) + 1/2.
    halves = [n // 2 for n in sizes]
    return Fraction(2) ** (len(sizes) - 2) * prod(halves) * (sum(halves) - 2) + Fraction(1, 2)


def _torus_bc_alt(m: int, n: int) -> Fraction:
    # Half-length form of torus_bc.  With m = 2 k1 (+1) and n = 2 k2 (+1) by
    # parity: odd/odd is k1 k2 (k1 + k2) + C(k1, 2) + C(k2, 2), even/even is
    # k1 k2 (k1 + k2 - 2) + 1/2, odd/even is k1 k2 (k1 + k2 - 1) + (k2 - 1)^2 / 2.
    if m % 2 == 0 and n % 2 == 1:
        m, n = n, m
    k1, k2 = m // 2, n // 2
    if m % 2 == 1 and n % 2 == 1:
        return Fraction(k1 * k2 * (k1 + k2) + comb(k1, 2) + comb(k2, 2))
    if m % 2 == 0:
        return k1 * k2 * (k1 + k2 - 2) + Fraction(1, 2)
    return k1 * k2 * (k1 + k2 - 1) + Fraction((k2 - 1) ** 2, 2)


def _debruijn_count(k: int, n: int) -> int:
    # Interleavings of k runs of n steps, (kn)! / (n!)^k: the corner-to-corner
    # geodesic count of product_sigma on the path power P_{n+1}^k.
    return factorial(k * n) // factorial(n) ** k


def _family_sweep(label: str, g: Graph, expected: Fraction) -> None:
    for x, value in enumerate(betweenness(g)):
        if value != expected:
            raise CheckFailure(f"{label}: vertex {x}: formula {expected} != brandes {value}")


@_check("closed-forms", "hamming")
def _check_hamming() -> str:
    count = 0
    for sizes in _size_multisets(2, 64):
        _family_sweep(f"H{list(sizes)}", hamming(*sizes), hamming_bc(sizes))
        count += 1
    return f"complete-factor formula matches accumulation on {count} instances"


@_check("closed-forms", "uniform-complete")
def _check_uniform_complete() -> str:
    cases = [(n, r) for n in range(2, 7) for r in range(1, 7) if n**r <= 64]
    for n, r in cases:
        want = hamming_bc([n] * r)
        got = _uniform_kn_bc(n, r)
        if got != want:
            raise CheckFailure(f"(n={n}, r={r}): uniform form {got} != general form {want}")
    return f"uniform specialization agrees on {len(cases)} (n, r) pairs"


@_check("closed-forms", "hypercube")
def _check_hypercube() -> str:
    # Q_r is H[2, ..., 2], which the hamming check accumulates for r <= 6
    for r in range(1, 9):
        if not hypercube_bc(r) == _uniform_kn_bc(2, r) == hamming_bc([2] * r):
            raise CheckFailure(f"Q_{r}: binary specializations disagree")
    return "binary-factor formula matches both specializations for r <= 8"


@_check("closed-forms", "hypercube-sigma")
def _check_hypercube_sigma() -> str:
    pairs = 0
    for r in range(1, 7):
        g = hypercube(r)
        tables = all_pairs_tables(g)
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                d = tables[u].dist[v]
                if tables[u].sigma[v] != factorial(d):
                    raise CheckFailure(
                        f"Q_{r}: sigma({u},{v}) = {tables[u].sigma[v]} != {d}!"
                    )
                pairs += 1
    return f"geodesic counts equal d! on {pairs} hypercube pairs"


@_check("closed-forms", "cycle-products")
def _check_cycle_products() -> str:
    count = 0
    for sizes in _size_multisets(3, 64):
        parities = {n % 2 for n in sizes}
        form = even_cycles_bc if parities == {0} else odd_cycles_bc if parities == {1} else _cycle_product_bc
        value = form(sizes)
        _family_sweep(f"C{list(sizes)}", _materialize(tuple(cycle(n) for n in sizes)).graph, value)
        if len(sizes) == 2 and torus_bc(*sizes) != value:
            raise CheckFailure(f"C{list(sizes)}: torus form {torus_bc(*sizes)} != cycle-product form {value}")
        count += 1
    return f"cycle-product formulas match accumulation on {count} instances"


@_check("closed-forms", "even-cycles-alt")
def _check_even_cycles_alt() -> str:
    count = 0
    for sizes in (s for k in (1, 2, 3) for s in combinations_with_replacement(range(4, 13, 2), k)):
        if even_cycles_bc(sizes) != _even_cycles_bc_alt(sizes):
            raise CheckFailure(f"C{list(sizes)}: the two even-cycle forms disagree")
        count += 1
    return f"both even-cycle forms agree on {count} size multisets"


@_check("closed-forms", "torus")
def _check_torus() -> str:
    # cycle-products accumulates each torus up to 64 vertices; this symmetric form also pins the order of the sizes
    pairs = [(m, n) for m in range(3, 13) for n in range(3, 13)]
    for m, n in pairs:
        if torus_bc(m, n) != _torus_bc_alt(m, n):
            raise CheckFailure(f"torus ({m},{n}): the two case forms disagree")
    return f"torus formula agrees with the half-length form on {len(pairs)} ordered size pairs to 12"


@_check("closed-forms", "grid")
def _check_grid() -> str:
    positions = 0
    for m in range(1, 8):
        for n in range(1, 8):
            if m * n < 2:
                continue
            g = grid(m, n)
            values = betweenness(g)
            for a in range(1, m + 1):
                for b in range(1, n + 1):
                    want = grid_bc(m, n, a, b)
                    got = values[(a - 1) * n + (b - 1)]
                    if want != got:
                        raise CheckFailure(
                            f"grid {m}x{n}: position ({a},{b}): formula {want} != brandes {got}"
                        )
                    positions += 1
            if sum(values) != wiener(g) - comb(m * n, 2):
                raise CheckFailure(f"grid {m}x{n}: totals identity broken")
    return f"grid formula matches accumulation at {positions} positions"


@_check("closed-forms", "anchors")
def _check_anchors() -> str:
    anchors: tuple[tuple[str, object, object], ...] = (
        ("hypercube_bc(2)", hypercube_bc(2), Fraction(1, 2)),
        ("hypercube_bc(3)", hypercube_bc(3), Fraction(5, 2)),
        ("hypercube_bc(4)", hypercube_bc(4), Fraction(17, 2)),
        ("hamming_bc([3,4])", hamming_bc([3, 4]), Fraction(3)),
        ("hamming_bc([2,2,2])", hamming_bc([2, 2, 2]), Fraction(5, 2)),
        ("hamming_bc([5])", hamming_bc([5]), Fraction(0)),
        ("_uniform_kn_bc(2,3)", _uniform_kn_bc(2, 3), Fraction(5, 2)),
        ("_uniform_kn_bc(3,2)", _uniform_kn_bc(3, 2), Fraction(2)),
        ("_uniform_kn_bc(7,1)", _uniform_kn_bc(7, 1), Fraction(0)),
        ("torus_bc(3,4)", torus_bc(3, 4), Fraction(9, 2)),
        ("torus_bc(4,6)", torus_bc(4, 6), Fraction(37, 2)),
        ("torus_bc(5,5)", torus_bc(5, 5), Fraction(18)),
        ("torus_bc(3,3)", torus_bc(3, 3), Fraction(2)),
        ("even_cycles_bc([4])", even_cycles_bc([4]), Fraction(1, 2)),
        ("even_cycles_bc([6])", even_cycles_bc([6]), Fraction(2)),
        ("even_cycles_bc([4,4])", even_cycles_bc([4, 4]), Fraction(17, 2)),
        ("odd_cycles_bc([5])", odd_cycles_bc([5]), Fraction(1)),
        ("odd_cycles_bc([3,3])", odd_cycles_bc([3, 3]), Fraction(2)),
        ("odd_cycles_bc([5,5])", odd_cycles_bc([5, 5]), Fraction(18)),
        ("grid_bc(3,3,2,2)", grid_bc(3, 3, 2, 2), Fraction(32, 3)),
        ("grid_bc(3,3,1,1)", grid_bc(3, 3, 1, 1), Fraction(4, 3)),
        ("grid_bc(1,5,1,3)", grid_bc(1, 5, 1, 3), Fraction(4)),
        ("cycle_product_wiener([4])", cycle_product_wiener([4]), 8),
        ("cycle_product_wiener([5])", cycle_product_wiener([5]), 15),
        ("cycle_product_wiener([7])", cycle_product_wiener([7]), 42),
        ("cycle_product_wiener([4,4])", cycle_product_wiener([4, 4]), 256),
        ("cycle_product_wiener([3,3])", cycle_product_wiener([3, 3]), 54),
        ("_debruijn_count(2,2)", _debruijn_count(2, 2), 6),
        ("_debruijn_count(2,3)", _debruijn_count(2, 3), 20),
        ("_debruijn_count(3,3)", _debruijn_count(3, 3), 1680),
    )
    for label, got, want in anchors:
        if got != want:
            raise CheckFailure(f"{label} = {got}, expected {want}")
    return f"all {len(anchors)} pinned values reproduced exactly"


@_check("closed-forms", "debruijn-lattice-paths")
def _check_debruijn() -> str:
    # corner-to-corner geodesics in the path power P_{n+1}^k are the
    # interleavings of k runs of n steps
    checked = 0
    for k in range(1, 4):
        for n in range(0, 4):
            spec = product_spec([path(n + 1)] * k)
            got = product_sigma(spec, (0,) * k, (n,) * k)
            if got != _debruijn_count(k, n):
                raise CheckFailure(f"(k={k}, n={n}): lattice count {got} != {_debruijn_count(k, n)}")
            checked += 1
    for n in range(0, 9):
        if _debruijn_count(2, n) != comb(2 * n, n):
            raise CheckFailure(f"(k=2, n={n}): count is not a central binomial coefficient")
    return f"interleaving counts match lattice geodesics on {checked} (k, n) pairs"


@_check("closed-forms", "cycle-product-wiener")
def _check_cycle_product_wiener() -> str:
    # the one-cycle multisets C_3 .. C_64 compare each cycle's form with its BFS Wiener index
    count = 0
    for sizes in _size_multisets(3, 64):
        want = product_wiener(tuple(cycle(n) for n in sizes))
        got = cycle_product_wiener(sizes)
        if got != want:
            raise CheckFailure(f"C{list(sizes)}: closed form {got} != composed {want}")
        count += 1
    return f"total-distance form agrees on {count} multisets of any parities"


# ---------------------------------------------------------------------------
# sum-identity scope


@lru_cache(maxsize=1)
def _sum_identity_instances() -> tuple[tuple[str, Graph], ...]:
    entries = [(label, _materialize(factors).graph) for label, factors in _agreement_instances()]
    entries.extend(
        (label, g)
        for label, g in (
            ("H(3,4)", hamming(3, 4)),
            ("torus_4x6", torus(4, 6)),
            ("torus_5x5", torus(5, 5)),
            ("grid_6x7", grid(6, 7)),
            ("C_3 x C_3 x C_3", _materialize((cycle(3),) * 3).graph),
        )
    )
    return tuple(entries)


@_check("sum-identity", "totals")
def _check_totals() -> str:
    # Summing dependencies by pair instead of by vertex gives d(u,v) - 1
    # per pair, so the betweenness total is the total distance minus the
    # number of pairs; the mean distance is checked against the BFS tables.
    for label, g in _sum_identity_instances():
        n = g.vertex_count
        total = sum(betweenness(g))
        w = wiener(g)
        if total != w - comb(n, 2):
            raise CheckFailure(
                f"{label}: sum B = {total} but W - C(n,2) = {w - comb(n, 2)}"
            )
        if average_distance(g) != Fraction(sum(sum(t.dist) for t in all_pairs_tables(g)), 2 * comb(n, 2)):
            raise CheckFailure(f"{label}: mean distance disagrees with total distance")
    return f"sum identity holds on {len(_sum_identity_instances())} graphs"


# ---------------------------------------------------------------------------
# cli scope


@_check("cli", "edge-list-roundtrip")
def _check_edge_list_roundtrip() -> str:
    instances = (
        ("P_6", path(6)),
        ("C_5", cycle(5)),
        ("K_5", complete(5)),
        ("star_4", star(4)),
        ("grid_3x4", grid(3, 4)),
        ("Q_3", hypercube(3)),
        ("H(2,3,4)", hamming(2, 3, 4)),
        ("torus_3x4", torus(3, 4)),
        ("P_3 x C_4", _materialize((path(3), cycle(4))).graph),
    )
    for label, g in instances:
        if parse_edge_list(format_edge_list(g)) != g:
            raise CheckFailure(f"{label}: edge-list round trip changed the graph")
    return f"edge lists round-trip on {len(instances)} graphs"


@_check("cli", "report-exactness")
def _check_report_exactness() -> str:
    reports = (
        CentralityReport("brandes", "grid 3x3", betweenness(grid(3, 3))),
        CentralityReport("brandes", "C_3 x P_4", betweenness(_materialize((cycle(3), path(4))).graph)),
    )
    for report in reports:
        decoded = values_from_csv(report_to_csv(report))
        if tuple(decoded[str(x)] for x in range(len(report.values))) != report.values:
            raise CheckFailure(f"{report.graph}: CSV round trip lost exactness")
        if report_from_json(report_to_json(report)) != report:
            raise CheckFailure(f"{report.graph}: JSON round trip changed the report")
    return f"serialized reports reconstruct exactly on {len(reports)} reports"
