"""Cartesian products and factorized distance, geodesic-count and dependency formulas.

A product vertex is a coordinate vector, one coordinate per factor.  Distances
add across factors, and a geodesic in the product interleaves one geodesic per
factor, so the count multiplies the factor counts by the number of ways to
interleave the factor steps (a multinomial coefficient).  Pair dependencies
therefore factor through per-factor geodesic tables, and betweenness of a
product vertex never needs a search of the product itself.

Betweenness goes one step further.  With ``a_i = d(u_i,x_i)``,
``b_i = d(x_i,v_i)``, ``A = sum a_i`` and ``B = sum b_i``, the dependency of
``(u, v)`` on ``x`` is ``A! B! / (A+B)!`` times the product over factors of
``sigma(u_i,x_i) sigma(x_i,v_i) / sigma(u_i,v_i) * C(a_i+b_i, a_i)``.  So each
factor vertex gets a distance profile, a polynomial in ``(a, b)`` summing its
factor terms, built in ``O(n_i^3)`` per factor; a product vertex's betweenness
is read off the product of its coordinates' profiles.  Equal profiles share
one id, so the value depends only on the sorted ids, and a vertex-transitive
product needs a single polynomial product.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import comb, lcm, prod
from typing import Iterable, Sequence

from .centrality import wiener
from .geodesic import GeodesicTable, all_pairs_tables
from .graph import Graph, GraphError, graph_from_edges, require_connected
from .record import Record

Coords = tuple[int, ...]
Profile = tuple[tuple[tuple[int, int], Fraction], ...]
ZERO = Fraction(0)


class ProductSpec(Record):
    """Ordered factor list plus the mixed-radix labeling of the product vertices.

    Vertex ids are row-major: ``id = sum(v[i] * prod(radices[i+1:]))``, so the
    last coordinate varies fastest.  ``encode``/``decode`` are mutually inverse
    on ``0..vertex_count-1``.
    """

    factors: tuple[Graph, ...]

    @cached_property
    def radices(self) -> tuple[int, ...]:
        return tuple(f.vertex_count for f in self.factors)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = [1] * len(self.factors)
        for i in range(len(self.factors) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.radices[i + 1]
        return tuple(strides)

    @cached_property
    def factor_tables(self) -> tuple[tuple[GeodesicTable, ...], ...]:
        """All-pairs geodesic tables of every factor, in factor order."""
        return tuple(all_pairs_tables(f) for f in self.factors)

    @cached_property
    def vertex_count(self) -> int:
        return prod(self.radices)

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.factors):
            raise GraphError(f"expected {len(self.factors)} coordinates, got {len(coords)}")
        vid = 0
        for c, radix, stride in zip(coords, self.radices, self.strides):
            if not 0 <= c < radix:
                raise GraphError(f"coordinate {c} out of range 0..{radix - 1}")
            vid += c * stride
        return vid

    def decode(self, vid: int) -> Coords:
        if not 0 <= vid < self.vertex_count:
            raise GraphError(f"vertex id {vid} out of range 0..{self.vertex_count - 1}")
        coords = []
        for radix in reversed(self.radices):
            vid, c = divmod(vid, radix)
            coords.append(c)
        return tuple(reversed(coords))

    def coordinates(self) -> list[Coords]:
        """All coordinate vectors in vertex-id order."""
        return [self.decode(vid) for vid in range(self.vertex_count)]


class ProductGraph(Record):
    """A product spec together with the materialized graph on the labeled vertices."""

    spec: ProductSpec
    graph: Graph


def product_spec(factors: Iterable[Graph]) -> ProductSpec:
    """Validated :class:`ProductSpec`; every factor must be connected and non-empty."""
    factors = tuple(factors)
    if not factors:
        raise GraphError("a product needs at least one factor")
    for f in factors:
        if f.vertex_count == 0:
            raise GraphError("a product factor cannot be empty")
        require_connected(f)
    return ProductSpec(factors)


def cartesian_product(factors: Iterable[Graph]) -> ProductGraph:
    """Materialize the Cartesian product under the mixed-radix labeling.

    Two product vertices are adjacent when their coordinates differ in exactly
    one position and that pair is an edge of the corresponding factor.
    """
    spec = product_spec(factors)
    edges: list[tuple[int, int]] = []
    for vid in range(spec.vertex_count):
        coords = spec.decode(vid)
        for i, factor in enumerate(spec.factors):
            stride = spec.strides[i]
            ci = coords[i]
            for w in factor.adjacency[ci]:
                if w > ci:
                    edges.append((vid, vid + (w - ci) * stride))
    return ProductGraph(spec, graph_from_edges(spec.vertex_count, edges))


def _check_coords(spec: ProductSpec, coords: Sequence[int]) -> Coords:
    spec.encode(coords)
    return tuple(coords)


def _multinomial(parts: Iterable[int]) -> int:
    # number of interleavings of blocks with the given sizes: (sum parts)! / prod(part!)
    total = 0
    result = 1
    for p in parts:
        total += p
        result *= comb(total, p)
    return result


def product_distance(spec: ProductSpec, u: Sequence[int], v: Sequence[int]) -> int:
    """Distance in the product: the sum of per-factor distances."""
    u = _check_coords(spec, u)
    v = _check_coords(spec, v)
    tables = spec.factor_tables
    return sum(tables[i][u[i]].dist[v[i]] for i in range(len(spec.factors)))


def product_sigma(spec: ProductSpec, u: Sequence[int], v: Sequence[int]) -> int:
    """Geodesic count in the product.

    The product of the factor counts, times the multinomial coefficient that
    counts the interleavings of the per-factor steps.
    """
    u = _check_coords(spec, u)
    v = _check_coords(spec, v)
    tables = spec.factor_tables
    count = 1
    dists = []
    for i in range(len(spec.factors)):
        t = tables[i][u[i]]
        count *= t.sigma[v[i]]
        dists.append(t.dist[v[i]])
    return count * _multinomial(dists)


def interval_membership(spec: ProductSpec, v1: Sequence[int], v2: Sequence[int], v3: Sequence[int]) -> bool:
    """True when ``v3`` lies on a shortest ``v1``-``v2`` path in the product.

    Holds exactly when every coordinate of ``v3`` lies in the corresponding
    factor interval, which is the per-factor distance test below.
    """
    v1 = _check_coords(spec, v1)
    v2 = _check_coords(spec, v2)
    v3 = _check_coords(spec, v3)
    tables = spec.factor_tables
    for i in range(len(spec.factors)):
        ta = tables[i][v1[i]]
        tc = tables[i][v3[i]]
        if ta.dist[v3[i]] + tc.dist[v2[i]] != ta.dist[v2[i]]:
            return False
    return True


def product_pair_dependency(spec: ProductSpec, u: Sequence[int], v: Sequence[int], x: Sequence[int]) -> Fraction:
    """Pair dependency of ``{u, v}`` on ``x``, from factor tables alone.

    Computes ``sigma(u,x) * sigma(x,v) / sigma(u,v)`` with every sigma in its
    factorized form.  Factors where ``u`` and ``v`` project to the same vertex
    contribute a unit count, and an endpoint projection contributes the full
    factor count, so coincident projections need no special casing.
    """
    u = _check_coords(spec, u)
    v = _check_coords(spec, v)
    x = _check_coords(spec, x)
    if u == v:
        raise GraphError("pair dependency needs two distinct endpoints")
    if x == u or x == v:
        return ZERO
    tables = spec.factor_tables
    num = 1
    den = 1
    d_ux: list[int] = []
    d_xv: list[int] = []
    d_uv: list[int] = []
    for i in range(len(spec.factors)):
        ta = tables[i][u[i]]
        tx = tables[i][x[i]]
        a, b, c = u[i], v[i], x[i]
        dac = ta.dist[c]
        dcb = tx.dist[b]
        dab = ta.dist[b]
        if dac + dcb != dab:
            return ZERO
        num *= ta.sigma[c] * tx.sigma[b]
        den *= ta.sigma[b]
        d_ux.append(dac)
        d_xv.append(dcb)
        d_uv.append(dab)
    num *= _multinomial(d_ux) * _multinomial(d_xv)
    den *= _multinomial(d_uv)
    return Fraction(num, den)


def _profile(tables: Sequence[GeodesicTable], x: int) -> Profile:
    """Distance profile of factor vertex ``x``: a polynomial in ``(a, b)``.

    Sums ``sigma(u,x) * sigma(x,v) / sigma(u,v) * C(a+b, a)`` over the ordered
    factor pairs ``(u, v)`` with ``x`` on a ``u``-``v`` geodesic, keyed by
    ``a = d(u,x)`` and ``b = d(x,v)``.  The pair ``(x, x)`` gives the constant
    term 1.  Returned as sorted ``((a, b), coefficient)`` items, so equal
    profiles compare and hash equal whatever graph they came from.
    """
    tx = tables[x]
    x_dist, x_sigma = tx.dist, tx.sigma
    # integer sums keyed by (a, b, sigma(u,v)), so the n^2 loop never builds a Fraction
    sums: dict[tuple[int, int, int], int] = {}
    for tu in tables:
        a = tu.dist[x]
        s_ux = tu.sigma[x]
        for b, s_xv, d_uv, s_uv in zip(x_dist, x_sigma, tu.dist, tu.sigma):
            if a + b == d_uv:
                key = (a, b, s_uv)
                sums[key] = sums.get(key, 0) + s_ux * s_xv
    coefficients: dict[tuple[int, int], Fraction] = {}
    for (a, b, s_uv), num in sums.items():
        coefficients[a, b] = coefficients.get((a, b), ZERO) + Fraction(num * comb(a + b, a), s_uv)
    return tuple(sorted(coefficients.items()))


def _class_betweenness(profiles: Iterable[Profile]) -> Fraction:
    """Betweenness of a product vertex whose coordinates have these profiles.

    Multiplies the profiles; the coefficient at ``(A, B)`` then sums
    ``sigma(u,x) * sigma(x,v) / sigma(u,v) * C(A+B, A)`` over the ordered
    product pairs at those distances from ``x``.  Dividing by ``C(A+B, A)``
    and halving over ``A, B > 0`` gives the sum over unordered pairs that
    avoid ``x``.  Coefficients are scaled to integers for the product.
    """
    poly = {(0, 0): 1}
    scale = 1
    for profile in profiles:
        den = lcm(*(c.denominator for _, c in profile))
        scale *= den
        terms = [(a, b, c.numerator * (den // c.denominator)) for (a, b), c in profile]
        step: dict[tuple[int, int], int] = {}
        for (a0, b0), c0 in poly.items():
            for a, b, c in terms:
                key = (a0 + a, b0 + b)
                step[key] = step.get(key, 0) + c0 * c
        poly = step
    inner = [(comb(a + b, a), c) for (a, b), c in poly.items() if a and b]
    common = lcm(*(binomial for binomial, _ in inner))
    return Fraction(sum(c * (common // binomial) for binomial, c in inner), 2 * common * scale)


def factorized_betweenness(spec: ProductSpec, x: Sequence[int]) -> Fraction:
    """Betweenness of one product vertex, summed over unordered product pairs.

    Builds one profile per coordinate, ``O(n_i^2)`` each from the factor
    geodesic tables; the product graph is never materialized or searched.
    """
    x = _check_coords(spec, x)
    return _class_betweenness(_profile(all_pairs_tables(f), c) for f, c in zip(spec.factors, x))


def factorized_betweenness_all(spec: ProductSpec) -> tuple[Fraction, ...]:
    """Betweenness of every product vertex, one profile product per class.

    Profiles are built once per distinct factor and interned by content, so
    a vertex's class is the sorted tuple of its coordinates' profile ids.
    Values are memoized per class and listed in vertex-id order.
    """
    ids: dict[Profile, int] = {}
    by_factor: dict[Graph, tuple[int, ...]] = {}
    for f in spec.factors:
        if f not in by_factor:
            tables = all_pairs_tables(f)
            by_factor[f] = tuple(ids.setdefault(_profile(tables, x), len(ids)) for x in range(f.vertex_count))
    profiles = tuple(ids)
    memo: dict[tuple[int, ...], Fraction] = {}
    values = []
    for coordinate_ids in itertools.product(*(by_factor[f] for f in spec.factors)):
        key = tuple(sorted(coordinate_ids))
        value = memo.get(key)
        if value is None:
            value = memo[key] = _class_betweenness(profiles[i] for i in key)
        values.append(value)
    return tuple(values)


def product_wiener(factors: Iterable[Graph]) -> int:
    """Wiener index of the product from the factor indices alone.

    ``sum_i W(G_i) * prod_{j != i} |G_j|^2``; no product materialization.
    """
    spec = product_spec(factors)
    radices = spec.radices
    return sum(
        wiener(factor) * prod(r * r for j, r in enumerate(radices) if j != i)
        for i, factor in enumerate(spec.factors)
    )
