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

from .geodesic import GeodesicTable, all_pairs_tables, wiener
from .graph import Graph, GraphError, require_connected
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
    # Offsets from a vertex to its neighbours, built from the last factor
    # outwards.  Neighbours along factor i differ by multiples of stride i,
    # and every later factor moves less than one stride i, so a vertex's
    # sorted offsets are its factor-i lower neighbours, then the offsets of
    # its suffix coordinates, then its factor-i upper neighbours.
    offsets: list[tuple[int, ...]] = [()]
    for factor, stride in zip(reversed(spec.factors), reversed(spec.strides)):
        sides = [
            (tuple((w - c) * stride for w in nbrs if w < c), tuple((w - c) * stride for w in nbrs if w > c))
            for c, nbrs in enumerate(factor.adjacency)
        ]
        offsets = [lower + rest + upper for lower, upper in sides for rest in offsets]
    adjacency = tuple(tuple(map(vid.__add__, offs)) for vid, offs in enumerate(offsets))
    return ProductGraph(spec, Graph(adjacency))


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


def _sigma(tables: Sequence[Sequence[GeodesicTable]], u: Coords, v: Coords) -> int:
    count = 1
    dists = []
    for factor, a, b in zip(tables, u, v):
        t = factor[a]
        count *= t.sigma[b]
        dists.append(t.dist[b])
    return count * _multinomial(dists)


def _between(tables: Sequence[Sequence[GeodesicTable]], u: Coords, v: Coords, x: Coords) -> bool:
    # a plain loop with an early return: all() over a generator measured about 1.7x slower
    for factor, a, b, c in zip(tables, u, v, x):
        ta = factor[a]
        if ta.dist[c] + factor[c].dist[b] != ta.dist[b]:
            return False
    return True


def product_sigma(spec: ProductSpec, u: Sequence[int], v: Sequence[int]) -> int:
    """Geodesic count in the product.

    The product of the factor counts, times the multinomial coefficient that
    counts the interleavings of the per-factor steps.
    """
    return _sigma(spec.factor_tables, _check_coords(spec, u), _check_coords(spec, v))


def interval_membership(spec: ProductSpec, v1: Sequence[int], v2: Sequence[int], v3: Sequence[int]) -> bool:
    """True when ``v3`` lies on a shortest ``v1``-``v2`` path in the product.

    Holds exactly when every coordinate of ``v3`` lies in the corresponding
    factor interval, which is a per-factor distance test.
    """
    return _between(spec.factor_tables, _check_coords(spec, v1), _check_coords(spec, v2), _check_coords(spec, v3))


def product_pair_dependency(spec: ProductSpec, u: Sequence[int], v: Sequence[int], x: Sequence[int]) -> Fraction:
    """Pair dependency of ``{u, v}`` on ``x``, from factor tables alone.

    Computes ``sigma(u,x) * sigma(x,v) / sigma(u,v)`` with every sigma in its
    factorized form, or 0 for an endpoint ``x`` or one off the interval.  A
    factor where ``u`` and ``v`` coincide contributes a unit count, so
    coincident projections need no special casing.
    """
    u = _check_coords(spec, u)
    v = _check_coords(spec, v)
    x = _check_coords(spec, x)
    if u == v:
        raise GraphError("pair dependency needs two distinct endpoints")
    tables = spec.factor_tables
    if x == u or x == v or not _between(tables, u, v, x):
        return ZERO
    return Fraction(_sigma(tables, u, x) * _sigma(tables, x, v), _sigma(tables, u, v))


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
