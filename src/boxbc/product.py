"""Cartesian products, their edge lists, and the betweenness of product vertices from the factors.

A product vertex is a coordinate vector, one coordinate per factor.  Distances
add across factors, and a geodesic in the product interleaves one geodesic per
factor, so the count multiplies the factor counts by the number of ways to
interleave the factor steps (a multinomial coefficient).  Pair dependencies
therefore factor through per-factor geodesic tables, and betweenness of a
product vertex never needs a search of the product itself.  The one-pair
queries built on this live in :mod:`boxbc.queries`.

Betweenness goes one step further.  With ``a_i = d(u_i,x_i)``,
``b_i = d(x_i,v_i)``, ``A = sum a_i`` and ``B = sum b_i``, the dependency of
``(u, v)`` on ``x`` is ``A! B! / (A+B)!`` times the product over factors of
``sigma(u_i,x_i) sigma(x_i,v_i) / sigma(u_i,v_i) * C(a_i+b_i, a_i)``.  So each
factor vertex gets a distance profile, a polynomial in ``(a, b)`` summing its
factor terms; a product vertex's betweenness is one integral over ``[0, 1]``
of the product of its coordinates' profiles on the line ``(t, 1 - t)``.
Equal pair sums share one id and one profile, so the value depends only on
the sorted ids, and a vertex-transitive product needs a single class.  The
integral is linear in the last profile, so the classes that differ only in
their last id share one product of the others' profiles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .graph import GeodesicTable, Graph, GraphError, Record, all_pairs_tables, is_vertex_id, require_connected, wiener

Coords = tuple[int, ...]
Offsets = tuple[int, ...]
Profile = tuple[tuple[int, ...], tuple[int, ...], int]
Sums = frozenset[tuple[tuple[int, int, int], int]]


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
        return sum(c * stride for c, stride in zip(_check_coords(self, coords), self.strides))

    def decode(self, vid: int) -> Coords:
        if not is_vertex_id(vid, self.vertex_count):
            raise GraphError(f"vertex id {vid} out of range 0..{self.vertex_count - 1}")
        coords = []
        for radix in reversed(self.radices):
            vid, c = divmod(vid, radix)
            coords.append(c)
        return tuple(reversed(coords))

    def coordinates(self) -> list[Coords]:
        """All coordinate vectors in vertex-id order."""
        return list(itertools.product(*map(range, self.radices)))

    @cached_property
    def _neighbour_offsets(self) -> tuple[tuple[tuple[Offsets, Offsets], ...], ...]:
        """Per factor, per coordinate ``c``: the ascending id offsets ``(lower, upper)`` of its neighbours.

        A neighbour ``w`` of ``c`` in factor ``i`` is ``(w - c) * strides[i]``
        away, and every later factor moves an id by less than one stride ``i``.
        """
        return tuple(
            tuple(
                (tuple((w - c) * stride for w in nbrs if w < c), tuple((w - c) * stride for w in nbrs if w > c))
                for c, nbrs in enumerate(factor.adjacency)
            )
            for factor, stride in zip(self.factors, self.strides)
        )

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each product edge once as ``(u, v)`` with ``u < v``, in sorted order.

        Streams from the offset tables; the product is never built.  A
        vertex's upper offsets ascend through the last factor's, then each
        earlier factor's, and ``itertools.product`` walks the ids in order.
        """
        uppers = [tuple(upper for _, upper in sides) for sides in self._neighbour_offsets]
        for u, combo in enumerate(itertools.product(*uppers)):
            for offsets in reversed(combo):
                for d in offsets:
                    yield u, u + d


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


def cartesian_product(factors: Iterable[Graph] | ProductSpec) -> ProductGraph:
    """Materialize the Cartesian product under the mixed-radix labeling.

    Two product vertices are adjacent when their coordinates differ in exactly
    one position and that pair is an edge of the corresponding factor.  A
    :class:`ProductSpec` from :func:`product_spec` is used as it is, so its
    factors are not validated again.
    """
    spec = factors if isinstance(factors, ProductSpec) else product_spec(factors)
    # A vertex's sorted offsets are its factor-i lower neighbours, then the
    # offsets of its suffix coordinates, then its factor-i upper neighbours
    # (see ProductSpec._neighbour_offsets), built from the last factor outwards.
    offsets: list[tuple[int, ...]] = [()]
    for sides in reversed(spec._neighbour_offsets):
        offsets = [lower + rest + upper for lower, upper in sides for rest in offsets]
    adjacency = tuple(tuple(map(vid.__add__, offs)) for vid, offs in enumerate(offsets))
    return ProductGraph(spec, Graph(adjacency))


def _check_coords(spec: ProductSpec, coords: Sequence[int]) -> Coords:
    """The one coordinate check: ``coords`` as a tuple, or :class:`GraphError`."""
    coords = tuple(coords)
    if len(coords) != len(spec.factors):
        raise GraphError(f"expected {len(spec.factors)} coordinates, got {len(coords)}")
    for c, radix in zip(coords, spec.radices):
        # the exact-int test settles almost every call before is_vertex_id's two isinstance checks
        if not (type(c) is int and 0 <= c < radix or is_vertex_id(c, radix)):
            raise GraphError(f"coordinate {c} out of range 0..{radix - 1}")
    return coords


def _sums(tables: Sequence[GeodesicTable], x: int) -> Sums:
    """Pair sums of factor vertex ``x``, hashable so that equal ones share one :func:`_profile`.

    Maps ``(a, b, sigma(u,v))`` to the sum of ``sigma(u,x) * sigma(x,v)`` over the ordered factor pairs
    ``(u, v)`` with ``x`` on a geodesic, ``a = d(u,x)`` and ``b = d(x,v)``; the n^2 loop builds no Fraction.
    """
    x_dist, x_sigma = tables[x].dist, tables[x].sigma
    sums: dict[tuple[int, int, int], int] = {}
    for tu in tables:
        a = tu.dist[x]
        s_ux = tu.sigma[x]
        for b, s_xv, d_uv, s_uv in zip(x_dist, x_sigma, tu.dist, tu.sigma):
            if a + b == d_uv:
                key = (a, b, s_uv)
                sums[key] = sums.get(key, 0) + s_ux * s_xv
    return frozenset(sums.items())


def _profile(sums: Sums) -> Profile:
    """Distance profile on the line ``(t, 1 - t)`` of a factor vertex with these :func:`_sums`.

    The profile ``P`` sums ``sigma(u,x) * sigma(x,v) / sigma(u,v) * C(a+b, a) x^a y^b`` over those pairs.
    Returns ``(p, e, den)``: the coefficients in ``t`` of ``den * P(t, 1-t)`` and of ``den * EP(t, 1-t)``,
    ``E`` weighting each term by ``a + b``, in lowest terms: only to keep small the integers :func:`_class_values`
    multiplies across factors (a vertex of C_4 x C_4 has ``den`` 1, not 24); values are exact either way.
    """
    den = lcm(*(s_uv for (_, _, s_uv), _ in sums))
    degree = max(a + b for (a, b, _), _ in sums)
    rows = [[0] * (degree + 1) for _ in range(degree + 1)]  # rows[b][a]: den times the x^a y^b coefficient
    for (a, b, s_uv), num in sums:
        rows[b][a] += num * comb(a + b, a) * (den // s_uv)
    # Horner's rule in y = 1 - t; every partial sum has degree at most ``degree``
    p = e = [0] * (degree + 1)
    for b in range(degree, -1, -1):
        p = [c - d + r for c, d, r in zip(p, [0, *p], rows[b])]
        e = [c - d + (a + b) * r for a, (c, d, r) in enumerate(zip(e, [0, *e], rows[b]))]
    g = gcd(den, *p, *e)
    return tuple(c // g for c in p), tuple(c // g for c in e), den // g


def _times(f: Sequence[int], g: Sequence[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g, i):
            out[j] += c * d
    return out


def _class_values(profiles: Sequence[Profile], keys: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], Fraction]:
    """Betweenness by class: each key is the sorted profile ids of a product vertex's coordinates.

    The product ``F`` of the key's profiles sums ``sigma(u,x) * sigma(x,v) / sigma(u,v) * C(A+B, A) x^A y^B``
    over the ordered product pairs.  Since ``1 / C(A+B, A) = (A+B+1) * integral_0^1 t^A (1-t)^B dt``, the sum
    over unordered pairs that avoid ``x`` is ``(integral_0^1 G(t, 1-t) dt - F(0,1) - F(1,0) + 1) / 2`` with
    ``G = F + EF``; ``E`` is a derivation, so ``(F, G)`` multiplies through the profiles as a dual number.
    ``G`` is linear in the last profile ``(p, e)``: each prefix, the key minus its last id, builds its
    ``(F, G)`` once, with the moments ``M_j`` of ``G`` and ``N_j`` of ``F`` against ``L / (i + j + 1)``,
    and a class costs ``sum_j p_j M_j + e_j N_j``.
    """
    values = {}
    for prefix, group in itertools.groupby(sorted(keys), key=lambda key: key[:-1]):
        group = list(group)
        f, g, scale = [1], [1], 1
        for p, e, den in map(profiles.__getitem__, prefix):
            f, g = _times(f, p), [c + d for c, d in zip(_times(g, p), _times(f, e))]
            scale *= den
        width = max(len(profiles[key[-1]][0]) for key in group)
        common = lcm(*range(1, len(f) + width))
        weights = [common // k for k in range(1, len(f) + width)]
        m, n = ([sum(map(mul, h, weights[j:])) for j in range(width)] for h in (g, f))
        for key in group:
            p, e, den = profiles[key[-1]]
            integral = sum(map(mul, p, m)) + sum(map(mul, e, n))
            ends = f[0] * p[0] + sum(f) * sum(p) - scale * den
            values[key] = Fraction(integral - common * ends, 2 * common * scale * den)
    return values


def factorized_betweenness(spec: ProductSpec, x: Sequence[int]) -> Fraction:
    """Betweenness of one product vertex: its coordinates' profiles as one class; the product is never searched."""
    x = _check_coords(spec, x)
    key = tuple(range(len(x)))
    return _class_values([_profile(_sums(all_pairs_tables(f), c)) for f, c in zip(spec.factors, x)], [key])[key]


def factorized_betweenness_all(spec: ProductSpec) -> tuple[Fraction, ...]:
    """Betweenness of every product vertex, one value per class.

    Pair sums are built once per distinct factor and interned by content, and each distinct one expands to one
    profile; a vertex's class is the sorted tuple of its coordinates' ids, and each class is evaluated once.
    """
    ids: dict[Sums, int] = {}
    by_factor: dict[Graph, tuple[int, ...]] = {}
    for f in spec.factors:
        if f not in by_factor:
            tables = all_pairs_tables(f)
            by_factor[f] = tuple(ids.setdefault(_sums(tables, x), len(ids)) for x in range(f.vertex_count))
    classes: dict[tuple[int, ...], tuple[int, ...]] = {}
    coordinate_ids = itertools.product(*map(by_factor.get, spec.factors))
    keys = [classes.setdefault(key, key) for key in map(tuple, map(sorted, coordinate_ids))]
    values = _class_values(tuple(map(_profile, ids)), classes)
    return tuple(map(values.__getitem__, keys))


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
