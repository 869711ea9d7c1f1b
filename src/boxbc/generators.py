"""Named graph families with a fixed canonical vertex ordering, and their closed forms.

Paths and cycles number vertices by position, complete graphs arbitrarily,
stars put the hub at id 0.  Grids, hypercubes, Hamming graphs and tori are
materialized as Cartesian products, so their ids follow the mixed-radix
labeling of :mod:`boxbc.product`.  The closed forms are exact formulas in a
family's parameters, except ``grid_bc``, read off the two paths' distance
profiles.  On a vertex-transitive graph of N vertices every vertex carries
``(W - C(N, 2)) / N``, and on a Cartesian product ``W / N^2`` is the sum of
the factors' shares ``W(G_i) / n_i^2`` (Yeh & Gutman 1994), so a uniform
family supplies only its factors' shares.  No closed form builds a product
graph.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import prod
from typing import Callable

from . import _bind_on_first_use
from .graph import Graph, GraphError, graph_from_edges, is_int

# The product builders and ``grid_bc`` read these names through ``_self``, this
# module, and each is imported from ``product`` on first read, as in ``cli``: a
# family that is no product, and every uniform closed form, loads no product code.
__getattr__ = _bind_on_first_use(globals(), {"product": "cartesian_product factorized_betweenness product_spec"})
_self = sys.modules[__name__]


def path(n: int) -> Graph:
    check_family("path", n)
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    check_family("cycle", n)
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    check_family("complete", n)
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    """Hub vertex 0 joined to ``leaves`` leaf vertices."""
    check_family("star", leaves)
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid(m: int, n: int) -> Graph:
    return _self.cartesian_product(family_factors("grid", m, n)).graph


def hypercube(r: int) -> Graph:
    return _self.cartesian_product(family_factors("hypercube", r)).graph


def hamming(*sizes: int) -> Graph:
    return _self.cartesian_product(family_factors("hamming", *sizes)).graph


def torus(m: int, n: int) -> Graph:
    return _self.cartesian_product(family_factors("torus", m, n)).graph


# family -> (builder, parameter count, least value of every parameter, range
# message); hamming takes any positive number of sizes (count None)
_RULES: dict[str, tuple[Callable[..., Graph], int | None, int, str]] = {
    "path": (path, 1, 1, "path needs at least 1 vertex, got {}"),
    "cycle": (cycle, 1, 3, "cycle needs at least 3 vertices, got {}"),
    "complete": (complete, 1, 1, "complete graph needs at least 1 vertex, got {}"),
    "star": (star, 1, 1, "star needs at least 1 leaf, got {}"),
    "grid": (grid, 2, 1, "grid sides must be at least 1, got {} x {}"),
    "hypercube": (hypercube, 1, 1, "hypercube dimension must be at least 1, got {}"),
    "torus": (torus, 2, 3, "torus cycle lengths must be at least 3, got {} x {}"),
    "hamming": (hamming, None, 2, "hamming factor sizes must be at least 2, got {}"),
}

FAMILIES = tuple(_RULES)


def check_family(family: str, *params: int) -> None:
    """Raise :class:`GraphError` unless ``params`` are valid for ``family``.

    The only copy of the parameter rules: every builder, :func:`generate` and
    the closed-form route call it before building or evaluating anything.
    """
    try:
        _, arity, least, message = _RULES[family]
    except KeyError:
        raise GraphError(f"unknown family {family!r}; expected one of {FAMILIES}") from None
    if arity is None and not params:
        raise GraphError("hamming graph needs at least one factor size")
    if arity is not None and len(params) != arity:
        raise GraphError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    if not all(map(is_int, params)):
        raise GraphError(f"family {family!r} parameters must be integers, got {params}")
    if any(p < least for p in params):
        raise GraphError(message.format(*params) if arity else message.format(params))


# product family -> its factors in coordinate order: the only copy, read by
# the builders above, ``grid_bc``, ``gen`` and ``bc``
_FACTORS: dict[str, Callable[..., list[Graph]]] = {
    "grid": lambda m, n: [path(m), path(n)],
    "hypercube": lambda r: [complete(2)] * r,
    "hamming": lambda *sizes: [complete(s) for s in sizes],
    "torus": lambda m, n: [cycle(m), cycle(n)],
}


def family_factors(family: str, *params: int) -> list[Graph] | None:
    """Factors of a family instance in coordinate order; None unless a product."""
    check_family(family, *params)
    build = _FACTORS.get(family)
    return None if build is None else build(*params)


def generate(family: str, *params: int) -> Graph:
    """Build a named family instance; see :data:`FAMILIES` for the names."""
    check_family(family, *params)
    return _RULES[family][0](*params)


def _transitive_bc(n: int, share: Fraction) -> Fraction:
    """Betweenness of every vertex of a vertex-transitive graph on ``n`` vertices with ``W / n^2 = share``."""
    return n * share - Fraction(n - 1, 2)


def hamming_bc(sizes) -> Fraction:
    """Betweenness of any vertex in a product of complete graphs.

    ``prod(n) * (r - 1 - sum(1/n_i)) / 2 + 1/2``; the family is vertex
    transitive, so the value is independent of the vertex.
    """
    sizes = tuple(sizes)
    check_family("hamming", *sizes)
    return _transitive_bc(prod(sizes), sum(Fraction(n - 1, 2 * n) for n in sizes))


def hypercube_bc(r: int) -> Fraction:
    """Betweenness in the r-cube: ``(r - 2) 2^(r-2) + 1/2``."""
    check_family("hypercube", r)
    return _transitive_bc(2**r, Fraction(r, 4))


def _check_cycle_sizes(sizes, parity: str | None = None) -> tuple[int, ...]:
    sizes = tuple(sizes)
    if not sizes:
        raise GraphError("cycle product needs at least one cycle length")
    minimum = 4 if parity == "even" else 3
    rule = f"at least {minimum}" if parity is None else f"{parity} and at least {minimum}"
    for n in sizes:
        if not is_int(n) or n < minimum or (parity is not None and n % 2 != (parity == "odd")):
            raise GraphError(f"cycle lengths must be {rule}, got {sizes}")
    return sizes


def _cycle_share(sizes: tuple[int, ...]) -> Fraction:
    """``W / N^2`` of a product of cycles: each ``C_n`` adds ``W(C_n) / n^2 = (n - [n odd] / n) / 8``."""
    return sum(n - Fraction(n % 2, n) for n in sizes) / 8


def _cycle_product_bc(sizes: tuple[int, ...]) -> Fraction:
    """Betweenness of every vertex of a product of cycles of any parities."""
    return _transitive_bc(prod(sizes), _cycle_share(sizes))


def even_cycles_bc(sizes) -> Fraction:
    """Betweenness in a product of even cycles, each at least 4: ``(prod(n) sum(n) - 4 (prod(n) - 1)) / 8``."""
    return _cycle_product_bc(_check_cycle_sizes(sizes, "even"))


def odd_cycles_bc(sizes) -> Fraction:
    """Betweenness in a product of odd cycles: ``(prod(n) sum(n - 1/n) - 4 (prod(n) - 1)) / 8``."""
    return _cycle_product_bc(_check_cycle_sizes(sizes, "odd"))


def torus_bc(m: int, n: int) -> Fraction:
    """Betweenness in the two-cycle product ``C_m x C_n``, for any parities of ``m`` and ``n``."""
    check_family("torus", m, n)
    return _cycle_product_bc((m, n))


def grid_bc(m: int, n: int, a: int, b: int) -> Fraction:
    """Betweenness of the vertex at 1-indexed position ``(a, b)`` in an m x n grid.

    The grid is the product of two paths, so this is the factorized value at
    coordinates ``(a - 1, b - 1)``, read off the two paths' distance profiles.
    """
    check_family("grid", m, n)
    if not (is_int(a) and is_int(b) and 1 <= a <= m and 1 <= b <= n):
        raise GraphError(f"position ({a}, {b}) outside grid 1..{m} x 1..{n}")
    return _self.factorized_betweenness(_self.product_spec(family_factors("grid", m, n)), (a - 1, b - 1))


def cycle_product_wiener(sizes) -> int:
    """Wiener index of a product of cycles of any parities: ``prod(n)^2 sum(n - [n odd] / n) / 8``."""
    sizes = _check_cycle_sizes(sizes)
    value = prod(sizes) ** 2 * _cycle_share(sizes)
    assert value.denominator == 1
    return value.numerator

