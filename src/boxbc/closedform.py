"""Closed-form betweenness and Wiener values for product families.

Each function evaluates an exact formula in the integer parameters of the
family, except ``grid_bc``, which reads the grid's values off its two paths'
distance profiles; no product graph is built.  Cycles, tori and products of
cycles of any parities share one formula: a product of cycles is vertex
transitive, so every vertex carries ``(W - C(N, 2)) / N``, and its total
distance W composes from one term per cycle.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .generators import check_family, family_factors
from .graph import GraphError, is_int
from .product import factorized_betweenness, product_spec

HALF = Fraction(1, 2)


def hamming_bc(sizes) -> Fraction:
    """Betweenness of any vertex in a product of complete graphs.

    ``prod(n) * (r - 1 - sum(1/n_i)) / 2 + 1/2``; the family is vertex
    transitive, so the value is independent of the vertex.
    """
    sizes = tuple(sizes)
    check_family("hamming", *sizes)
    r = len(sizes)
    inverse_sum = sum(Fraction(1, n) for n in sizes)
    return Fraction(prod(sizes), 2) * (r - 1 - inverse_sum) + HALF


def hypercube_bc(r: int) -> Fraction:
    """Betweenness in the r-cube: ``(r - 2) 2^(r-2) + 1/2``."""
    check_family("hypercube", r)
    return (r - 2) * Fraction(2) ** (r - 2) + HALF


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


def _cycle_term(n: int) -> Fraction:
    """``n - [n odd] / n``, which is ``8 W(C_n) / n^2``: one cycle's share of every cycle formula."""
    return n - Fraction(n % 2, n)


def _cycle_product_bc(sizes: tuple[int, ...]) -> Fraction:
    """Betweenness of every vertex of a product of cycles of any parities.

    With ``N = prod(n)`` the total distance is ``W = N^2 sum(t) / 8`` over the
    per-cycle terms ``t``; the product is vertex transitive, so each vertex
    carries ``(W - C(N, 2)) / N = (N sum(t) - 4 (N - 1)) / 8``.
    """
    p = prod(sizes)
    return (p * sum(map(_cycle_term, sizes)) - 4 * (p - 1)) / 8


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
    return factorized_betweenness(product_spec(family_factors("grid", m, n)), (a - 1, b - 1))


def cycle_product_wiener(sizes) -> int:
    """Wiener index of a product of cycles of any parities: ``prod(n)^2 sum(n - [n odd] / n) / 8``."""
    sizes = _check_cycle_sizes(sizes)
    p = prod(sizes)
    value = p * p * sum(map(_cycle_term, sizes)) / 8
    assert value.denominator == 1
    return value.numerator


def debruijn_count(k: int, n: int) -> int:
    """Interleaving count ``(kn)! / (n!)^k``.

    Also the number of corner-to-corner geodesics in the k-fold product of
    paths on ``n + 1`` vertices.
    """
    if not is_int(k) or k < 1:
        raise GraphError(f"arity must be at least 1, got {k}")
    if not is_int(n) or n < 0:
        raise GraphError(f"length must be non-negative, got {n}")
    return factorial(k * n) // factorial(n) ** k
