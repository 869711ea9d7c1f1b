"""Closed-form betweenness and Wiener values for product families.

Each function evaluates an exact formula in the integer parameters of the
family; no graph is built.  Where a family has two published forms of the same
value (cycle products, two-cycle tori), both are implemented so their equality
can be checked rather than assumed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .graph import GraphError

HALF = Fraction(1, 2)


def hamming_bc(sizes) -> Fraction:
    """Betweenness of any vertex in a product of complete graphs.

    ``prod(n) * (r - 1 - sum(1/n_i)) / 2 + 1/2``; the family is vertex
    transitive, so the value is independent of the vertex.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise GraphError("hamming betweenness needs at least one factor size")
    if any(n < 2 for n in sizes):
        raise GraphError(f"hamming factor sizes must be at least 2, got {sizes}")
    r = len(sizes)
    inverse_sum = sum(Fraction(1, n) for n in sizes)
    return Fraction(prod(sizes), 2) * (r - 1 - inverse_sum) + HALF


def uniform_kn_bc(n: int, r: int) -> Fraction:
    """Betweenness in the r-fold product of one complete graph.

    ``((r - 1) n^r - r n^(r-1) + 1) / 2``; agrees with :func:`hamming_bc` on
    the repeated size list.
    """
    if n < 2:
        raise GraphError(f"complete-graph size must be at least 2, got {n}")
    if r < 1:
        raise GraphError(f"exponent must be at least 1, got {r}")
    return Fraction((r - 1) * n**r - r * n ** (r - 1) + 1, 2)


def hypercube_bc(r: int) -> Fraction:
    """Betweenness in the r-cube: ``(r - 2) 2^(r-2) + 1/2``."""
    if r < 1:
        raise GraphError(f"hypercube dimension must be at least 1, got {r}")
    return (r - 2) * Fraction(2) ** (r - 2) + HALF


def _check_cycle_sizes(sizes, parity: str) -> tuple[int, ...]:
    sizes = tuple(sizes)
    if not sizes:
        raise GraphError("cycle product needs at least one cycle length")
    minimum = 4 if parity == "even" else 3
    for n in sizes:
        if n < minimum or n % 2 != (0 if parity == "even" else 1):
            raise GraphError(f"cycle lengths must be {parity} and at least {minimum}, got {sizes}")
    return sizes


def even_cycles_bc(sizes) -> Fraction:
    """Betweenness in a product of even cycles.

    ``(prod(n) * sum(n) - 4 (prod(n) - 1)) / 8`` with every length even and at
    least 4 (a 2-cycle is not a simple graph).
    """
    sizes = _check_cycle_sizes(sizes, "even")
    p = prod(sizes)
    return Fraction(p * sum(sizes) - 4 * (p - 1), 8)


def even_cycles_bc_alt(sizes) -> Fraction:
    """Half-length form of :func:`even_cycles_bc`: with ``n_i = 2 k_i``,
    ``2^(r-2) prod(k) (sum(k) - 2) + 1/2``."""
    sizes = _check_cycle_sizes(sizes, "even")
    halves = [n // 2 for n in sizes]
    r = len(sizes)
    return Fraction(2) ** (r - 2) * prod(halves) * (sum(halves) - 2) + HALF


def odd_cycles_bc(sizes) -> Fraction:
    """Betweenness in a product of odd cycles.

    ``(prod(n) * sum(n - 1/n) - 4 (prod(n) - 1)) / 8`` with every length odd.
    """
    sizes = _check_cycle_sizes(sizes, "odd")
    p = prod(sizes)
    defect_sum = sum(Fraction(n * n - 1, n) for n in sizes)
    return (p * defect_sum - 4 * (p - 1)) / 8


def torus_bc(m: int, n: int) -> Fraction:
    """Betweenness in the two-cycle product, by parity case.

    Both odd: ``(mn - 1)(m + n - 4) / 8``.  Both even:
    ``(m n^2 + m (m - 4) n + 4) / 8``.  Mixed parity uses the odd-first form
    ``(m n^2 + (m^2 - 4m - 1) n + 4) / 8``; arguments arriving as
    (even, odd) are swapped first, which commutativity of the product allows.
    """
    if m < 3 or n < 3:
        raise GraphError(f"torus cycle lengths must be at least 3, got {m} x {n}")
    if m % 2 == 0 and n % 2 == 1:
        m, n = n, m
    if m % 2 == 1 and n % 2 == 1:
        return Fraction((m * n - 1) * (m + n - 4), 8)
    if m % 2 == 0:
        return Fraction(m * n * n + m * (m - 4) * n + 4, 8)
    return Fraction(m * n * n + (m * m - 4 * m - 1) * n + 4, 8)


def torus_bc_alt(m: int, n: int) -> Fraction:
    """Half-length form of :func:`torus_bc`.

    With ``m = 2k1(+1)`` and ``n = 2k2(+1)`` by parity: odd/odd is
    ``k1 k2 (k1 + k2) + C(k1,2) + C(k2,2)``, even/even is
    ``k1 k2 (k1 + k2 - 2) + 1/2``, odd/even is
    ``k1 k2 (k1 + k2 - 1) + (k2 - 1)^2 / 2``.
    """
    if m < 3 or n < 3:
        raise GraphError(f"torus cycle lengths must be at least 3, got {m} x {n}")
    if m % 2 == 0 and n % 2 == 1:
        m, n = n, m
    k1, k2 = m // 2, n // 2
    if m % 2 == 1 and n % 2 == 1:
        return Fraction(k1 * k2 * (k1 + k2) + comb(k1, 2) + comb(k2, 2))
    if m % 2 == 0:
        return k1 * k2 * (k1 + k2 - 2) + HALF
    return k1 * k2 * (k1 + k2 - 1) + Fraction((k2 - 1) ** 2, 2)


def grid_bc(m: int, n: int, a: int, b: int) -> Fraction:
    """Betweenness of the vertex at 1-indexed position ``(a, b)`` in an m x n grid.

    The row and column through the vertex split the grid into four closed
    quadrants.  Pairs spanning diagonally opposite quadrants are the only ones
    whose geodesics can cross the vertex; summing their dependencies counts
    the axis-collinear pairs once in each diagonal sum, so one copy of those
    (dependency exactly 1 each) is subtracted.
    """
    if m < 1 or n < 1:
        raise GraphError(f"grid sides must be at least 1, got {m} x {n}")
    if not (1 <= a <= m and 1 <= b <= n):
        raise GraphError(f"position ({a}, {b}) outside grid 1..{m} x 1..{n}")
    low_high = ((1, a, 1, b), (a, m, b, n))  # quadrants A, B
    high_low = ((1, a, b, n), (a, m, 1, b))  # quadrants C, D
    total = Fraction(0)
    for u_box, v_box in (low_high, high_low):
        total += _grid_quadrant_sum(a, b, u_box, v_box)
    collinear = (a - 1) * (m - a) + (b - 1) * (n - b)
    return total - collinear


def _grid_quadrant_sum(a: int, b: int, u_box, v_box) -> Fraction:
    # In-grid geodesic count between (i, j) and (p, q) is comb(d, |i - p|)
    # with d the rectilinear distance.  The two boxes share only (a, b),
    # which both sides exclude, so u != v throughout.
    ui0, ui1, uj0, uj1 = u_box
    vi0, vi1, vj0, vj1 = v_box
    v_cells = [
        (p, q, comb(abs(p - a) + abs(q - b), abs(p - a)))
        for p in range(vi0, vi1 + 1)
        for q in range(vj0, vj1 + 1)
        if (p, q) != (a, b)
    ]
    total = Fraction(0)
    for i in range(ui0, ui1 + 1):
        for j in range(uj0, uj1 + 1):
            if (i, j) == (a, b):
                continue
            through = comb(abs(i - a) + abs(j - b), abs(i - a))
            for p, q, to_v in v_cells:
                sigma_uv = comb(abs(p - i) + abs(q - j), abs(p - i))
                total += Fraction(through * to_v, sigma_uv)
    return total


def cycle_wiener(n: int) -> int:
    """Wiener index of one cycle: ``n^3 / 8`` even, ``(n^3 - n) / 8`` odd."""
    if n < 3:
        raise GraphError(f"cycle length must be at least 3, got {n}")
    if n % 2 == 0:
        return n**3 // 8
    return (n**3 - n) // 8


def cycle_product_wiener(sizes, parity: str) -> int:
    """Wiener index of a uniform-parity cycle product.

    Even lengths: ``prod(n)^2 sum(n) / 8``.  Odd lengths:
    ``prod(n)^2 sum(n - 1/n) / 8``.  Mixed parity has no single closed form
    here; use the general product formula instead.
    """
    if parity not in ("even", "odd"):
        raise GraphError(f"parity must be 'even' or 'odd', got {parity!r}")
    sizes = _check_cycle_sizes(sizes, parity)
    p = prod(sizes)
    if parity == "even":
        value = Fraction(p * p * sum(sizes), 8)
    else:
        value = Fraction(p * p, 8) * sum(Fraction(n * n - 1, n) for n in sizes)
    assert value.denominator == 1
    return value.numerator


def debruijn_count(k: int, n: int) -> int:
    """Interleaving count ``(kn)! / (n!)^k``.

    Also the number of corner-to-corner geodesics in the k-fold product of
    paths on ``n + 1`` vertices.
    """
    if k < 1:
        raise GraphError(f"arity must be at least 1, got {k}")
    if n < 0:
        raise GraphError(f"length must be non-negative, got {n}")
    return factorial(k * n) // factorial(n) ** k
