from __future__ import annotations

from fractions import Fraction

import pytest

from boxbc import (
    GraphError,
    all_pairs_tables,
    betweenness,
    cartesian_product,
    complete,
    cycle,
    cycle_product_wiener,
    cycle_wiener,
    debruijn_count,
    even_cycles_bc,
    even_cycles_bc_alt,
    factorized_betweenness_all,
    generate,
    grid,
    grid_bc,
    hamming,
    hamming_bc,
    hypercube,
    hypercube_bc,
    odd_cycles_bc,
    path,
    product_sigma,
    product_spec,
    product_wiener,
    torus,
    torus_bc,
    torus_bc_alt,
    uniform_kn_bc,
    wiener,
)
from boxbc.closedform import _path_profile
from boxbc.product import _profile


def _uniform_value(g):
    values = set(betweenness(g).values)
    assert len(values) == 1
    return values.pop()


def test_hamming_formula_small_sweep():
    for sizes in ([2], [4], [2, 2], [2, 3], [3, 3], [2, 4], [2, 2, 2], [2, 2, 3], [3, 3, 3]):
        assert hamming_bc(sizes) == _uniform_value(hamming(*sizes))


def test_hamming_two_factor_value():
    # K_p x K_q rooks: (p-1)(q-1)/2.
    for p in range(2, 6):
        for q in range(2, 6):
            assert hamming_bc([p, q]) == Fraction((p - 1) * (q - 1), 2)


def test_hamming_validation():
    with pytest.raises(GraphError):
        hamming_bc([])
    with pytest.raises(GraphError):
        hamming_bc([1, 3])


def test_uniform_kn_specializes_hamming():
    for n in range(2, 5):
        for r in range(1, 4):
            assert uniform_kn_bc(n, r) == hamming_bc([n] * r)
    with pytest.raises(GraphError):
        uniform_kn_bc(1, 3)
    with pytest.raises(GraphError):
        uniform_kn_bc(3, 0)


def test_hypercube_formula():
    assert hypercube_bc(1) == 0
    assert hypercube_bc(2) == Fraction(1, 2)
    assert hypercube_bc(3) == Fraction(5, 2)
    assert hypercube_bc(4) == Fraction(17, 2)
    for r in range(1, 5):
        assert hypercube_bc(r) == _uniform_value(hypercube(r))
    with pytest.raises(GraphError):
        hypercube_bc(0)


def test_cycle_product_formulas():
    assert even_cycles_bc([4]) == Fraction(1, 2)
    assert even_cycles_bc([6]) == 2
    assert even_cycles_bc([4, 4]) == Fraction(17, 2)
    assert odd_cycles_bc([5]) == 1
    assert odd_cycles_bc([3, 3]) == 2
    assert odd_cycles_bc([5, 5]) == 18
    for sizes in ([4], [6], [4, 4], [4, 6]):
        g = cartesian_product([cycle(n) for n in sizes]).graph
        assert even_cycles_bc(sizes) == _uniform_value(g)
    for sizes in ([3], [5], [3, 3], [3, 5]):
        g = cartesian_product([cycle(n) for n in sizes]).graph
        assert odd_cycles_bc(sizes) == _uniform_value(g)


@pytest.mark.parametrize(
    "formula, args, family, params",
    [
        (hamming_bc, ([],), "hamming", ()),
        (hamming_bc, ([3, 1],), "hamming", (3, 1)),
        (hypercube_bc, (0,), "hypercube", (0,)),
        (torus_bc, (2, 5), "torus", (2, 5)),
        (torus_bc_alt, (5, 2), "torus", (5, 2)),
        (grid_bc, (0, 3, 1, 1), "grid", (0, 3)),
    ],
)
def test_closed_forms_reject_what_the_builders_reject(formula, args, family, params):
    # one copy of the family rules: a formula says what ``generate`` says
    with pytest.raises(GraphError) as built:
        generate(family, *params)
    with pytest.raises(GraphError) as evaluated:
        formula(*args)
    assert str(evaluated.value) == str(built.value)


def test_cycle_parity_validation():
    with pytest.raises(GraphError):
        even_cycles_bc([5])
    with pytest.raises(GraphError):
        even_cycles_bc([2])
    with pytest.raises(GraphError):
        odd_cycles_bc([4])
    with pytest.raises(GraphError):
        odd_cycles_bc([1])
    with pytest.raises(GraphError):
        even_cycles_bc([])


def test_even_cycles_alt_form():
    for sizes in ([4], [6], [8], [4, 4], [4, 6], [6, 6], [4, 4, 4]):
        assert even_cycles_bc(sizes) == even_cycles_bc_alt(sizes)


def test_torus_formula():
    assert torus_bc(3, 4) == Fraction(9, 2)
    assert torus_bc(4, 3) == Fraction(9, 2)  # size order is immaterial
    assert torus_bc(4, 6) == Fraction(37, 2)
    assert torus_bc(5, 5) == 18
    assert torus_bc(3, 3) == 2
    for m in range(3, 6):
        for n in range(3, 6):
            assert torus_bc(m, n) == _uniform_value(torus(m, n))
            assert torus_bc(m, n) == torus_bc_alt(m, n)
    with pytest.raises(GraphError):
        torus_bc(2, 5)


def test_torus_matches_pure_parities():
    assert torus_bc(4, 6) == even_cycles_bc([4, 6])
    assert torus_bc(3, 5) == odd_cycles_bc([3, 5])


def test_grid_formula():
    assert grid_bc(3, 3, 2, 2) == Fraction(32, 3)
    assert grid_bc(3, 3, 1, 1) == Fraction(4, 3)
    assert grid_bc(1, 5, 1, 3) == 4
    for m in range(1, 5):
        for n in range(1, 5):
            if m * n < 2:
                continue
            values = betweenness(grid(m, n)).values
            for a in range(1, m + 1):
                for b in range(1, n + 1):
                    assert grid_bc(m, n, a, b) == values[(a - 1) * n + (b - 1)]


def test_path_profile_closed_form():
    # all 91 positions of P_1 .. P_13, each against the profile built from BFS tables
    for k in range(1, 14):
        tables = all_pairs_tables(path(k))
        for x in range(k):
            assert _path_profile(x, k - 1 - x) == _profile(tables, x), (k, x)


def test_grid_formula_matches_factorized_route():
    # 12 x 15 is past verify's 7 x 7 sweep; row-major order is the product's vertex-id order
    m, n = 12, 15
    closed = [grid_bc(m, n, a, b) for a in range(1, m + 1) for b in range(1, n + 1)]
    assert closed == list(factorized_betweenness_all(product_spec([path(m), path(n)])))


def test_grid_validation():
    with pytest.raises(GraphError):
        grid_bc(0, 3, 1, 1)
    with pytest.raises(GraphError):
        grid_bc(3, 3, 0, 1)
    with pytest.raises(GraphError):
        grid_bc(3, 3, 4, 1)


def test_cycle_wiener_values():
    assert cycle_wiener(4) == 8
    assert cycle_wiener(5) == 15
    assert cycle_wiener(7) == 42
    for n in range(3, 12):
        assert cycle_wiener(n) == wiener(cycle(n))
    with pytest.raises(GraphError):
        cycle_wiener(2)


def test_cycle_product_wiener_values():
    assert cycle_product_wiener([4, 4], "even") == 256
    assert cycle_product_wiener([3, 3], "odd") == 54
    assert cycle_product_wiener([6], "even") == 27
    for sizes, parity in (([4, 6], "even"), ([3, 5], "odd"), ([4, 4, 4], "even")):
        assert cycle_product_wiener(sizes, parity) == product_wiener([cycle(n) for n in sizes])
    with pytest.raises(GraphError):
        cycle_product_wiener([3, 4], "even")
    with pytest.raises(GraphError):
        cycle_product_wiener([4, 4], "sideways")


def test_debruijn_counts():
    assert debruijn_count(2, 2) == 6
    assert debruijn_count(2, 3) == 20
    assert debruijn_count(3, 3) == 1680
    assert debruijn_count(1, 7) == 1
    assert debruijn_count(4, 0) == 1
    for k in range(1, 4):
        for n in range(0, 4):
            spec = product_spec([path(n + 1)] * k)
            assert debruijn_count(k, n) == product_sigma(spec, (0,) * k, (n,) * k)
    with pytest.raises(GraphError):
        debruijn_count(0, 3)
    with pytest.raises(GraphError):
        debruijn_count(2, -1)


def test_complete_factor_degenerate():
    # A single complete factor is K_n: nothing lies between adjacent vertices.
    assert hamming_bc([7]) == 0
    assert uniform_kn_bc(7, 1) == 0
