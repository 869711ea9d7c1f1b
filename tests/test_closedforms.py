from __future__ import annotations

from fractions import Fraction

import pytest

from boxbc import (
    GraphError,
    betweenness,
    cartesian_product,
    complete,
    cycle,
    cycle_product_wiener,
    even_cycles_bc,
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
    wiener,
)
from boxbc.generators import _cycle_product_bc
from boxbc.verify import _debruijn_count, _even_cycles_bc_alt, _torus_bc_alt, _uniform_kn_bc


def _uniform_value(g):
    values = set(betweenness(g))
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
            assert _uniform_kn_bc(n, r) == hamming_bc([n] * r)


def test_hypercube_formula():
    assert hypercube_bc(1) == 0
    assert hypercube_bc(2) == Fraction(1, 2)
    assert hypercube_bc(3) == Fraction(5, 2)
    assert hypercube_bc(4) == Fraction(17, 2)
    for r in range(1, 5):
        assert hypercube_bc(r) == _uniform_value(hypercube(r))
    for r in (64, 20000):
        assert hypercube_bc(r) == (r - 2) * 2 ** (r - 2) + Fraction(1, 2)
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
        (torus_bc, (5, 2), "torus", (5, 2)),
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
        assert even_cycles_bc(sizes) == _even_cycles_bc_alt(sizes)


def test_torus_formula():
    assert torus_bc(3, 4) == Fraction(9, 2)
    assert torus_bc(4, 3) == Fraction(9, 2)  # size order is immaterial
    assert torus_bc(4, 6) == Fraction(37, 2)
    assert torus_bc(5, 5) == 18
    assert torus_bc(3, 3) == 2
    for m in range(3, 6):
        for n in range(3, 6):
            assert torus_bc(m, n) == _uniform_value(torus(m, n))
            assert torus_bc(m, n) == _torus_bc_alt(m, n)
    with pytest.raises(GraphError):
        torus_bc(2, 5)


def test_torus_matches_pure_parities():
    assert torus_bc(4, 6) == even_cycles_bc([4, 6])
    assert torus_bc(3, 5) == odd_cycles_bc([3, 5])


@pytest.mark.parametrize("sizes", [(3, 4, 5), (3, 3, 4), (4, 4, 5)])
def test_cycle_product_formula_on_mixed_parities(sizes):
    g = cartesian_product([cycle(n) for n in sizes]).graph
    assert _cycle_product_bc(sizes) == _uniform_value(g)
    assert _cycle_product_bc(sizes[::-1]) == _cycle_product_bc(sizes)


def test_grid_formula():
    assert grid_bc(3, 3, 2, 2) == Fraction(32, 3)
    assert grid_bc(3, 3, 1, 1) == Fraction(4, 3)
    assert grid_bc(1, 5, 1, 3) == 4
    for m in range(1, 5):
        for n in range(1, 5):
            if m * n < 2:
                continue
            values = betweenness(grid(m, n))
            for a in range(1, m + 1):
                for b in range(1, n + 1):
                    assert grid_bc(m, n, a, b) == values[(a - 1) * n + (b - 1)]


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
    assert cycle_product_wiener([4]) == 8
    assert cycle_product_wiener([5]) == 15
    assert cycle_product_wiener([7]) == 42
    for n in range(3, 12):
        assert cycle_product_wiener([n]) == wiener(cycle(n))
    with pytest.raises(GraphError):
        cycle_product_wiener([2])


def test_cycle_product_wiener_values():
    assert cycle_product_wiener([4, 4]) == 256
    assert cycle_product_wiener([3, 3]) == 54
    assert cycle_product_wiener([6]) == 27
    for sizes in ([4, 6], [3, 5], [4, 4, 4]):
        assert cycle_product_wiener(sizes) == product_wiener([cycle(n) for n in sizes])
    with pytest.raises(GraphError):
        cycle_product_wiener([2, 4])


def test_cycle_product_wiener_on_mixed_parities():
    for sizes in ([3, 4], [4, 3], [3, 4, 5], [3, 3, 4], [4, 4, 5], [3, 4, 4, 5]):
        assert cycle_product_wiener(sizes) == product_wiener([cycle(n) for n in sizes])
    with pytest.raises(GraphError, match=r"cycle lengths must be at least 3, got \(4, 2\)"):
        cycle_product_wiener([4, 2])
    with pytest.raises(GraphError, match="at least one cycle length"):
        cycle_product_wiener([])


@pytest.mark.parametrize(
    "formula, args",
    [
        (torus_bc, (3.0, 4)),
        (grid_bc, (True, 3, 1, 1)),
        (hypercube_bc, (True,)),
        (even_cycles_bc, ([4.0],)),
        (odd_cycles_bc, ([3, 5.0],)),
        (cycle_product_wiener, ([3, 4.0],)),
        (grid_bc, (3, 3, True, 1)),
        (grid_bc, (3, 3, 2, 2.0)),
        (hamming_bc, ([2, 2.0],)),
        (hamming_bc, ([True, 3],)),
        (cycle_product_wiener, ([4.0],)),
    ],
)
def test_closed_form_parameters_follow_the_int_rule(formula, args):
    # an int, not a bool: a float or bool parameter raises GraphError, never TypeError or a value
    with pytest.raises(GraphError):
        formula(*args)


def test_debruijn_counts():
    assert _debruijn_count(2, 2) == 6
    assert _debruijn_count(2, 3) == 20
    assert _debruijn_count(3, 3) == 1680
    assert _debruijn_count(1, 7) == 1
    assert _debruijn_count(4, 0) == 1
    for k in range(1, 4):
        for n in range(0, 4):
            spec = product_spec([path(n + 1)] * k)
            assert _debruijn_count(k, n) == product_sigma(spec, (0,) * k, (n,) * k)


def test_complete_factor_degenerate():
    # A single complete factor is K_n: nothing lies between adjacent vertices.
    assert hamming_bc([7]) == 0
    assert _uniform_kn_bc(7, 1) == 0


@pytest.mark.parametrize("oracle", [_uniform_kn_bc, _even_cycles_bc_alt, _torus_bc_alt, _debruijn_count])
def test_verify_oracles_share_no_name_with_the_closed_forms(oracle):
    # an oracle that called the formula it checks would agree with any bug in it
    shared = {
        "_cycle_product_bc", "_cycle_term", "_check_cycle_sizes", "hamming_bc", "hypercube_bc",
        "even_cycles_bc", "odd_cycles_bc", "torus_bc", "HALF", "_transitive_bc", "_cycle_share",
        "_multinomial", "_sigma", "product_sigma",
    }
    assert shared.isdisjoint(oracle.__code__.co_names)
