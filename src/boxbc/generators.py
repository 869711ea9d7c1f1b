"""Named graph families with a fixed canonical vertex ordering.

Paths and cycles number vertices by position, complete graphs arbitrarily,
stars put the hub at id 0.  Grids, hypercubes, Hamming graphs and tori are
materialized as Cartesian products, so their ids follow the mixed-radix
labeling of :mod:`boxbc.product`.
"""

from __future__ import annotations

from typing import Callable

from .graph import Graph, GraphError, graph_from_edges, is_int
from .product import cartesian_product


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
    return cartesian_product(family_factors("grid", m, n)).graph


def hypercube(r: int) -> Graph:
    return cartesian_product(family_factors("hypercube", r)).graph


def hamming(*sizes: int) -> Graph:
    return cartesian_product(family_factors("hamming", *sizes)).graph


def torus(m: int, n: int) -> Graph:
    return cartesian_product(family_factors("torus", m, n)).graph


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
# the builders above, ``bc --labels coords`` and the bench ladders
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
