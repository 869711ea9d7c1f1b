"""Exact betweenness centrality and Wiener indices on Cartesian product graphs.

Everything is computed in exact rational arithmetic.  Products never need to
be materialized: geodesic counts, pair dependencies and betweenness all
factor through per-factor BFS tables, and a set of closed forms covers the
classical families (Hamming graphs, hypercubes, cycle products, tori, grids).
"""

from .centrality import METHODS, CentralityReport, average_distance, betweenness, wiener
from .closedform import (
    cycle_product_wiener,
    cycle_wiener,
    debruijn_count,
    even_cycles_bc,
    even_cycles_bc_alt,
    grid_bc,
    hamming_bc,
    hypercube_bc,
    odd_cycles_bc,
    torus_bc,
    torus_bc_alt,
    uniform_kn_bc,
)
from .edgelist import format_edge_list, load_graph, parse_edge_list, save_graph
from .generators import (
    FAMILIES,
    check_family,
    complete,
    cycle,
    generate,
    grid,
    hamming,
    hypercube,
    path,
    star,
    torus,
)
from .geodesic import (
    GeodesicTable,
    all_pairs_tables,
    bfs_geodesics,
    diameter,
    distance,
    interval,
    is_geodetic,
    pair_dependency,
    sigma,
    sigma_through,
)
from .graph import DisconnectedGraphError, Graph, GraphError, graph_from_edges, is_connected
from .product import (
    ProductGraph,
    ProductSpec,
    cartesian_product,
    factorized_betweenness,
    factorized_betweenness_all,
    interval_membership,
    product_distance,
    product_pair_dependency,
    product_sigma,
    product_spec,
    product_wiener,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # verify is the largest module and only ``boxbc verify`` runs it, so it
    # loads on first use rather than with every command
    if name in ("CheckResult", "SCOPES", "run_verify"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CentralityReport",
    "CheckResult",
    "DisconnectedGraphError",
    "FAMILIES",
    "GeodesicTable",
    "Graph",
    "GraphError",
    "METHODS",
    "ProductGraph",
    "ProductSpec",
    "SCOPES",
    "all_pairs_tables",
    "average_distance",
    "betweenness",
    "bfs_geodesics",
    "check_family",
    "cartesian_product",
    "complete",
    "cycle",
    "cycle_product_wiener",
    "cycle_wiener",
    "debruijn_count",
    "diameter",
    "distance",
    "even_cycles_bc",
    "even_cycles_bc_alt",
    "factorized_betweenness",
    "factorized_betweenness_all",
    "format_edge_list",
    "generate",
    "graph_from_edges",
    "grid",
    "grid_bc",
    "hamming",
    "hamming_bc",
    "hypercube",
    "hypercube_bc",
    "interval",
    "interval_membership",
    "is_connected",
    "is_geodetic",
    "load_graph",
    "odd_cycles_bc",
    "pair_dependency",
    "parse_edge_list",
    "path",
    "product_distance",
    "product_pair_dependency",
    "product_sigma",
    "product_spec",
    "product_wiener",
    "run_verify",
    "save_graph",
    "sigma",
    "sigma_through",
    "star",
    "torus",
    "torus_bc",
    "torus_bc_alt",
    "uniform_kn_bc",
    "wiener",
]
