"""Exact betweenness centrality and Wiener indices on Cartesian product graphs.

Everything is computed in exact rational arithmetic.  Products never need to
be materialized: geodesic counts, pair dependencies and betweenness all
factor through per-factor BFS tables, and a set of closed forms covers the
classical families (Hamming graphs, hypercubes, cycle products, tori, grids).
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines.  Each name is imported from its
# submodule on first access, so ``import boxbc`` loads no submodule and a
# command loads only the modules its route runs.
_EXPORTS = {
    "centrality": "betweenness",
    "generators": "FAMILIES check_family complete cycle cycle_product_wiener even_cycles_bc family_factors generate"
    " grid grid_bc hamming hamming_bc hypercube hypercube_bc odd_cycles_bc path star torus torus_bc",
    "graph": "DisconnectedGraphError GeodesicTable Graph GraphError all_pairs_tables bfs_geodesics"
    " format_edge_list graph_from_edges is_connected load_graph parse_edge_list save_graph wiener",
    "product": "ProductGraph ProductSpec cartesian_product factorized_betweenness factorized_betweenness_all"
    " product_spec product_wiener",
    "queries": "average_distance diameter distance interval is_geodetic pair_dependency product_distance"
    " product_pair_dependency product_sigma sigma sigma_through",
    "report": "CentralityReport report_to_csv report_to_json",
    "verify": "CheckResult SCOPES run_verify",
}


def _bind_on_first_use(namespace: dict, exports: dict[str, str]):
    """A module ``__getattr__`` that binds names from boxbc submodules lazily.

    ``exports`` maps a submodule to the space-separated names taken from it.
    On first access a name's submodule is imported and the name stored in
    ``namespace``, so later lookups are plain attribute reads and a name
    rebound on the module stays rebound.
    """
    sources = {name: module for module, names in exports.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{sources[name]}"), name)
        return value

    return __getattr__


__getattr__ = _bind_on_first_use(globals(), _EXPORTS)
__all__ = sorted(name for names in _EXPORTS.values() for name in names.split())
