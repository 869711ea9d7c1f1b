"""Traced request process: ``python traced_child.py SPAN_FILE REQUEST_ID BOXBC_ARGS...``.

Imports ``boxbc.cli``, replaces the layer entry points that ``cli``,
``centrality`` and ``product`` import by name with wrappers that record a
span (name, start, end, parent, counts), runs ``boxbc.cli.main`` on the
remaining arguments and writes the spans as JSON when ``main`` ends.
Spans stay in memory until then.  Counts are computed from each call's
arguments and result, so they repeat exactly for the same inputs.
"""

import sys
import time

_clock = time.perf_counter
_started = _clock()
import boxbc.cli as cli  # noqa: E402
_imported = _clock()

import json  # noqa: E402
import os  # noqa: E402
from math import comb  # noqa: E402

from boxbc import centrality, product  # noqa: E402

spans: list[list] = []
stack: list[int] = []
_tabled: list = []  # graphs whose tables were already counted, kept alive so ids stay unique


def traced(name, fn, counts=None):
    def wrapper(*args, **kwargs):
        index = len(spans)
        span = [name, _clock(), 0.0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = _clock()
        if counts is not None:
            span[4] = counts(args, kwargs, result)
        return result

    return wrapper


def _table_counts(args, kwargs, result):
    g = args[0]
    if any(seen is g for seen in _tabled):
        return {"geodesic.bfs_sources": 0, "geodesic.table_entries": 0}
    _tabled.append(g)
    n = g.vertex_count
    return {"geodesic.bfs_sources": n, "geodesic.table_entries": n * n}


def _betweenness_counts(args, kwargs, result):
    return {"centrality.bfs_sources": args[0].vertex_count}


def _materialize_counts(args, kwargs, result):
    g = result.graph
    return {"product.vertices": g.vertex_count, "product.edges": g.edge_count}


def _factorized_counts(args, kwargs, result):
    return {"product.pairs": comb(args[0].vertex_count, 2)}


def _load_counts(args, kwargs, result):
    return {"edgelist.bytes_read": os.path.getsize(args[0])}


def _format_counts(args, kwargs, result):
    return {"edgelist.bytes_written": len(result.encode("utf-8"))}


def _closed_form_counts(args, kwargs, result):
    return {"closedform.values": 1}


def _report_counts(args, kwargs, result):
    values = args[0].values
    return {
        "report.values": len(values),
        "report.bytes": len(result.encode("utf-8")),
        "report.max_den_digits": max(len(str(v.denominator)) for v in values),
    }


LAYERS = {
    cli: {
        "betweenness": ("centrality.betweenness", _betweenness_counts),
        "wiener": ("centrality.wiener", None),
        "load_graph": ("edgelist.load", _load_counts),
        "format_edge_list": ("edgelist.format", _format_counts),
        "generate": ("generators.generate", None),
        "path": ("generators.generate", None),
        "cycle": ("generators.generate", None),
        "complete": ("generators.generate", None),
        "cartesian_product": ("product.materialize", _materialize_counts),
        "factorized_betweenness_all": ("product.factorized", _factorized_counts),
        "product_wiener": ("product.wiener", None),
        "report_to_csv": ("report.serialize", _report_counts),
        "report_to_json": ("report.serialize", _report_counts),
        "hypercube_bc": ("closedform.eval", _closed_form_counts),
        "hamming_bc": ("closedform.eval", _closed_form_counts),
        "torus_bc": ("closedform.eval", _closed_form_counts),
        "even_cycles_bc": ("closedform.eval", _closed_form_counts),
        "odd_cycles_bc": ("closedform.eval", _closed_form_counts),
        "grid_bc": ("closedform.eval", _closed_form_counts),
    },
    centrality: {
        "all_pairs_tables": ("geodesic.tables", _table_counts),
    },
    product: {
        "all_pairs_tables": ("geodesic.tables", _table_counts),
        "wiener": ("centrality.wiener", None),
    },
}


def main() -> int:
    span_file, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    for module, names in LAYERS.items():
        for attr, (name, counts) in names.items():
            setattr(module, attr, traced(name, getattr(module, attr), counts))
    try:
        return traced("cli.main", cli.main)(argv)
    finally:
        record = {"request": request_id, "import_s": _imported - _started, "spans": spans}
        with open(span_file, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
