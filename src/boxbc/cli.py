"""Command-line front end.

Subcommands: ``gen`` writes family edge lists, ``product`` composes edge-list
files, ``bc`` computes betweenness by any route, ``wiener`` prints exact total
distances, ``verify`` runs the cross-validation suites, and ``bench`` times
the factorized route against materialized accumulation.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Sequence

from .bench import BENCH_FAMILIES, BENCH_METHODS, bench_to_csv, run_bench
from .centrality import CentralityReport, betweenness, wiener
from .closedform import (
    even_cycles_bc,
    grid_bc,
    hamming_bc,
    hypercube_bc,
    odd_cycles_bc,
    torus_bc,
)
from .edgelist import format_edge_list, load_graph
from .generators import FAMILIES, check_family, family_factors, generate
# perfbench/traced_child.py times these builders under their ``cli`` names
from .generators import complete, cycle, path  # noqa: F401
from .graph import GraphError
from .product import (
    ProductSpec,
    cartesian_product,
    factorized_betweenness_all,
    product_spec,
    product_wiener,
)
from .report import report_to_csv, report_to_json
from .verify import SCOPES, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3

BC_METHODS = ("definitional", "brandes", "factorized", "closed-form")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract reserves
    # 2 for validation, so route usage problems through _UsageError instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _split_paths(spec: str) -> list[str]:
    paths = [p for p in spec.split(",") if p]
    if not paths:
        raise _UsageError("expected a comma-separated list of edge-list files")
    return paths


def _family_request(values: list[str]) -> tuple[str, list[int]]:
    family = values[0]
    try:
        params = [int(p) for p in values[1:]]
    except ValueError:
        raise _UsageError(f"family parameters must be integers, got {values[1:]}") from None
    return family, params


def _closed_form_report(family: str, params: list[int], descriptor: str) -> CentralityReport:
    check_family(family, *params)
    if family in ("grid", "path"):
        m, n = params if family == "grid" else [1, *params]
        values = tuple(grid_bc(m, n, a, b) for a in range(1, m + 1) for b in range(1, n + 1))
        return CentralityReport("closed-form", descriptor, values)
    if family == "hypercube":
        (r,) = params
        value = hypercube_bc(r)
    elif family == "hamming":
        value = hamming_bc(params)
    elif family == "torus":
        m, n = params
        value = torus_bc(m, n)
    elif family == "cycle":
        (n,) = params
        value = even_cycles_bc([n]) if n % 2 == 0 else odd_cycles_bc([n])
    elif family == "complete":
        (n,) = params
        value = Fraction(0) if n == 1 else hamming_bc([n])
    else:
        raise GraphError(f"no closed form for family {family!r}")
    return CentralityReport("closed-form", descriptor, (value,), uniform=True)


def cmd_gen(args: argparse.Namespace) -> int:
    family, params = _family_request([args.family, *args.params])
    _emit(format_edge_list(generate(family, *params)), args.output)
    return EXIT_OK


def cmd_product(args: argparse.Namespace) -> int:
    factors = [load_graph(p) for p in args.files]
    _emit(format_edge_list(cartesian_product(factors).graph), args.output)
    return EXIT_OK


def cmd_bc(args: argparse.Namespace) -> int:
    given = [v for v in (args.file, args.family, args.factors) if v is not None]
    if len(given) != 1:
        raise _UsageError("give exactly one input: an edge-list file, --family, or --factors")
    method = args.method
    spec: ProductSpec | None = None

    if args.factors is not None:
        if method == "closed-form":
            raise _UsageError("--method closed-form needs --family")
        paths = _split_paths(args.factors)
        factors = [load_graph(p) for p in paths]
        spec = product_spec(factors)
        descriptor = " x ".join(paths)
        if method == "factorized":
            values = factorized_betweenness_all(spec)
            report = CentralityReport("factorized", descriptor, values)
        else:
            report = betweenness(cartesian_product(factors).graph, method=method, descriptor=descriptor)
    elif args.family is not None:
        if method == "factorized":
            raise _UsageError("--method factorized needs --factors")
        family, params = _family_request(args.family)
        descriptor = f"{family}({', '.join(map(str, params))})"
        if method == "closed-form":
            report = _closed_form_report(family, params, descriptor)
        else:
            report = betweenness(generate(family, *params), method=method, descriptor=descriptor)
        factors = family_factors(family, *params)
        spec = None if factors is None else product_spec(factors)
    else:
        if method in ("factorized", "closed-form"):
            raise _UsageError(f"--method {method} does not apply to a plain edge-list file")
        report = betweenness(load_graph(args.file), method=method, descriptor=args.file)

    labels = None
    if args.labels == "coords":
        if spec is None:
            raise _UsageError("--labels coords needs a product input (--factors or a product family)")
        if report.uniform:
            raise _UsageError("a uniform report has a single '*' row; coordinate labels do not apply")
        labels = [str(c) for c in spec.coordinates()]

    text = report_to_csv(report, labels) if args.format == "csv" else report_to_json(report, labels)
    _emit(text, args.output)
    return EXIT_OK


def cmd_wiener(args: argparse.Namespace) -> int:
    if (args.file is None) == (args.factors is None):
        raise _UsageError("give exactly one input: an edge-list file or --factors")
    if args.factors is not None:
        value = product_wiener([load_graph(p) for p in _split_paths(args.factors)])
    else:
        value = wiener(load_graph(args.file))
    _emit(f"{value}\n", args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verify(args.scope)
    failures = 0
    for r in results:
        failures += not r.passed
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} [{r.scope}] {r.name}: {r.detail} ({r.seconds:.2f} s)")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_bench(args: argparse.Namespace) -> int:
    methods = [m for m in args.methods.split(",") if m]
    rows = run_bench(args.family, args.max, methods)
    _emit(bench_to_csv(rows), args.output)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="boxbc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family instance as an edge list")
    p.add_argument("family", help=f"one of: {', '.join(FAMILIES)}")
    p.add_argument("params", nargs="*", help="integer family parameters")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("product", help="compose edge-list files into their product")
    p.add_argument("files", nargs="+", help="factor edge-list files")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("bc", help="exact betweenness report")
    p.add_argument("file", nargs="?", help="edge-list file")
    p.add_argument("--family", nargs="+", metavar="NAME/PARAM", help="generate this family instead of reading a file")
    p.add_argument("--factors", help="comma-separated factor edge-list files")
    p.add_argument("--method", choices=BC_METHODS, default="brandes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--labels", choices=("ids", "coords"), default="ids",
                   help="label product vertices by id or by coordinate vector")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(handler=cmd_bc)

    p = sub.add_parser("wiener", help="exact sum of pairwise distances")
    p.add_argument("file", nargs="?", help="edge-list file")
    p.add_argument("--factors", help="comma-separated factor edge-list files")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(handler=cmd_wiener)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--scope", choices=SCOPES, default="all")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="time factorized against materialized accumulation")
    p.add_argument("--family", choices=BENCH_FAMILIES, required=True)
    p.add_argument("--max", type=int, required=True, help="largest factor size or dimension")
    p.add_argument("--methods", default=",".join(BENCH_METHODS), help="comma-separated method list")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def console_main() -> None:
    sys.exit(main())
