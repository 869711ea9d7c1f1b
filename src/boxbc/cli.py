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
from functools import cache
from typing import Callable, Sequence

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
    cartesian_product,
    factorized_betweenness_all,
    product_spec,
    product_wiener,
)
from .report import report_to_csv, report_to_json

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

    # A subcommand whose options come from a module no other command needs
    # (verify, bench) adds them here, when argparse selects that subcommand,
    # so the other commands never import the module.
    add_deferred: Callable[[argparse.ArgumentParser], None] | None = None

    def parse_known_args(  # type: ignore[override]
        self, args: Sequence[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> tuple[argparse.Namespace, list[str]]:
        if self.add_deferred is not None:
            add, self.add_deferred = self.add_deferred, None
            add(self)
        return super().parse_known_args(args, namespace)


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


def _grid_closed_form(m: int, n: int) -> tuple[Fraction, ...]:
    # positions mirrored across either middle line share a value, so grid_bc
    # runs once per mirror class (a, b) with a <= (m + 1) / 2, b <= (n + 1) / 2
    value = cache(lambda a, b: grid_bc(m, n, a, b))
    return tuple(value(min(a, m + 1 - a), min(b, n + 1 - b)) for a in range(1, m + 1) for b in range(1, n + 1))


# family -> closed form: a value per vertex, or one value for every vertex.
# Formulas are looked up at call time, so perfbench's traced wrappers see them.
_CLOSED_FORMS: dict[str, Callable[..., Fraction | tuple[Fraction, ...]]] = {
    "grid": _grid_closed_form,
    "path": lambda n: _CLOSED_FORMS["grid"](1, n),
    "hypercube": lambda r: hypercube_bc(r),
    "hamming": lambda *sizes: hamming_bc(sizes),
    "torus": lambda m, n: torus_bc(m, n),
    "cycle": lambda n: even_cycles_bc([n]) if n % 2 == 0 else odd_cycles_bc([n]),
    "complete": lambda n: Fraction(0) if n == 1 else hamming_bc([n]),
}


def _closed_form_report(family: str, params: list[int], descriptor: str) -> CentralityReport:
    check_family(family, *params)
    if family not in _CLOSED_FORMS:
        raise GraphError(f"no closed form for family {family!r}")
    values = _CLOSED_FORMS[family](*params)
    if isinstance(values, tuple):
        return CentralityReport("closed-form", descriptor, values)
    return CentralityReport("closed-form", descriptor, (values,), uniform=True)


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

    if args.file is not None:
        if method in ("factorized", "closed-form"):
            raise _UsageError(f"--method {method} does not apply to a plain edge-list file")
        descriptor, spec = args.file, None
        materialize = lambda: load_graph(args.file)
    elif args.factors is not None:
        if method == "closed-form":
            raise _UsageError("--method closed-form needs --family")
        paths = _split_paths(args.factors)
        descriptor = " x ".join(paths)
        spec = product_spec(load_graph(p) for p in paths)
        materialize = lambda: cartesian_product(spec.factors).graph
    else:
        family, params = _family_request(args.family)
        descriptor = f"{family}({', '.join(map(str, params))})"
        factors = family_factors(family, *params)
        if method == "factorized" and factors is None:
            raise _UsageError("--method factorized needs --factors or a product family")
        spec = None if factors is None else product_spec(factors)
        materialize = lambda: generate(family, *params)

    if method == "closed-form":
        report = _closed_form_report(family, params, descriptor)
    elif method == "factorized":
        report = CentralityReport("factorized", descriptor, factorized_betweenness_all(spec))
    else:
        report = betweenness(materialize(), method=method, descriptor=descriptor)

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
    from .verify import run_verify

    results = run_verify(args.scope)
    failures = 0
    for r in results:
        failures += not r.passed
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} [{r.scope}] {r.name}: {r.detail} ({r.seconds:.2f} s)")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import bench_to_csv, run_bench

    methods = [m for m in args.methods.split(",") if m]
    rows = run_bench(args.family, args.max, methods)
    _emit(bench_to_csv(rows), args.output)
    return EXIT_OK


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .verify import SCOPES

    p.add_argument("--scope", choices=SCOPES, default="all")


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    from .bench import BENCH_FAMILIES, BENCH_METHODS

    p.add_argument("--family", choices=BENCH_FAMILIES, required=True)
    p.add_argument("--max", type=int, required=True, help="largest factor size or dimension")
    p.add_argument("--methods", default=",".join(BENCH_METHODS), help="comma-separated method list")
    p.add_argument("-o", "--output", help="output path (default stdout)")


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
    p.add_deferred = _verify_arguments
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="time factorized against materialized accumulation")
    p.add_deferred = _bench_arguments
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
