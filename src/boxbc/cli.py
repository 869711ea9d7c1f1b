"""Command-line front end.

Subcommands: ``gen`` writes family edge lists, ``product`` composes edge-list
files, ``bc`` computes betweenness by any route, ``wiener`` prints exact total
distances, ``verify`` runs the cross-validation suites, and ``bench`` times
the factorized route against materialized accumulation.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 verification
failure, 141 when the reader closes the output pipe early.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import _EXPORTS, _bind_on_first_use
from .graph import GraphError

# The commands call boxbc's public names, each imported from its module on
# first access, so a request loads only the modules its route runs.  Every
# call goes through ``_self``, this module, so a name rebound on ``cli`` (a
# test's patch, a tracing wrapper) is the one the route runs.
__getattr__ = _bind_on_first_use(globals(), _EXPORTS)
_self = sys.modules[__name__]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
# what a shell reports for a writer killed by SIGPIPE: 128 + 13
EXIT_BROKEN_PIPE = 141

BC_METHODS = ("brandes", "factorized", "closed-form")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract reserves
    # 2 for validation, so route usage problems through _UsageError instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    # A subcommand whose options come from a module no other command needs
    # (gen, verify, bench) adds them here, when argparse selects that subcommand,
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


# family -> closed form: a value per vertex, or one value for every vertex
_CLOSED_FORMS: dict[str, Callable[..., Fraction | Iterable[Fraction]]] = {
    "grid": lambda m, n: _self.factorized_betweenness_all(_self.product_spec(_self.family_factors("grid", m, n))),
    # a path is geodetic: vertex i lies on the one geodesic of each of its i * (n - 1 - i) separated pairs
    "path": lambda n: (Fraction(i * (n - 1 - i)) for i in range(n)),
    "hypercube": lambda r: _self.hypercube_bc(r),
    "hamming": lambda *sizes: _self.hamming_bc(sizes),
    "torus": lambda m, n: _self.torus_bc(m, n),
    "cycle": lambda n: _self.even_cycles_bc([n]) if n % 2 == 0 else _self.odd_cycles_bc([n]),
    # K_n has diameter 1, so no vertex lies between two others
    "complete": lambda n: Fraction(0),
}


def _closed_form(family: str, params: list[int]) -> Fraction | Iterable[Fraction]:
    _self.check_family(family, *params)
    if family not in _CLOSED_FORMS:
        raise GraphError(f"no closed form for family {family!r}")
    return _CLOSED_FORMS[family](*params)


def cmd_gen(args: argparse.Namespace) -> int:
    family, params = _family_request([args.family, *args.params])
    # a product family streams its edges from the factors, like ``product``
    factors = _self.family_factors(family, *params)
    instance = _self.generate(family, *params) if factors is None else _self.product_spec(factors)
    _emit(_self.format_edge_list(instance), args.output)
    return EXIT_OK


def cmd_product(args: argparse.Namespace) -> int:
    factors = [_self.load_graph(p) for p in args.files]
    _emit(_self.format_edge_list(_self.product_spec(factors)), args.output)
    return EXIT_OK


def cmd_bc(args: argparse.Namespace) -> int:
    given = [v for v in (args.file, args.family, args.factors) if v is not None]
    if len(given) != 1:
        raise _UsageError("give exactly one input: an edge-list file, --family, or --factors")
    method = args.method
    uniform = False

    if args.file is not None:
        if method in ("factorized", "closed-form"):
            raise _UsageError(f"--method {method} does not apply to a plain edge-list file")
        descriptor, spec = args.file, None
        materialize = lambda: _self.load_graph(args.file)
    elif args.factors is not None:
        if method == "closed-form":
            raise _UsageError("--method closed-form needs --family")
        paths = _split_paths(args.factors)
        descriptor = " x ".join(paths)
        spec = _self.product_spec(_self.load_graph(p) for p in paths)
        materialize = lambda: _self.cartesian_product(spec).graph
    else:
        family, params = _family_request(args.family)
        descriptor = f"{family}({', '.join(map(str, params))})"
        if method == "closed-form":
            # a closed form reads only the parameters, so it runs before any factor is built,
            # and gives one value when that value stands for every vertex
            values = _closed_form(family, params)
            uniform = isinstance(values, Fraction)
            if uniform and args.labels == "coords":
                raise _UsageError("a uniform report has a single '*' row; coordinate labels do not apply")
        # coordinate labels need the factors
        factors = None if method == "closed-form" and args.labels != "coords" else _self.family_factors(family, *params)
        if method == "factorized" and factors is None:
            raise _UsageError("--method factorized needs --factors or a product family")
        spec = None if factors is None else _self.product_spec(factors)
        materialize = lambda: _self.generate(family, *params) if spec is None else _self.cartesian_product(spec).graph

    if args.labels == "coords" and spec is None:
        raise _UsageError("--labels coords needs a product input (--factors or a product family)")

    if method == "factorized":
        values = _self.factorized_betweenness_all(spec)
    elif method == "brandes":
        values = _self.betweenness(materialize())
    report = _self.CentralityReport(method, descriptor, (values,) if uniform else tuple(values), uniform)

    labels = [str(c) for c in spec.coordinates()] if args.labels == "coords" else None

    text = _self.report_to_csv(report, labels) if args.format == "csv" else _self.report_to_json(report, labels)
    _emit(text, args.output)
    return EXIT_OK


def cmd_wiener(args: argparse.Namespace) -> int:
    if (args.file is None) == (args.factors is None):
        raise _UsageError("give exactly one input: an edge-list file or --factors")
    if args.factors is not None:
        value = _self.product_wiener([_self.load_graph(p) for p in _split_paths(args.factors)])
    else:
        value = _self.wiener(_self.load_graph(args.file))
    _emit(f"{value}\n", args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = _self.run_verify(args.scope)
    failures = 0
    for r in results:
        failures += not r.passed
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} [{r.scope}] {r.name}: {r.detail} ({r.seconds:.2f} s)")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_bench(args: argparse.Namespace) -> int:
    from .verify import bench_to_csv, run_bench

    methods = [m for m in args.methods.split(",") if m]
    rows = run_bench(args.family, args.max, methods)
    _emit(bench_to_csv(rows), args.output)
    return EXIT_OK


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", help=f"one of: {', '.join(_self.FAMILIES)}")
    p.add_argument("params", nargs="*", help="integer family parameters")
    p.add_argument("-o", "--output", help="output path (default stdout)")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scope", choices=_self.SCOPES, default="all")


def _bench_arguments(p: argparse.ArgumentParser) -> None:
    from .verify import BENCH_FAMILIES, BENCH_METHODS

    p.add_argument("--family", choices=BENCH_FAMILIES, required=True)
    p.add_argument("--max", type=int, required=True, help="largest factor size or dimension")
    p.add_argument("--methods", default=",".join(BENCH_METHODS), help="comma-separated method list")
    p.add_argument("-o", "--output", help="output path (default stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="boxbc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family instance as an edge list")
    p.add_deferred = _gen_arguments
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
    except BrokenPipeError:
        # the reader went away; that is not bad input, so console_main handles it
        raise
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``).  Point fd 1 at devnull so
        # the exit flush of what stdout still buffers cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    # Interpreter shutdown runs full collections over every live object, a
    # few milliseconds of a fast request.  Every output is written and closed
    # by now, so move the heap to the permanent generation, which those
    # collections skip; stdout is still flushed at exit.
    gc.freeze()
    sys.exit(code)
