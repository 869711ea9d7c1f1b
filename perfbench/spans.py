"""Trace aggregator: per-layer self time and counts from the span files of a traced run.

Usage: ``python3 perfbench/spans.py DIR`` where ``DIR`` is the ``spans``
directory a traced run leaves in its work directory.  It holds one JSON file
per request, written by ``traced_child.py``, and ``requests.json`` with the
wall time the benchmark measured for each request.

A span's self time is its duration minus the time its child spans cover.
The ``cli.main`` span's self time is reported as ``cli.self_s``;
``cli.process_s`` is a request's wall time minus its ``import boxbc.cli``
and ``main`` time, i.e. interpreter start-up, tracing set-up and exit.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

REQUESTS_FILE = "requests.json"


def self_times(records: list[dict], walls: dict[str, float]) -> dict[str, float]:
    """Totals over all requests: ``<layer>_s`` self seconds and every count."""
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        spans = record["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, counts in spans:
            if parent >= 0:
                covered[parent] += end - start
        main_s = 0.0
        for (name, start, end, parent, counts), child_s in zip(spans, covered):
            if name == "cli.main":
                main_s += end - start
                name = "cli.self"
            totals[f"{name}_s"] += end - start - child_s
            for key, value in (counts or {}).items():
                totals[key] += value
        totals["cli.import_s"] += record["import_s"]
        totals["cli.process_s"] += walls[record["request"]] - record["import_s"] - main_s
    return dict(totals)


def load(directory: Path) -> tuple[list[dict], dict[str, float]]:
    requests = json.loads((directory / REQUESTS_FILE).read_text(encoding="utf-8"))
    walls = {r["request"]: r["wall_s"] for r in requests}
    records = [json.loads((directory / f"{r['request']}.json").read_text(encoding="utf-8")) for r in requests]
    return records, walls


def table(totals: dict[str, float], walls: dict[str, float]) -> str:
    """Per-layer lines: total, per request, and seconds as a share of the traced wall time."""
    count = len(walls)
    wall = sum(walls.values())
    lines = [f"{count} traced requests, {wall:.3f} s wall in total (the base of every share below)"]
    for name in sorted((k for k in totals if k.endswith("_s")), key=totals.get, reverse=True):
        value = totals[name]
        lines.append(f"  {name:<28} {value:10.4f} s  {value / count:9.5f} s/request  {value / wall:7.2%} of wall")
    for name in sorted(k for k in totals if not k.endswith("_s")):
        value = totals[name]
        lines.append(f"  {name:<28} {value:10.0f}    {value / count:12.1f} /request")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    records, walls = load(Path(argv[0]))
    print(table(self_times(records, walls), walls))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
