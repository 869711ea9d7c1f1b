"""Steadiness check: run every workload once per seed and report each metric's spread.

Usage: ``python3 perfbench/steadiness.py [--seeds N] [--first-seed S] [--workloads A,B] [--out FILE]``

For each workload and end-to-end metric this prints the median of the runs
and the distance between the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  A benchmark is steady when every
spread except ``setup_s`` stays below a third of its bound.  ``--out``
writes every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated subset of the workloads")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {}
    for workload in names:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} outputs wrong")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(workload, []).append({"seed": seed, **values})
            print(f"{workload} seed {seed}: " + "  ".join(f"{k} {v:.4g}" for k, v in values.items()), flush=True)
    print()
    for workload, rows in runs.items():
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in rows]
            s = spread(values) if len(values) > 1 else float("nan")
            flag = "" if metric["name"] == "setup_s" or s < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{workload:<14} {metric['name']:<16} median {statistics.median(values):.5g} {metric['unit']:<5} "
                  f"spread {s:6.2%}  bound {metric['bound']:.0%}{flag}")
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
