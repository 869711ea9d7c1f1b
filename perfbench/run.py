"""boxbc CLI benchmark: one closed-loop client, one ``boxbc`` process per request.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``.
Each request is a fresh ``python -m boxbc ...`` process, as a command-line
user runs it: every request pays interpreter start-up and ``import
boxbc.cli`` and no state carries over between requests.  The client starts
the next request only when the previous one has exited.

Set-up writes the workload's input files from the seed.  The client then
runs whole rounds, each round every request of the workload once in a
seeded order, for ``--seconds`` give or take half a round.  Before each
round the set-up is timed ``SETUPS_PER_ROUND`` times again into a scratch
directory, and ``setup_s`` is the median of all set-ups: a set-up takes
milliseconds, so timings taken only back to back would all see the machine
in one moment.  Every output is checked.  With ``--trace 0`` the last line reports the end-to-end metrics.
With ``--trace 1`` the first half of the time runs untraced rounds, the same
rounds then run again through ``traced_child.py``, and the last line reports
the per-layer metrics; span files stay in ``.perfbench_work/<workload>/spans``
for ``spans.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 whenever the
benchmark ran to the end; it is 1 when a request hangs past
``REQUEST_TIMEOUT_S`` and 2 when the program does not start.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from check import Checker
from workloads import WORKLOADS, Request, Workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REQUEST_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
SETUPS_PER_ROUND = 5


@dataclass
class Sample:
    request: Request
    wall_s: float
    rss_kb: int
    error: str | None


class RequestTimeout(Exception):
    pass


class Launcher:
    """Runs request processes one at a time through ``spawner.py``; see there for why."""

    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env, text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: list[str], cwd: Path, stdout_path: Path, stderr_path: Path) -> tuple[int, float, int]:
        """Exit code, wall seconds from launch to exit, and the process's ``ru_maxrss`` in KiB."""
        job = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout_path), "stderr": str(stderr_path),
               "timeout_s": REQUEST_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return reply["code"], reply["wall_s"], reply["maxrss_kb"]

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=REQUEST_TIMEOUT_S)
        self._proc.stdout.close()


class Client:
    """Runs requests in a workload's work directory and checks each output."""

    def __init__(self, workdir: Path, launcher: Launcher) -> None:
        self.workdir = workdir
        self.launcher = launcher
        self.checker = Checker()
        self.samples: list[Sample] = []
        self.stdout_path = workdir / "stdout.txt"
        self.stderr_path = workdir / "stderr.txt"

    def run(self, request: Request, trace_dir: Path | None = None, request_id: str = "") -> Sample:
        if request.output is not None:
            (self.workdir / request.output).unlink(missing_ok=True)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "boxbc", *request.argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_child.py"), str(trace_dir / f"{request_id}.json"),
                   request_id, *request.argv]
        code, wall, rss = self.launcher.run(cmd, self.workdir, self.stdout_path, self.stderr_path)
        source = self.workdir / request.output if request.output is not None else self.stdout_path
        try:
            text = source.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            text = f"<unreadable output: {exc}>"
        error = self.checker.check(request, code, text)
        if error is not None:
            detail = self.stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            print(f"FAILED {' '.join(request.argv)}: {error} {detail}", file=sys.stderr)
        if wall >= REQUEST_TIMEOUT_S:
            raise RequestTimeout(f"{' '.join(request.argv)} ran past {REQUEST_TIMEOUT_S} s")
        sample = Sample(request, wall, rss, error)
        self.samples.append(sample)
        return sample


def rounds_for(budget_s: float, requests: tuple[Request, ...], order: random.Random, client: Client,
               before_round=lambda: None) -> int:
    """Run whole seeded rounds until the next one would end more than half a round past ``budget_s``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        before_round()
        for request in order.sample(requests, len(requests)):
            client.run(request)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 > budget_s:
            return rounds


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, and its level in percent."""
    ordered = sorted(walls)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def setup(name: str, seed: int, directory: Path) -> tuple[Workload, float]:
    """Generate the workload's inputs from the seed and write them; also the seconds it took."""
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    workload = WORKLOADS[name](seed)
    write_inputs(workload, directory)
    return workload, time.perf_counter() - start


def end_to_end(samples: list[Sample], setup_s: float) -> dict[str, float]:
    walls = [s.wall_s for s in samples]
    correct = sum(1 for s in samples if s.error is None)
    tail_s, level = tail(walls)
    print(f"{len(walls)} requests, {correct} correct, error_rate {(len(walls) - correct) / len(walls):.4f}; "
          f"tail is p{level:.1f} ({TAIL_BEYOND} samples beyond it)")
    return {
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_s,
        "requests_per_s": correct / sum(walls),
        "peak_rss_mb": max(s.rss_kb for s in samples) / 1024,
        "setup_s": setup_s,
    }


def per_instance_summary(samples: list[Sample]) -> None:
    by_instance: dict[str, list[float]] = {}
    for s in samples:
        by_instance.setdefault(s.request.instance, []).append(s.wall_s)
    for instance, walls in sorted(by_instance.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {instance:<34} n={len(walls):<4} median {statistics.median(walls):.4f} s  "
              f"max {max(walls):.4f} s")


def traced_rounds(rounds: int, requests, order: random.Random, client: Client, trace_dir: Path) -> None:
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    index = []
    for r in range(rounds):
        for i, request in enumerate(order.sample(requests, len(requests))):
            request_id = f"r{r}-{i}"
            sample = client.run(request, trace_dir, request_id)
            index.append({"request": request_id, "instance": request.instance, "wall_s": sample.wall_s})
    (trace_dir / spans.REQUESTS_FILE).write_text(json.dumps(index), encoding="utf-8")


def per_layer(metric_names: list[str], untraced: list[Sample], trace_dir: Path) -> dict[str, float]:
    """Per-request means of every layer's self time and counts; absent layers read 0."""
    records, walls = spans.load(trace_dir)
    totals = spans.self_times(records, walls)
    print(spans.table(totals, walls))
    metrics = {name: totals.get(name, 0.0) / len(walls) for name in metric_names}
    metrics["trace.overhead_s"] = statistics.median(walls.values()) - statistics.median(s.wall_s for s in untraced)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "boxbc" / "cli.py").is_file():
        print(f"error: no boxbc sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    workdir = WORK / args.workload
    workload, setup_s = setup(args.workload, args.seed, workdir)
    setup_times = [setup_s]

    def time_setup() -> None:
        for _ in range(SETUPS_PER_ROUND):
            setup_times.append(setup(args.workload, args.seed, workdir / "setup_again")[1])

    launcher = Launcher({**os.environ, "PYTHONPATH": str(src)})
    try:
        client = Client(workdir, launcher)
        # Compile the package's bytecode once, as an installed package would have it.
        if launcher.run([sys.executable, "-m", "boxbc", "--help"], workdir, client.stdout_path, client.stderr_path)[0]:
            print("error: `python -m boxbc --help` failed; the program does not start", file=sys.stderr)
            return 2
        order_seed = f"order:{args.workload}:{args.seed}"
        if args.trace:
            rounds = rounds_for(args.seconds / 2, workload.requests, random.Random(order_seed), client)
            untraced = list(client.samples)
            traced_rounds(rounds, workload.requests, random.Random(order_seed), client, workdir / "spans")
            metrics = per_layer(list(units), untraced, workdir / "spans")
        else:
            rounds = rounds_for(args.seconds, workload.requests, random.Random(order_seed), client, time_setup)
            per_instance_summary(client.samples)
            metrics = end_to_end(client.samples, statistics.median(setup_times))
    except RequestTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
    print(f"{args.workload}: {rounds} rounds of {len(workload.requests)} requests")
    failed = sum(1 for s in client.samples if s.error is not None)
    result = {
        "correct": failed == 0,
        "attempted": len(client.samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for name in units:
        print(f"{name:<28} {metrics[name]:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
