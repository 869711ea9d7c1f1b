"""Request launcher: forks and runs each request, then reports its exit code, wall time and peak RSS.

The benchmark starts this small process once per run and sends it one JSON
line per request (``argv``, ``cwd``, ``stdout``, ``stderr``, ``timeout_s``);
it answers one JSON line (``code``, ``wall_s``, ``maxrss_kb``).  A child's
``ru_maxrss`` counts the resident set of the process that forked it, so
forking requests from the benchmark itself, which holds the expected
outputs, would report its size instead of the request's.  This process stays
smaller than any request's own peak.  A request still running after
``timeout_s`` is killed.
"""

import json
import os
import signal
import sys
import time

_child = 0


def _kill_child(signum, frame):
    if _child:
        try:
            os.kill(_child, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run(job: dict) -> dict:
    global _child
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(job["cwd"])
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(os.open(job["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
            os.dup2(os.open(job["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
            os.execv(job["argv"][0], job["argv"])
        finally:
            os._exit(127)
    _child = pid
    signal.alarm(job["timeout_s"])
    _, status, usage = os.wait4(pid, 0)
    signal.alarm(0)
    _child = 0
    wall = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    signal.signal(signal.SIGALRM, _kill_child)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
