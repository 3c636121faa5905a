"""Start and measure benchmark jobs from a process that stays small.

    python perfbench/launch.py

A child's peak RSS, as wait4 reports it, is never below the peak RSS of the
process that started it: Linux carries the parent's high-water mark across
fork and exec.  The benchmark process parses every output, up to hundreds of
MB of Python objects, so it hands each job to this process, which it starts
before it grows and which does nothing but run jobs.

Each request is one JSON line on stdin, [cmd, err_file, timeout_s]; each
reply is one JSON line on stdout, [wall_s, cpu_s, peak_rss_mb, exit_code].
The job's stdout is discarded and its stderr written to err_file; a job still
running after timeout_s is killed.  The launcher ends at the end of its input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def measure(cmd: list[str], err_file: str, timeout: float) -> list:
    """One fresh process; wall time, CPU time and peak RSS from wait4."""
    with open(err_file, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode]


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(measure(*json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
