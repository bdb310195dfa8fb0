"""Starts the benchmark's child processes on behalf of bench/run.py.

Linux counts in a child's peak RSS (ru_maxrss) the resident set of the
process it was forked from, so children forked straight from the runner,
which grows as its run records accumulate, could report the runner's size
whenever they are smaller. This helper is started first and stays small.

Protocol: one JSON request per stdin line ({"argv", "cwd", "env", "log",
"timeout", "cpu"}); one JSON reply per stdout line ({"wall_s",
"peak_rss_mib", "exit_code"}). The child is pinned to "cpu" when it is not
null. It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    cpus = os.sched_getaffinity(0)
    with open(request["log"], "wb") as out:
        if request.get("cpu") is not None:
            os.sched_setaffinity(0, {request["cpu"]})  # the child inherits it
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
        finally:
            os.sched_setaffinity(0, cpus)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
