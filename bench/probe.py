"""Samples how fast one CPU runs while a benchmark job runs on it.

On a shared host a CPU's speed changes from one fraction of a second to the
next as other tenants load the physical core, by up to about 2x for code
made of interpreter steps and small NumPy calls, and the average level
drifts over minutes. bench/run.py pins each job to one CPU and asks this
process to sample that CPU meanwhile: every SAMPLE_PERIOD_S it times one
fixed unit of work (a Python loop of small NumPy operations, the shape of
the workloads' inner loops) in thread CPU time, so a sample reads the
CPU's speed and not the time the sampler waited for the job's time slice.
A sample costs about 0.7 ms, under 2% of the job's CPU.

Protocol: "start CPU" on a stdin line starts sampling on that CPU; "stop"
stops it and answers one JSON line with the samples in nanoseconds. It
exits when stdin closes.
"""

import json
import os
import sys
import threading
import time

import numpy as np

SAMPLE_PERIOD_S = 0.04
_VECTOR = np.full(8, 0.5)


def unit_ns() -> int:
    """Thread CPU time of one fixed unit of work."""
    start = time.thread_time_ns()
    a = _VECTOR
    for _ in range(150):
        a = a * 0.5 + 0.25
    x = float(a.sum())
    for i in range(1500):
        x += i * 0.5
    return time.thread_time_ns() - start


def sample(cpu: int, stop: threading.Event, out: list[int]) -> None:
    os.sched_setaffinity(0, {cpu})  # pins this thread only
    while not stop.is_set():
        out.append(unit_ns())
        stop.wait(SAMPLE_PERIOD_S)


def main():
    thread = stop = samples = None
    for line in sys.stdin:
        command = line.split()
        if command[0] == "start":
            samples, stop = [], threading.Event()
            thread = threading.Thread(target=sample, args=(int(command[1]), stop, samples))
            thread.start()
        elif command[0] == "stop":
            stop.set()
            thread.join()
            print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    main()
