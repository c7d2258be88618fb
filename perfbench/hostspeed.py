"""Host speed, sampled during the benchmark, to normalize its timings.

On a shared virtual machine the CPU itself runs faster or slower in
stretches of tens of seconds to minutes, depending on what other tenants
run.  A fixed pure-Python loop can take 1.5 times as long in a slow
stretch, in CPU time as well as in wall time.  Two sets of runs of the
same code, made minutes apart, then differ by more than any change one
would want to detect.

:class:`HostSpeed` times a fixed calibration kernel, in CPU time, at
points the workload chooses: :meth:`HostSpeed.sample` runs it in the
calling thread (between requests), and :meth:`HostSpeed.background` runs
it in a child process every ``INTERVAL_S`` seconds, alternating over the
CPUs the benchmark may use, for workloads that keep several threads
busy.  The kernel uses none of
the program's code, so a change to the program cannot change it.
Timings taken over a window are multiplied by :meth:`HostSpeed.factor`,
which is ``NOMINAL_KERNEL_S`` over the median kernel time in that
window: they read as seconds on a host running at the nominal speed.

Run directly, this file is the background sampler::

    python3 perfbench/hostspeed.py

It samples until its standard input is closed, then prints the samples
as one JSON list of ``[monotonic start, kernel CPU seconds]`` pairs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: Pause between two background samples.  The kernel takes about 17 ms
#: of CPU, so the background sampler uses about 5% of one CPU.
INTERVAL_S = 0.3
#: Median kernel CPU time on the 2-vCPU container the README's baselines
#: come from; a factor of 1 means the host ran at that speed.
NOMINAL_KERNEL_S = 0.017
#: Fewest samples a factor is taken from; a shorter window borrows the
#: samples nearest to it.
MIN_SAMPLES = 5


def _kernel_parts():
    import numpy as np

    record = {"ipt": [1.5, 2.25, 3.125] * 4, "cfg": {"w": 4, "rob": "x" * 12}}
    grid = np.linspace(0.1, 2.0, 4096)

    def arithmetic() -> int:
        total = 0
        for i in range(30_000):
            total += i * i % 7
        return total

    def hashing() -> None:
        for i in range(300):
            record["seed"] = i
            hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()

    def vectors() -> None:
        for _ in range(60):
            y = np.sqrt(grid) * grid + np.log(grid)
            y = np.where(y > 1.0, y, 0.5 * y)
            np.unique(np.round(y, 2))

    def objects() -> int:
        table = {}
        for i in range(8_000):
            point = (i, i * 0.5, str(i))
            table[(point[0], point[2])] = point[1]
        return len(table)

    return (arithmetic, hashing, vectors, objects)


def _time_kernel(parts) -> tuple[float, float]:
    """(monotonic start, CPU seconds) of one kernel run in this thread.

    The cyclic garbage collector is paused meanwhile: a collection that
    the kernel's allocations set off would scan the program's heap, and
    make the kernel's time depend on the program.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.monotonic()
        cpu = time.thread_time()
        for part in parts:
            part()
        return started, time.thread_time() - cpu
    finally:
        if collecting:
            gc.enable()


def sample_until_stdin_closes() -> list[tuple[float, float]]:
    """The background sampler's loop: one kernel run per interval, CPUs in turn."""
    parts = _kernel_parts()
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    turn = 0
    while True:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        turn += 1
        samples.append(_time_kernel(parts))
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready:  # a line or end of file: stop
            return samples


class HostSpeed:
    """Kernel samples, and the normalizing factors they give."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._parts = _kernel_parts()

    def sample(self) -> float:
        """Time the kernel in this thread; return the wall time it took."""
        began = time.perf_counter()
        self.samples.append(_time_kernel(self._parts))
        return time.perf_counter() - began

    @contextmanager
    def background(self) -> Iterator[None]:
        """Sample in a child process for the duration of the block."""
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            yield
        finally:
            try:
                out, _ = proc.communicate(input="", timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"host speed sampler exited with {proc.returncode}")
        self.samples.extend(tuple(pair) for pair in json.loads(out))

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over ``[start, end]`` (monotonic clock)."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda pair: abs(pair[0] - middle))
            inside = [s for _, s in nearest[:MIN_SAMPLES]]
        return statistics.median(inside)

    def factor(self, start: float, end: float) -> float:
        """Multiplier that takes a timing over the window to nominal speed."""
        return NOMINAL_KERNEL_S / self.kernel_s(start, end)


if __name__ == "__main__":
    print(json.dumps(sample_until_stdin_closes()))
