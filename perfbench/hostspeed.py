"""Rescales timings taken on a shared host to a fixed reference speed.

Other tenants of a shared machine change how fast this process runs from one
minute to the next: on a 2-vCPU cloud host the same ``paper-mock`` job took
2.1 s and 3.6 s a minute apart, in CPU time as much as in wall time, and the
medians of two sets of runs of the same code moved by up to 40%. So the
worker runs a fixed reference kernel right before and right after every
timed interval, and divides the interval's busy part by how much slower than
its nominal time the kernel ran. Waiting (sleeps on the fake transport) is
kept as measured: host load does not stretch it.

The kernel is benchmark code, not graphfill code. Half its time is integer
arithmetic and half is building and dropping small dicts of tuples and
strings: host load slows allocation-heavy code (graphfill's prompts and
writers) more than arithmetic. With arithmetic alone, paper-mock jobs
still read about 17% slower after rescaling on a host loaded until the
kernel ran 1.3-1.6 times slower than on a quiet host; with the mix, runs at
that load read about 9% slower than lightly loaded ones. The rescaling
removes most of the host's load, not all of it. The garbage collector is
off while the kernel runs, so the size of graphfill's heap cannot change
its time.
"""

from __future__ import annotations

import gc
import statistics
import time

ARITHMETIC_LOOPS = 150_000
# Small tables: the kernel must not raise a workload's peak memory.
TABLE_ROUNDS, TABLE_SIZE = 40, 1_500
# The kernel's median time on a quiet 2-vCPU x86-64 cloud host (CPython 3.11).
NOMINAL_S = 0.022
SAMPLES = 3


def _kernel() -> int:
    total = 0
    for i in range(ARITHMETIC_LOOPS):
        total += i * i % 7
    for _ in range(TABLE_ROUNDS):
        table = {i: (i, str(i)) for i in range(TABLE_SIZE)}
        total += len(table)
    return total


def kernel_samples(count: int = SAMPLES) -> list[float]:
    """Wall times of ``count`` runs of the reference kernel."""
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return times


def slowdown(before: list[float], after: list[float]) -> float:
    """How much slower than nominal the host ran around an interval."""
    return statistics.median(before + after) / NOMINAL_S


def rescale(wall_s: float, cpu_s: float, factor: float) -> float:
    """An interval's time at nominal host speed: busy part divided by ``factor``.

    ``cpu_s`` is the process CPU time spent in the interval; the part of the
    wall time it does not cover is waiting and stays as measured.
    """
    busy = min(cpu_s, wall_s)
    return wall_s - busy + busy / factor
