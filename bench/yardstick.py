"""A fixed pure-Python yardstick of host speed, independent of ``iasi``.

The benchmark's host (a few vCPUs of a shared machine) changes speed by tens
of percent over seconds to minutes, and CPU time moves with wall time, so the
slowdown is the processor's, not the scheduler's.  The benchmark therefore
times this fixed loop between its jobs, in the same stretch of time and the
same kind of process as the jobs, and reports its times scaled to a host on
which one sample takes ``REF_SAMPLE_S`` (in-process) or ``REF_SPAWN_S`` (as
a fresh interpreter).  No change to ``iasi`` can change the loop, so the scaling
keeps every regression and gain of the program while it cancels host drift.

    python3 bench/yardstick.py    # one sample in a fresh interpreter

The loop does what the library does most: small-integer arithmetic, set
building, frozenset unions and dict updates.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

# Typical sample times on a 2-vCPU VM (Python 3.11); fixed constants, so the
# scaled metrics stay comparable across runs and commits.
REF_SAMPLE_S = 0.013
REF_SPAWN_S = 0.085


def work() -> int:
    acc, seen, table = 0, set(), {}
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
        seen.add(acc & 4095)
    blocks = [frozenset(range(j, j + 24, 3)) for j in range(0, 2_000, 4)]
    for a, b in zip(blocks, blocks[1:]):
        table[len(table)] = a | b
    return acc + len(seen) + len(table)


def sample() -> float:
    """Seconds for one run of the loop in this process."""
    start = perf_counter()
    work()
    return perf_counter() - start


def spawn() -> float:
    """Seconds to run the loop in a fresh interpreter, launch to exit, as
    the benchmark's child processes run."""
    start = perf_counter()
    # No timeout: with one, ``wait`` polls with sleeps of up to 50 ms, which
    # would quantize the time; the loop cannot hang.
    subprocess.run([sys.executable, __file__], check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


if __name__ == "__main__":
    work()
