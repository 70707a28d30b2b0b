"""Reference kernel that measures how fast the machine runs right now.

On a shared 2-core Xeon virtual machine the same Python code was measured
running up to 1.6 times slower for tens of seconds at a time, with process
CPU time slowing alike, so neither wall nor CPU time repeats across runs. The benchmark therefore times this
fixed kernel right before and after every timed command and scales the
command's wall time by ``NOMINAL_S / kernel time``: the result is the
command's time on a machine where the kernel takes ``NOMINAL_S``. Raw wall
times are kept in the run record next to the scaled ones.

The kernel is plain Python (dict updates, string building and splitting),
like most of the program's work, and it never changes with the program.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time the scaled timings refer to: a round figure near the kernel's
#: time on one core of that 2 GHz Xeon machine.
NOMINAL_S = 0.003
REPEATS = 3


def _kernel() -> int:
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 499] = table.get(i % 499, 0) + i
    words = " ".join(map(str, range(2400))).split("7")
    return len(table) + len(words)


def seconds() -> float:
    """Median time of a few kernel runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at nominal speed, from kernel times taken around it."""
    return wall_s * NOMINAL_S / ((before_s + after_s) / 2.0)
