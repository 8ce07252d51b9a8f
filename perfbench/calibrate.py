"""Host speed, measured by fixed kernels timed next to each timed phase.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same scenario execution takes up to twice as long in one minute as
in the next, and process CPU time drifts with it (the cores and the
memory system slow down; the process is not descheduled).
:func:`host_factor` times two fixed kernels that do the kinds of work
the simulator does -- interpreter work (slotted-object attribute
traffic, dict updates, heap pushes and pops, a walk over an 8 MB array)
and fresh memory (a 16 MB numpy array allocated, touched and doubled)
-- and returns how much slower than on the reference host the program
should run now.  A timed phase's wall time (one execution, or one burst
of set-ups) divided by the mean of the factors sampled just before and
just after it is its time in *reference seconds*: a change to the
program moves it, a drift of the host moves the phase and the factor
alike and cancels.
"""

from __future__ import annotations

import heapq
import statistics
import time
from array import array

import numpy as np

#: Kernel repetitions per host-factor sample (their median is taken).
REPS = 7
#: How the program's time follows the kernels': the exponent of the
#: kernels' slowdown.  On the sizing host the exponent that made 5 to
#: 10 runs of a workload agree best lay between 0.5 and 1.0 (the short
#: kernels can feel a slow phase of the host more than a scenario
#: execution does); 0.75 kept the worst spread seen lowest.
SENSITIVITY = 0.75

_WALK = array("q", range(1 << 20))


class _Cell:
    __slots__ = ("key", "hits", "bits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.bits = 0.0


def interpreter_kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    cells = [_Cell(key) for key in range(512)]
    table = {}
    heap = []
    walk = _WALK
    size = len(walk)
    total = 0
    position = 0
    for step in range(20000):
        cell = cells[(step * 7919) % 512]
        cell.hits += 1
        cell.bits += 0.5
        table[cell.key] = table.get(cell.key, 0) + cell.hits
        heapq.heappush(heap, (step * 2654435761) % 1000003)
        if len(heap) > 64:
            total += heapq.heappop(heap)
        position = (position + 40503) % size
        total += walk[position]
    return total + len(table)


def memory_kernel() -> float:
    """Fresh pages (two 16 MB arrays) written and read; returns a checksum."""
    ones = np.ones(1 << 21)
    doubled = ones * 2.0
    return float(doubled[::4096].sum())


#: Each kernel with its median time on the host the workloads were
#: sized on (workloads.json ``sized_on``).  Any fixed values work: only
#: ratios of reference seconds are compared across commits.
KERNELS = ((interpreter_kernel, 0.02), (memory_kernel, 0.0085))


def host_factor(reps: int = REPS) -> float:
    """How many times slower than on the reference host a phase runs now.

    The geometric mean of the kernels' slowdowns, to the power
    :data:`SENSITIVITY`.
    """
    product = 1.0
    for kernel, reference_s in KERNELS:
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
        product *= statistics.median(times) / reference_s
    return product ** (SENSITIVITY / len(KERNELS))
