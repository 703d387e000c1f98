"""The reference slice: a fixed piece of the benchmark's own pure-Python
work, timed during a run to read how fast the box's cores are running.

The reference box is a shared VM whose cores each change speed by tens
of percent over seconds to minutes, independently of each other, with
the neighbours' load.  Timings taken minutes apart then differ by more
than any change worth measuring.  A run therefore times reference
slices beside its workload, and ``rescale_factor`` turns their mean time
into the factor that rescales the run's timings to the speed at which
one slice takes ``REF_NS``.  The slices call no program code, so a
change to the program moves the rescaled timings in full.
"""

from __future__ import annotations

import os
import time
from typing import List, Sequence

#: Loop rounds in one reference slice (about 0.4 ms).
REF_ROUNDS = 1000
#: Mean ns of one slice at the speed timings are rescaled to: the
#: reference box's usual speed.
REF_NS = 420_000
#: Slices ``time_each_core`` times on each core.
REF_REPEAT = 3


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _count(n: int):
    i = 0
    while i < n:
        yield i
        i += 1


def reference_work(cells: list, table: dict, rounds: int) -> int:
    """Fixed work in the program's idiom: a generator, slot attributes
    and dict lookups.  It allocates no containers, so no garbage
    collection of the program's heap lands inside it."""
    acc = 0
    for i in _count(rounds):
        cell = cells[(i * 7919) & 255]
        cell.value = (cell.value + i) & 0xFFFF
        acc ^= table.get(cell.value & 1023, 0)
        table[i & 1023] = acc
    return acc


class Reference:
    """Times reference slices."""

    def __init__(self) -> None:
        self._cells = [_Cell() for _ in range(256)]
        self._table: dict = {}

    def time_slice(self) -> int:
        """ns taken by one slice on the current core."""
        t0 = time.perf_counter_ns()
        reference_work(self._cells, self._table, REF_ROUNDS)
        return time.perf_counter_ns() - t0

    def time_each_core(self) -> List[int]:
        """``REF_REPEAT`` slices on each core this process may run on.

        The process pins itself to one core at a time and is unpinned
        again before returning.
        """
        cores = os.sched_getaffinity(0)
        out = []
        try:
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                out += [self.time_slice() for _ in range(REF_REPEAT)]
        finally:
            os.sched_setaffinity(0, cores)
        return out


def rescale_factor(slice_ns: Sequence[int]) -> float:
    """Factor that rescales timings taken beside these slices to the
    speed at which a slice takes ``REF_NS``."""
    if not slice_ns:
        raise RuntimeError("no reference slices were timed")
    return REF_NS * len(slice_ns) / sum(slice_ns)
