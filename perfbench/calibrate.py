"""A fixed loop that measures how fast the machine runs at the moment.

The speed of a shared virtual machine drifts: on a 2-vCPU VM the same
pure-Python loop took anywhere from 45 to 72 ms, in phases that last from
seconds to minutes, and rates measured on different runs spread by 0.2 to
0.5 of their median.  That would swamp the differences the benchmark is
meant to show.  The benchmark therefore times this loop, which shares no
code with discocirc, after every timed call, and scales the run's median
rate by the loop's median time over ``CALIB_REF_S``: the result is the
rate this machine would reach if it ran the loop in ``CALIB_REF_S``.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# about the loop's time on the 2-vCPU VM the benchmark was defined on
CALIB_REF_S = 0.008


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _calibration_loop() -> float:
    """One pass over the three kinds of work the program does, in about
    equal shares: small objects and dicts in the interpreter, many
    allocated tuples, and gates on a 10-qubit statevector."""
    start = time.perf_counter()
    table = {}
    for i in range(2500):
        cell = _Cell((i, i + 1), i)
        table[cell.key] = [cell.value, str(i % 13)]
    sorted(table, key=lambda k: -k[0])
    rows = [(i, (i, i + 1), (i % 7,)) for i in range(3000)]
    index = {row[1]: row for row in rows}
    rows.sort(key=lambda row: (row[2], -row[0]))
    sum(index[(i, i + 1)][0] for i in range(0, 3000, 3))
    psi = np.zeros((2,) * 10, dtype=complex)
    psi[(0,) * 10] = 1.0
    for _ in range(10):
        for q in range(10):
            psi = np.moveaxis(np.tensordot(_H, psi, axes=([1], [q])), 0, q)
    return time.perf_counter() - start


def calibration_seconds() -> float:
    """Time of the calibration loop: the best of three, so that a brief
    stall does not count as a slow machine.

    The garbage collector is off meanwhile: a collection would scan the
    program's live objects, whose number differs between workloads."""
    gc.disable()
    try:
        return min(_calibration_loop() for _ in range(3))
    finally:
        gc.enable()
