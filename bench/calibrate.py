"""Machine-speed calibration for the benchmark's times.

The benchmark runs on shared hosts whose speed swings by a third or more
for seconds to minutes at a time, which no run length averages out.  A
fixed kernel, timed right next to each measured call, tracks those swings:
every time the benchmark reports is scaled by ``REFERENCE_S`` over the
kernel's time measured beside it, so it reads as the time the call would
take on a machine where the kernel takes ``REFERENCE_S``.

The kernel is the same kind of work as the package (integer orientation
tests, tuples, frozensets, dicts and fractions) but does not use the
package, so a change to the package never changes it.  Changing the
kernel or ``REFERENCE_S`` re-bases every reported time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.0e-3

_rng = random.Random(7)
POINTS = tuple((_rng.randrange(-50, 50), _rng.randrange(-50, 50)) for _ in range(14))


def orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def kernel() -> tuple[int, Fraction]:
    """Left sides of every directed pair of POINTS, then a fraction sum."""
    sides = {}
    shapes = set()
    for i, a in enumerate(POINTS):
        for j, b in enumerate(POINTS):
            if i != j:
                left = frozenset(k for k, c in enumerate(POINTS) if orient(a, b, c) > 0)
                sides[(i, j)] = left
                shapes.add((len(left), min(left, default=-1)))
    acc = Fraction(0)
    for (i, j), left in sides.items():
        if len(left) % 3 == 0:
            acc += Fraction(len(left), 1 + i + j)
    return len(shapes), acc


def kernel_s() -> float:
    """Wall time of one kernel call, with the cyclic collector held off so
    that the size of the package's heap does not reach the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def warm_kernel_s() -> float:
    """Median kernel time over nine calls, the first ones warming it."""
    return statistics.median(kernel_s() for _ in range(9))
