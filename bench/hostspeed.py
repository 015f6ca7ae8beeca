"""A fixed reference kernel that measures how fast the host runs right now.

The shared host this benchmark was built on changes speed by up to 1.8x for
seconds to minutes at a time, on both vCPUs together, so raw op times of the
same code on the same input differ by more than any useful regression bound.
A `Meter` times each haarmult call of an op, runs this kernel in a short
block after it, and scales the call's time to `REFERENCE_KERNEL_S`, the
kernel's median time on the reference host: a time `t` measured between
blocks whose kernel median is `k` is reported as `t * REFERENCE_KERNEL_S / k`.
The kernel is not haarmult code, so a change to the package moves the scaled
times and never the scale.

The kernel is interpreted Python over dicts, tuples and Fractions, like the
`dyadic` and `atomic` loops. On the reference host the speed changes move
interpreted code most (up to 1.8x) and numpy passes over large arrays least
(about 1.15x), and the op times of every workload followed interpreted
code. Five 20-second runs of one verify-suite seed spread by 0.20 unscaled,
by 0.04 to 0.06 scaled by a kernel of half numpy work, and by 0.04 scaled by
this one; on factor-sampling the same figures were 0.22 to 0.25, 0.07 to 0.08
and 0.05 to 0.06.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the reference host (2 vCPUs of an Intel Xeon,
# Python 3.11.7, numpy 2.4.6).
REFERENCE_KERNEL_S = 0.02
# Kernel time after each call, as a share of that call's time.
SHARE = 0.15
FIRST_BLOCK_S = 0.25


def kernel() -> float:
    """One pass of the reference work; returns its duration in seconds."""
    start = perf_counter()
    packed: dict[tuple[int, int], int] = {}
    best = Fraction(0)
    for i in range(24000):
        key = (i % 11, i >> 5)
        packed[key] = packed.get(key, 0) + (i & 7)
        if i % 8 == 0:
            ratio = Fraction(packed[key], 1 + (i % 11))
            if ratio > best:
                best = ratio
    return perf_counter() - start


def block(seconds: float) -> list[float]:
    """Kernel times from running it for about `seconds` (at least once)."""
    times: list[float] = []
    end = perf_counter() + seconds
    while not times or perf_counter() < end:
        times.append(kernel())
    return times


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured during `samples` into reference
    seconds."""
    return REFERENCE_KERNEL_S / statistics.median(samples)


class Meter:
    """Sums the measured and the scaled time of the calls made through it.

    Each call is scaled by the kernel blocks just before and just after it,
    so a call of a few seconds sees the host speed around it and not that of
    the whole run. Kernel time is in neither sum.
    """

    def __init__(self) -> None:
        self.first = self.before = block(FIRST_BLOCK_S)
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def call(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            after = block(SHARE * elapsed)
            self.raw_s += elapsed
            self.scaled_s += elapsed * scale(self.before + after)
            self.before = after
