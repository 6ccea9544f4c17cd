"""A fixed reference kernel that measures how fast the machine runs right
now, to take the load of other processes out of the benchmark's timings.

On a shared machine other tenants slow this one down by up to 1.9x, for
seconds to minutes at a time, and process CPU time slows down with wall
time.  The benchmark therefore times this kernel next to every timed call
and reports ``measured seconds * REF_KERNEL_S / kernel seconds``: the
time the call would take at the speed the kernel has on an idle machine.
The kernel is pure-Python rational arithmetic on dicts, like the program's
hot loops, and touches no code of the program, so a change to the program
cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds one kernel run takes on an idle machine: the fastest of many
# runs on a 2-vCPU Intel Xeon with Python 3.11.7.  Only the scale of the
# reported times depends on it.
REF_KERNEL_S = 0.0525


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(10000):
        k = i % 50
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 97 + 1, i % 13 + 1) * Fraction(
            i % 7 + 1, 3
        )
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, kernel: float) -> float:
    """Scale a measured time by the kernel time measured next to it."""
    return seconds * REF_KERNEL_S / kernel
