"""A fixed unit of reference work that reads the machine's speed.

The benchmark's timings are meant to compare two versions of the
program, but a shared machine's speed moves by up to 2x from one
minute to the next (neighbours' load, frequency, steal), which swamps
a 25 % bound between runs taken minutes apart.  So every timing is
taken beside this unit: it is timed right before and right after each
operation (and around each set-up sample), and the operation's wall
time is scaled by ``REFERENCE_S / unit time``.  The result is in
*reference seconds*: how long the operation would take on a machine
where the unit takes ``REFERENCE_S``.

The unit mixes interpreter work with small numpy calls, as the
simulator's kernels do, and never calls the program, so a change to
the program moves the operation and not the unit.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: The unit's time on the machine the reference seconds refer to (a
#: 2-vCPU VM, Python 3.11, numpy 2.4, in its fast phase).
REFERENCE_S = 0.018

#: Units timed at each sampling point.
SAMPLES = 3


def unit() -> float:
    """Run the unit once; returns its wall time in seconds."""
    rng = np.random.default_rng(12345)
    counts = np.full(27, 1000, dtype=np.int64)
    table = {}
    start = time.perf_counter()
    for i in range(1500):
        draws = rng.binomial(counts, 0.01)
        counts = counts - draws + draws[::-1]
        table[i % 97] = table.get(i % 97, 0) + int(counts[i % 27])
    return time.perf_counter() - start


def sample(samples: int = SAMPLES) -> List[float]:
    """``samples`` unit times, taken back to back."""
    return [unit() for _ in range(samples)]


def to_reference(wall_s: float, unit_times: List[float]) -> float:
    """``wall_s`` in reference seconds, at the speed ``unit_times`` read."""
    return wall_s * REFERENCE_S / statistics.median(unit_times)
