"""Summary statistics shared by the benchmark's parent and child processes."""

from __future__ import annotations

from typing import List, Tuple


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With fewer than eleven samples no
    such percentile exists and the maximum (percentile 100) stands in.
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)
