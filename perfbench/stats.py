"""Summary statistics for timing samples."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (a single sample is all
    three)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank ``q`` percentile (0 < q < 1), or None when fewer than
    ``min_beyond`` samples rank beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]
