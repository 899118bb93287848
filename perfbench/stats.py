"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def _rank(q, n):
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def tail_percentile(values):
    """The highest candidate percentile that keeps at least MIN_BEYOND
    samples above its rank, as (q, value); None when even the median has
    fewer than MIN_BEYOND samples beyond it."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q, percentile(values, q)
    return None

