"""Small statistics helpers shared by the runner and its self-tests."""

from __future__ import annotations

import math
import statistics

# candidate percentiles for the tail figure, highest first
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolation percentile (the 'inclusive' method)."""
    rank = (len(sorted_values) - 1) * p / 100
    low = math.floor(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def tail(values: list[float], min_beyond: int = 10):
    """(p, value, samples beyond it) for the highest percentile that has
    at least `min_beyond` samples above it, or None when no candidate
    percentile has that many."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        value = percentile(ordered, p)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= min_beyond:
            return p, value, beyond
    return None


def scale_exponent(pairs) -> float:
    """Median over (time at full size, time at half size) pairs of
    log2(full / half): 1 is linear, 2 quadratic. Pairs where either time
    is 0 are skipped; 0 when none is left (the span never ran)."""
    logs = [math.log2(full / half) for full, half in pairs if full > 0 and half > 0]
    return statistics.median(logs) if logs else 0.0
