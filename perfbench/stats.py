"""Order statistics shared by the run and compare commands."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(n=4) gives them; equal for one value."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("inf")


def tail(samples):
    """The highest percentile that leaves at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples_beyond).  The value is the sample
    with exactly TAIL_BEYOND larger ones, so its percentile is
    100 * (1 - TAIL_BEYOND / N).  With TAIL_BEYOND samples or fewer no such
    percentile exists, and the maximum is returned as percentile 100 with
    nothing beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return (
        ordered[count - TAIL_BEYOND - 1],
        100.0 * (1 - TAIL_BEYOND / count),
        TAIL_BEYOND,
    )
