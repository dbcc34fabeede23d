"""Order statistics used by the harness and the steadiness command."""

from __future__ import annotations

import statistics
from typing import Sequence

# Fixed ladder the tail percentile is picked from.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

# A tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples above it.
    """
    best = None
    for p in PERCENTILES:
        # compare in integer hundred-thousandths so 99.9 is exact
        if samples * (100_000 - round(p * 1000)) >= MIN_BEYOND * 100_000:
            best = p
    return best


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
