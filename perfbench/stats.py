"""Summary statistics for the benchmark: percentiles and the sample rule.

A tail percentile is only reported when at least `MIN_BEYOND` samples lie
beyond it, so every workload fixes the percentile it reports and the run
states its sample count next to it.

Reported percentiles use the Harrell-Davis estimator, a Beta-weighted
average of all order statistics.  A workload's operations come in a few
dozen kinds with distinct costs, so the plain sample median sits on
whichever kind happens to straddle the middle and jumps from run to run;
the Harrell-Davis estimate moves smoothly instead.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """Number of samples strictly beyond the p-th percentile of n samples."""
    return int(math.floor(n * (100.0 - p) / 100.0 + 1e-9))


def supports(n: int, p: float) -> bool:
    """True when n samples leave at least MIN_BEYOND beyond percentile p."""
    return samples_beyond(n, p) >= MIN_BEYOND


def median(values) -> float:
    return percentile(values, 50.0)


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile (p in [0, 100])."""
    import numpy as np
    from scipy.special import betainc

    data = np.sort(np.asarray(values, dtype=float))
    n = len(data)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    q = p / 100.0
    if q <= 0.0 or q >= 1.0:
        return float(data[0] if q <= 0.0 else data[-1])
    edges = betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), data))
