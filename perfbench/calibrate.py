"""Machine-speed calibration for latency metrics on a shared, noisy host.

On a machine whose cores are shared with other tenants, the same operation
can take twice as long from one half-minute to the next.  A fixed kernel,
independent of mvops and mixing interpreter work with small dense linear
algebra like the library does, is timed between operations; each
operation's latency is divided by the kernel time at the operation's
midpoint, interpolated between the samples taken around it, and
multiplied by REFERENCE_S.  The result is the latency in *reference
seconds*: seconds on a machine where the kernel takes REFERENCE_S.  The
scale cancels in every relative comparison; the division removes most of
the host's speed drift.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 3.0e-3    # kernel time on an uncontended core of the reference host
INTERVAL_S = 0.25       # re-measure the kernel when this much time has passed
REPS = 3                # kernel runs per sample; the sample is their median


class Calibrator:
    """Keeps a recent measurement of the kernel's time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((40, 40))
        self._b = rng.standard_normal((40, 40)) / 40.0
        self._shift = self._a + 5.0 * np.eye(40)
        self._big = rng.standard_normal((120, 120))
        self.times: list[float] = []      # when each sample was taken
        self.samples: list[float] = []    # kernel seconds of each sample

    def kernel(self) -> float:
        """Fixed work: dict and tuple churn, small products, an SVD and a
        solve on 40 x 40 matrices, and an SVD of a 120 x 120 matrix."""
        table: dict = {}
        for i in range(8000):
            key = (i % 7, i % 11, i % 13)
            table[key] = table.get(key, 0.0) + i * 0.5
        total = sum(v * k[0] for k, v in table.items())
        m = self._a
        for _ in range(60):
            m = m @ self._b
        sv = np.linalg.svd(self._a + 1e-3 * m, compute_uv=False)
        x = np.linalg.solve(self._shift, self._b)
        big = np.linalg.svd(self._big, compute_uv=False)
        return total + float(sv[0]) + float(x[0, 0]) + float(big[0])

    def sample(self) -> float:
        """Measure the kernel now; returns its median time over REPS runs."""
        times = []
        start = perf_counter()
        for _ in range(REPS):
            t = perf_counter()
            self.kernel()
            times.append(perf_counter() - t)
        self.times.append((start + perf_counter()) / 2.0)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def keep_fresh(self) -> None:
        """Sample again when the last sample is INTERVAL_S old."""
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def at(self, t: float) -> float:
        """Kernel time at moment t, interpolated between the samples around it."""
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.samples[0]
        if i == len(self.times):
            return self.samples[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        k0, k1 = self.samples[i - 1], self.samples[i]
        return k0 + (k1 - k0) * (t - t0) / (t1 - t0)

    def to_reference(self, seconds: float, kernel_s: float) -> float:
        return seconds * REFERENCE_S / kernel_s
