"""Machine-speed probe: a fixed reference kernel timed between ops.

On the 2-core box the benchmark was tuned on, the same op repeated in
one process ran up to twice as slow for stretches of seconds to minutes,
with CPU time tracking wall time.  Such drift moves every wall-clock
figure of a run together.  The probe runs a fixed NumPy and Python
kernel, which uses no eulercs code, about every half second between
ops.  Each op's time is scaled by REF_S over the probe's time around
the op, so the times read as if the probe took REF_S and the drift
cancels.  A change to eulercs moves the scaled times as much as the raw
ones.
"""

import bisect
import statistics
import time

import numpy as np

REF_S = 0.006           # the probe's time on the tuning box in a quiet spell
EVERY_S = 0.5
REPEATS = 3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((64, 128))
        self._y = self._A[:, :8].sum(axis=1)
        self.ends, self.values = [], []     # probe end (ns), probe time (s)
        self._kernel()                      # first call loads LAPACK

    def _kernel(self):
        t0 = time.perf_counter_ns()
        for j in range(1, 33):              # OMP-like: growing least squares
            np.linalg.lstsq(self._A[:, :j], self._y, rcond=None)
            np.abs(self._A.T @ self._y).argmax()
        table = {}
        for i in range(20000):              # interpreter-bound work
            table[i % 97] = table.get(i % 97, 0) + i
        return (time.perf_counter_ns() - t0) / 1e9

    def sample(self):
        self.values.append(statistics.median(self._kernel() for _ in range(REPEATS)))
        self.ends.append(time.perf_counter_ns())

    def due(self):
        return not self.ends or time.perf_counter_ns() - self.ends[-1] > EVERY_S * 1e9

    def factor(self, t0, t1):
        """REF_S over the mean probe time of the last sample before t0 and
        the first after t1 (perf_counter_ns stamps)."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.ends, t1)
        around = [self.values[k] for k in (before, after) if 0 <= k < len(self.values)]
        return REF_S / statistics.mean(around)
