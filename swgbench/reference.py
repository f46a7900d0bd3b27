"""A fixed reference kernel, independent of swgfem, that gauges the speed
of the machine while a workload runs.

On a shared 2-core machine the same code runs 20-30% slower for minutes
at a time, and the reference slows down with it.  The reference is timed
between the operations of a run; each operation's wall time is then
multiplied by REF_S / (median reference time around it), which reports
it at one fixed machine speed.  The kernel mixes what swgfem spends its
time on: a SuperLU factorization and solve, vectorized numpy and a
pure-Python loop.
"""

import bisect
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: The reference's time on a quiet machine (2-core x86-64 VM, numpy 2.4,
#: scipy 1.17); reported times are seconds at this speed.
REF_S = 0.020

#: Sample the reference before an operation once this much time has passed.
INTERVAL_S = 0.5
#: After a gap this long (a long operation), take a burst of samples.
BURST_GAP_S = 2.0
BURST = 5
#: An operation is scaled by the samples within this many seconds of it,
#: and by at least the MIN_SAMPLES nearest ones.
WINDOW_S = 1.0
MIN_SAMPLES = 5


class Reference:
    def __init__(self):
        m = 60
        ones = np.ones(m - 1)
        line = sp.diags([-ones, 4.0 * np.ones(m), -ones], [-1, 0, 1])
        couple = sp.diags([-ones, -ones], [-1, 1])
        self.matrix = (sp.kron(sp.eye(m), line) + sp.kron(couple, sp.eye(m))).tocsc()
        self.rhs = np.ones(m * m)
        self.x = np.linspace(0.0, 1.0, 20000)
        self.times = []      # midpoint of each sample, increasing
        self.seconds = []
        self.last = -float("inf")

    def _sample(self):
        t = time.perf_counter()
        spla.splu(self.matrix).solve(self.rhs)
        acc = 0
        for i in range(20000):
            acc += i % 7
        for _ in range(20):
            np.sin(self.x).sum()
        self.last = time.perf_counter()
        self.times.append(0.5 * (t + self.last))
        self.seconds.append(self.last - t)

    def burst(self):
        for _ in range(BURST):
            self._sample()

    def maybe_sample(self):
        gap = time.perf_counter() - self.last
        if gap >= BURST_GAP_S:
            self.burst()
        elif gap >= INTERVAL_S:
            self._sample()

    def scale(self, start, end):
        """Factor turning seconds spent in [start, end] into seconds at REF_S speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi == len(self.times) or
                           start - self.times[lo - 1] <= self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.median(self.seconds[lo:hi])
