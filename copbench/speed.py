"""A gauge of how fast the host runs right now.

On a shared 2-core sandbox the same operation takes anything from 1x to 1.8x
its quiet time, in spells that last from seconds to a minute, so a run that
falls into one is slow throughout and no statistic over its own samples
recovers the quiet figure.  The gauge is a fixed piece of work like the
library's own mix, timed right before and after each operation.  A measured
time t is reported as ``t * 2 REF_S / (before + after)``: the time the
operation would take with the gauge at its reference time.  It leaves the library's own speed in the figure and
takes out the host's.  The raw wall times are kept in the run's details.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 3.5e-3  # the gauge on a quiet core of the reference sandbox (x86-64, 2.1 GHz)
EVERY_S = 0.05  # operations shorter than this share the latest reading

_M = np.eye(8) * 4.0 + 0.1
_B = np.ones(8)
_R = np.random.default_rng(0).random((6, 6))
_S = _R + _R.T
_IDX = [0, 2, 4]


def gauge_s() -> float:
    """Wall time of a fixed mix of the library's kinds of work: a Python
    loop, small solves, small eigendecompositions, and small-array
    arithmetic with fancy indexing."""
    t0 = time.perf_counter()
    s = 0.0
    for j in range(20000):
        s += j
    for _ in range(100):
        np.linalg.solve(_M, _B)
    for _ in range(90):
        np.linalg.eigh(_S)
    a = _R.copy()
    for i in range(100):
        q = a.T @ a
        q = 0.5 * (q + q.T)
        s += float(np.abs(q).max()) + float(np.diag(q).min())
        a[i % 6, i % 6] = q[np.ix_(_IDX, _IDX)][0, 0] * 1e-3
    return time.perf_counter() - t0


class Speed:
    """Readings of the gauge, refreshed at most every EVERY_S seconds."""

    def __init__(self):
        for _ in range(3):  # the first readings include one-time costs
            self.last = gauge_s()
        self.at = time.perf_counter()

    def read(self) -> float:
        if time.perf_counter() - self.at > EVERY_S:
            self.last = gauge_s()
            self.at = time.perf_counter()
        return self.last

    @staticmethod
    def normalize(seconds: float, before: float, after: float) -> float:
        """Scale a wall time by the mean of the readings around it."""
        return seconds * 2.0 * REF_S / (before + after)
