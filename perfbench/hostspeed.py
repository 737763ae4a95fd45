"""Host-speed correction for timings taken on a shared machine.

On a host shared with other tenants the same learn can run 35-55% slower
for minutes at a time; process CPU time slows with it and no steal time is
reported, so the slowdown is in the host, not in the learner. Between
learns the run times a fixed kernel that runs no bnsl code: numpy counting
plus Python dict and tuple work, the two kinds of work a learn does. The
time samples are scaled by ``REFERENCE_S`` over the median kernel time
within ``WINDOW_S`` of them, and so read as seconds on a host where the
kernel takes ``REFERENCE_S``. A change to bnsl moves them in full; a slow
period moves them far less than it moves wall time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.0087  # the kernel's time on an idle host of the reference type
PASSES = 3
WINDOW_S = 5.0

_rng = np.random.default_rng(0)
_A = _rng.integers(0, 27, size=5000)
_B = _rng.integers(0, 3, size=5000)


def kernel_s() -> float:
    """Seconds of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    table: dict = {}
    for i in range(200):
        cube = np.bincount(_A * 3 + _B, minlength=81).reshape(27, 3)
        rows = cube.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            acc += float(np.nansum(cube * np.log(cube / rows)))
        for j in range(150):
            table[(i % 7, j)] = (j, acc)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel timings taken over one run, by time."""

    def __init__(self):
        kernel_s()  # the first pass pays for cold caches
        self.at: list[float] = []
        self.secs: list[float] = []

    def probe(self) -> None:
        """Fastest of a few passes: a pass slowed by caches the previous
        learn left cold says nothing about the host."""
        t0 = time.perf_counter()
        self.secs.append(min(kernel_s() for _ in range(PASSES)))
        self.at.append(t0)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time of the probes within
        ``WINDOW_S`` of the interval (of all probes if there are none)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.secs[lo:hi] or self.secs)
