"""Host-speed calibration for a shared host whose speed varies.

On a host whose speed drifts by tens of percent within seconds, raw wall
times of the same op spread far more than any code change worth gating.
``SpeedProbe`` runs a fixed reference kernel (benchmark code only: plain
Python and numpy ufuncs, nothing that slpkit implements or that the
tracer wraps) every INTERVAL_S seconds from a SIGALRM handler, so the
host's speed is sampled during long ops as well as between them.  An op's
calibrated time is its wall time, less the time spent in the handler,
scaled by ``NOMINAL_S`` times the mean host speed (1 / kernel time) over
the op: the time the op would take on a host where one kernel run takes
``NOMINAL_S``.
Raw wall times are kept beside the calibrated ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# kernel time that defines the calibrated time scale; the fastest samples
# on the reference host (2 CPUs, Python 3.11, numpy 2.4) take about 0.45 ms
NOMINAL_S = 0.5e-3
# seconds between speed samples, and how far around an op they count
INTERVAL_S = 0.1
WINDOW_S = 0.25

_ARRAYS: list = []


def kernel() -> float:
    """One fixed unit of mixed interpreter and small-array work.  numpy is
    imported on first use, so that set-up timing still pays for it."""
    import numpy as np

    if not _ARRAYS:
        _ARRAYS.extend([
            np.exp(2j * np.pi * (np.arange(12) + 0.35) / 12) * 1.3,
            np.linspace(-1.0, 1.0, 13) + 0.25j,
            np.arange(8.0).reshape(2, 4) + 1j,
        ])
    z0, coeffs, m = _ARRAYS
    table = {}
    for i in range(150):
        table[i] = (0.5 * i, i % 7)
    acc = 0.0
    for x, k in table.values():
        acc += x * k
    z = z0.copy()
    for _ in range(12):
        p = np.zeros_like(z)
        for c in coeffs[::-1]:
            p = p * z + c
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1)
        z = z - 1e-3 * p / (1.0 + np.abs(s))
        acc += float(np.abs(m @ m.conj().T)[0, 0])
    return acc + float(np.abs(z).sum())


class SpeedProbe:
    def __init__(self):
        self.times: list = []  # sample midpoints, increasing
        self.costs: list = []  # kernel seconds at each midpoint
        self.handler_s = 0.0  # total time spent sampling
        self._busy = False

    def sample(self) -> None:
        """Run the kernel three times back to back and keep the fastest: the
        first run after an interruption pays for cold caches."""
        t0 = time.perf_counter()
        cost = min(_timed_kernel() for _ in range(3))
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.costs.append(cost)
        self.handler_s += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm must not nest inside a sample
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S times the mean host speed (1 / kernel time) sampled
        within WINDOW_S of [t0, t1], or at the nearest sample.  Samples are
        evenly spaced in time, so the mean of the speeds is the time
        average over an op whose host switched speed midway; a median
        would pick one of the two speeds."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        costs = self.costs[lo:hi]
        if not costs:
            k = min(max(lo, 1), len(self.costs)) - 1
            costs = self.costs[k : k + 1]
        return NOMINAL_S * statistics.fmean(1.0 / c for c in costs)


def calibrated_setup(fn) -> tuple:
    """Run ``fn`` cold, then sample the host speed right after it; return
    its result and its raw and calibrated wall times."""
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    probe = SpeedProbe()
    _timed_kernel()  # warm-up
    for _ in range(5):
        probe.sample()
    return result, raw, raw * probe.factor(probe.times[0], probe.times[-1])


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
