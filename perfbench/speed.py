"""Wall time corrected for the speed of a shared machine.

On a shared host the same solve takes anywhere from one to two times its
unloaded time, depending on what other tenants run; the slow and fast spells
last from milliseconds to minutes, so a median over a run does not remove
them.  `SpeedClock` samples the machine's speed while a measurement runs: a
SIGALRM every `period` seconds times `calibrate`, a fixed small-array NumPy
kernel that belongs to the benchmark (no change to slcl can move it), and
records REFERENCE_S over that time, the speed relative to an unloaded
machine.  In two runs of about 80 passes of mixed solves whose wall time
varied by 11-13 % (coefficient of variation), this kernel left 3.3-3.6 %
after the correction and a pure-Python kernel 5.2-5.7 %.

`now()` is wall time less the time spent in the samples.  A duration taken
with it, multiplied by `factor` (the mean relative speed over the
measurement), is in reference seconds: roughly what the work would take on
the unloaded machine.  Since the samples are evenly spaced in time, the mean
speed weights each moment by its length, which is what converting a duration
needs.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# seconds one `calibrate()` takes when no other tenant slows the machine: the
# fast mode of its sample times on a 2-vCPU Xeon VM at 2.0 GHz, CPython 3.11,
# NumPy 2.4.  Loaded spells take it to about 400 us.
REFERENCE_S = 2.05e-4
PERIOD_S = 0.01
_A = np.linspace(-1.0, 1.0, 128).reshape(8, 16)
_X0 = np.linspace(0.0, 1.0, 16)


def calibrate() -> float:
    """Fixed small-array NumPy work, the kind of call mix the solver makes:
    a few projected-gradient steps on an 8 x 16 least-squares problem."""
    x = _X0.copy()
    lo, hi = np.zeros(16), np.ones(16)
    acc = 0.0
    for _ in range(12):
        r = _A @ x - 0.5
        g = _A.T @ r
        x = np.clip(x - 0.1 * g, lo, hi)
        acc += float(np.dot(r, r)) + float(np.linalg.norm(g, np.inf))
        x = np.where(x > 0.5, x, np.maximum(x, 0.01))
        acc += float(np.concatenate([x, r]).sum())
    return acc


class SpeedClock:
    """Samples the machine's speed while it is entered; see the module doc."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.speeds: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._saved = None

    def now(self) -> float:
        return time.perf_counter() - self.spent

    @property
    def factor(self) -> float:
        return sum(self.speeds) / len(self.speeds)

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        calibrate()
        dt = time.perf_counter() - t0
        self.speeds.append(REFERENCE_S / dt)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "SpeedClock":
        self.sample()
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample()
