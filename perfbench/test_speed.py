"""SpeedClock samples while entered, leaves its samples out of now(), and
restores the alarm on exit.

Run from the root of a checkout:  python3 -m pytest perfbench/test_speed.py
"""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedClock  # noqa: E402


def test_samples_are_taken_and_left_out():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedClock(period=0.002) as clock:
        wall0, now0 = time.perf_counter(), clock.now()
        while time.perf_counter() - wall0 < 0.1:
            pass
        wall, work = time.perf_counter() - wall0, clock.now() - now0
    assert len(clock.speeds) >= 10
    assert 0.0 < work < wall
    assert clock.factor > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
