"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the reference seconds (see speed.py) spent importing slcl and
building the workload's problems, which is what a caller pays before the
first solve.  NumPy is imported first and not timed: the speed samples need
it, and no change to slcl moves its import time.
"""

import sys
from pathlib import Path

from speed import SpeedClock


def main(workload: str, seed: int) -> float:
    # a set-up lasts a few hundredths of a second, so sample more often
    with SpeedClock(period=0.002) as clock:
        t0 = clock.now()
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import slcl  # noqa: F401
        from cases import WORKLOADS
        WORKLOADS[workload](seed)
        seconds = clock.now() - t0
    return seconds * clock.factor


if __name__ == "__main__":
    print(main(sys.argv[1], int(sys.argv[2])))
