"""Call budget: C and Python calls per solve and per major at a seed.

Usage (from the root of a checkout):

    python3 tools/callcount.py --seed 1
    python3 tools/callcount.py --seed 1 --workload warm-start

Solves every case of the perfbench workloads once at the default options,
with BLAS pinned to one thread, under sys.setprofile, and prints for each
workload the solves, the majors, and the C calls (builtin functions and
methods, NumPy's among them) and Python calls made inside solve: in total,
per solve and per major.  The counts are exact and do not depend on the
machine's load, so they show a change in the fixed work of a solve that
wall time measures only through noise.  They do depend on the Python and
NumPy versions, so compare two checkouts under one interpreter.  The cases
come from perfbench/cases.py, which is read and not changed; slcl is
imported from src/ of the same checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "warm-start", "circles")


def run(workload: str, seed: int) -> None:
    """Print the workload's call budget."""
    from cases import WORKLOADS as CASES
    from slcl.driver import OuterOptions, solve

    calls = {"c_call": 0, "call": 0}

    def profile(frame, event, arg):
        if event in calls:
            calls[event] += 1

    opts = OuterOptions()
    solves = majors = 0
    for case in CASES[workload](seed):
        sys.setprofile(profile)
        try:
            rep = solve(case.problem, opts, case.x_start, case.y_start)
        finally:
            sys.setprofile(None)
        solves += 1
        majors += rep.majors
    c_calls, py_calls = calls["c_call"], calls["call"]
    print(f"{workload}: solves={solves} majors={majors} c_calls={c_calls} "
          f"py_calls={py_calls} c_per_solve={c_calls / solves:.1f} "
          f"py_per_solve={py_calls / solves:.1f} "
          f"c_per_major={c_calls / majors:.1f} py_per_major={py_calls / majors:.1f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    args = parser.parse_args()
    # one BLAS thread, set before NumPy is first imported, as perfbench does
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run(workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
