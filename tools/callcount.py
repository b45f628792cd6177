"""Call budget: C and Python calls per solve and per major at a seed.

Usage (from the root of a checkout):

    python3 tools/callcount.py --seed 1
    python3 tools/callcount.py --seed 1 --workload warm-start
    python3 tools/callcount.py --seed 1 --workload warm-start --by-function

Solves every case of the perfbench workloads once at the default options,
with BLAS pinned to one thread, under sys.setprofile, and prints for each
workload the solves, the majors, and the C calls (builtin functions and
methods, NumPy's among them) and Python calls made inside solve: in total,
per solve and per major.  The counts are exact and do not depend on the
machine's load, so they show a change in the fixed work of a solve that
wall time measures only through noise.  They do depend on the Python and
NumPy versions, so compare two checkouts under one interpreter, and a
workload run after another in one process counts a few C calls fewer,
since the derivative check builds its direction once per n.  The cases
come from perfbench/cases.py, which is read and not changed; slcl is
imported from src/ of the same checkout.

With --by-function each workload's line is followed by one line per
function of src/slcl, most C calls first, with the C and Python calls per
major charged to it: each call is charged to the innermost src/slcl frame
that made it, directly or through code outside src/slcl such as NumPy's
Python wrappers.  A Python call into src/slcl is charged to its caller.

The count is a diagnostic, not a gate.  sys.setprofile sees calls only:
an operator such as a - b or B @ s, which NumPy runs as a ufunc through
the number protocol, and a slice write such as K[:n, :n] = B are no call
events.  So a change that replaces operators with a method such as .fill
or .min can raise the count while it cuts the time, and the count of two
checkouts is read beside their solve_s, not in place of it.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "warm-start", "circles")


def run(workload: str, seed: int, by_function: bool) -> None:
    """Print the workload's call budget, and with by_function its split."""
    from cases import WORKLOADS as CASES
    from slcl.driver import OuterOptions, solve

    calls = {"c_call": 0, "call": 0}
    charged = {"c_call": Counter(), "call": Counter()}
    src = str(ROOT / "src" / "slcl") + os.sep
    names: dict = {}  # code object -> "module.function", or None outside src/slcl

    def owner(frame):
        """The name of the innermost src/slcl frame from frame outward."""
        while frame is not None:
            code = frame.f_code
            name = names.get(code, False)
            if name is False:
                name = names[code] = (
                    f"{Path(code.co_filename).stem}."
                    f"{getattr(code, 'co_qualname', code.co_name)}"
                    if code.co_filename.startswith(src) else None)
            if name is not None:
                return name
            frame = frame.f_back
        return "(outside src/slcl)"

    def profile(frame, event, arg):
        if event in calls:
            calls[event] += 1
            if by_function:
                # a C call's frame is its caller's; a Python call's is its own
                charged[event][owner(frame if event == "c_call" else frame.f_back)] += 1

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
    if by_function:
        c_by, py_by = charged["c_call"], charged["call"]
        for name in sorted(c_by.keys() | py_by.keys(),
                           key=lambda name: (-c_by[name], -py_by[name], name)):
            print(f"  {name}: c_per_major={c_by[name] / majors:.2f} "
                  f"py_per_major={py_by[name] / majors:.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--by-function", action="store_true",
                        help="also print each src/slcl function's calls per major")
    args = parser.parse_args()
    # one BLAS thread, set before NumPy is first imported, as perfbench does
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run(workload, args.seed, args.by_function)
    return 0


if __name__ == "__main__":
    sys.exit(main())
