"""Identity check: counts and a digest of every benchmark solve at a seed.

Usage (from the root of a checkout):

    python3 tools/identity.py --seed 1
    python3 tools/identity.py --seed 1 --workload catalog --per-case

Solves every case of the perfbench workloads once at the default options,
with BLAS pinned to one thread, and prints for each workload the totals of
f, g, c and J calls, majors and minors, the number of callback calls
repeated at a point the same solve had already called that callback at,
and a SHA-256 over each report's status, majors, minors, final objective,
x_ext, y, z, KKT residual and trace.  Two checkouts whose digests match
return the same iterates, multipliers, residuals and traces bit for bit.
With --per-case each case's line also carries that case's own digest, so
two checkouts whose workload digests differ name the cases that moved;
the workload lines are the same with or without it.
The tool exits 1 when any solve repeats a call.  The cases come from
perfbench/cases.py, which is read and not changed; slcl is imported from
src/ of the same checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "warm-start", "circles")
KINDS = (("f", "n_feval"), ("g", "n_geval"), ("c", "n_ceval"), ("J", "n_jeval"))


def report_record(rep) -> tuple:
    """Everything the digest covers, with arrays as lists of floats."""
    res = rep.residual
    return (rep.status, rep.majors, rep.minors, rep.final_objective,
            rep.x_ext.tolist(), rep.y.tolist(), rep.z.tolist(),
            (res.primal_inf, res.dual_inf, res.comp),
            [dataclasses.astuple(rec) for rec in rep.trace])


def spy_calls(problem) -> list[tuple[str, bytes]]:
    """Wrap the problem's raw callbacks; the list returned gets the kind
    and the bytes of x of every call."""
    calls = []
    for kind in "fgcJ":
        fn = getattr(problem, f"eval_{kind}")
        if fn is not None:
            def called(x, kind=kind, fn=fn):
                calls.append((kind, x.tobytes()))
                return fn(x)
            setattr(problem, f"eval_{kind}", called)
    return calls


def run(workload: str, seed: int, per_case: bool) -> int:
    """Print the workload's line and return its repeated callback calls."""
    from cases import WORKLOADS as CASES
    from slcl.driver import OuterOptions, solve

    digest = hashlib.sha256()
    totals = dict.fromkeys(["f", "g", "c", "J", "majors", "minors", "repeats"], 0)
    for case in CASES[workload](seed):
        p = case.problem
        calls = spy_calls(p)
        before = {k: getattr(p, a) for k, a in KINDS}
        rep = solve(p, OuterOptions(), case.x_start, case.y_start)
        counts = {k: getattr(p, a) - before[k] for k, a in KINDS}
        counts.update(majors=rep.majors, minors=rep.minors,
                      repeats=len(calls) - len(set(calls)))
        for k, v in counts.items():
            totals[k] += v
        # repr of a float round-trips, so equal text means equal bits
        text = repr((case.label, report_record(rep))).encode()
        digest.update(text)
        if per_case:
            print(case.label, rep.status,
                  " ".join(f"{k}={v}" for k, v in counts.items()),
                  f"sha256={hashlib.sha256(text).hexdigest()}")
    print(f"{workload}: " + " ".join(f"{k}={v}" for k, v in totals.items())
          + f" sha256={digest.hexdigest()}")
    return totals["repeats"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--per-case", action="store_true",
                        help="also print each case's status, counts and digest")
    args = parser.parse_args()
    # one BLAS thread, set before NumPy is first imported, as perfbench does
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    repeats = sum(run(workload, args.seed, args.per_case)
                  for workload in (WORKLOADS if args.workload == "all"
                                   else (args.workload,)))
    if repeats:
        print(f"{repeats} callback calls repeated a point of their solve",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a buffered write fails here, not at exit
    except BrokenPipeError:
        # stdout closed early, as `--per-case | head` closes it: point it at
        # devnull so the exit's flush is quiet too, and exit 1 as for EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
