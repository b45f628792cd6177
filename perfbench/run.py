"""slcl benchmark: end-to-end and per-layer metrics on three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs one solve at a time with BLAS pinned to one thread.  A run
repeats passes, each solving every case of the workload once, and starts a
pass only when it should end within --seconds; times are medians over the
passes, and the counts come from the first pass (they repeat exactly).
Times are in reference seconds: wall time corrected by the machine's speed,
sampled during the pass (speed.py).  Every solve is checked by
perfbench/checks.py, and a solve that raises or fails a check counts as
failed.  With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 traced passes alternate with untraced
ones and the JSON carries the per-layer metrics.  The package is imported
from src/ of the checkout; without it the run exits non-zero.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("catalog", "warm-start", "circles")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
EVAL_KINDS = (("f_evals", "n_feval"), ("g_evals", "n_geval"),
              ("c_evals", "n_ceval"), ("J_evals", "n_jeval"))


@dataclass
class Solve:
    label: str
    status: str
    majors: int
    minors: int
    evals: dict
    seconds: float
    accepted: int = 0
    rejected: int = 0
    errors: list = field(default_factory=list)

    def outcome(self) -> tuple:
        """What must repeat exactly from pass to pass."""
        return (self.status, self.majors, self.minors,
                tuple(sorted(self.evals.items())))


def import_slcl():
    if not (SRC / "slcl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no slcl package under {SRC}; "
                 "run from the root of an slcl checkout")
    sys.path.insert(0, str(SRC))
    import slcl
    if Path(slcl.__file__).resolve().parent != SRC / "slcl":
        sys.exit(f"perfbench: imported slcl from {slcl.__file__}, not {SRC}")


def solve_pass(cases, opts, clock) -> tuple[list[Solve], list]:
    """Solve every case once, timing each solve call alone on clock.now.

    Returns a record per solve and the solver's reports (None where the
    solve raised), which check_pass examines after any tracing is undone.
    """
    import slcl.driver
    solves, reports = [], []
    for case in cases:
        p = case.problem
        before = {k: getattr(p, a) for k, a in EVAL_KINDS}
        t0 = clock.now()
        try:
            rep = slcl.driver.solve(p, opts, case.x_start, case.y_start)
            error = None
        except Exception:  # a crash is a failed solve, not a bench error
            rep, error = None, "raised " + traceback.format_exc()
        dt = clock.now() - t0
        evals = {k: getattr(p, a) - before[k] for k, a in EVAL_KINDS}
        reports.append(rep)
        if rep is None:
            solves.append(Solve(case.label, "raised", 0, 0, evals, dt,
                                errors=[error]))
            continue
        accepted = sum(t.accepted for t in rep.trace)
        solves.append(Solve(case.label, rep.status, rep.majors, rep.minors,
                            evals, dt, accepted, len(rep.trace) - accepted))
    return solves, reports


def timed_pass(cases, opts, trace: bool) -> tuple[list[Solve], float, object]:
    """Solve and check every case once under a SpeedClock.

    Returns the checked solves, with times in reference seconds; the pass's
    speed factor, which converts span times likewise; and, when traced, the
    Tracer whose spans read the same clock.
    """
    from spans import Tracer, instrument
    from speed import SpeedClock
    with SpeedClock() as clock:
        tracer = Tracer(clock.now) if trace else None
        spans = (instrument(tracer, [c.problem for c in cases]) if trace
                 else nullcontext())
        with spans:
            solves, reports = solve_pass(cases, opts, clock)
    for s in solves:
        s.seconds *= clock.factor
    check_pass(cases, solves, reports, opts)
    return solves, clock.factor, tracer


def check_pass(cases, solves, reports, opts) -> None:
    from checks import check_solve
    for case, s, rep in zip(cases, solves, reports):
        if rep is not None:
            s.errors = check_solve(case, rep, opts.omega_star, opts.eta_star)


def totals(solves) -> dict:
    out = {"majors": sum(s.majors for s in solves),
           "minors": sum(s.minors for s in solves)}
    for kind, _ in EVAL_KINDS:
        out[kind] = sum(s.evals[kind] for s in solves)
    return out


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing slcl and building inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, solves, factor: float) -> dict:
    """Per-layer values of one traced pass, keyed by metric name.

    Span times are scaled by the pass's speed factor into reference seconds.
    """
    from spans import KERNEL, SOLVE_LC
    calls, counts = tracer.calls, tracer.counts
    self_s = defaultdict(float, {name: t * factor
                                 for name, t in tracer.self_s.items()})
    t = totals(solves)
    solve_s = sum(s.seconds for s in solves)
    accepted = sum(s.accepted for s in solves)
    rejected = sum(s.rejected for s in solves)
    iters = counts["kernel_iters"]
    m = {}
    for span in ("model.derivcheck", "model.residual", "model.jacobian",
                 "merit.al", "merit.kkt", "linearize.linearize",
                 "linearize.row_residual", "innersolve.proximal"):
        m[f"{span}_s"] = (self_s[span], "s")
        m[f"{span}_calls"] = (calls[span], "count")
    m["model.callback_s"] = (self_s["model.callback"], "s")
    m["model.c_per_minor"] = (ratio(t["c_evals"], t["minors"]), "calls/minor")
    m["innersolve.solve_lc_s"] = (self_s[SOLVE_LC], "s")
    m["innersolve.al_cycles"] = (calls[KERNEL], "count")
    m["innersolve.kernel_s"] = (self_s[KERNEL], "s")
    m["innersolve.kernel_iters"] = (iters, "count")
    m["innersolve.ls_trials"] = (counts["ls_trials"], "count")
    m["innersolve.trials_per_iter"] = (ratio(counts["ls_trials"], iters), "trials/iter")
    m["innersolve.kernel_limit_hits"] = (counts["kernel_limit_hits"], "count")
    m["innersolve.us_per_minor"] = (
        1e6 * factor * ratio(tracer.total_s[KERNEL], iters), "us/minor")
    m["driver.self_s"] = (self_s["driver.solve"], "s")
    m["driver.accepted"] = (accepted, "count")
    m["driver.rejected"] = (rejected, "count")
    m["driver.accept_ratio"] = (ratio(accepted, accepted + rejected), "ratio")
    m["driver.minors_per_major"] = (ratio(t["minors"], t["majors"]), "minors/major")
    m["trace.solve_s"] = (solve_s, "s")
    m["trace.outside_s"] = (solve_s - sum(self_s.values()), "s")
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: {"value": statistics.median(p[name][0] for p in per_pass),
                   "unit": unit}
            for name, (_, unit) in per_pass[0].items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_slcl()
    from slcl.driver import OuterOptions
    from cases import WORKLOADS

    setup_s = None if trace else setup_seconds(workload, seed)
    cases = WORKLOADS[workload](seed)
    opts = OuterOptions()

    plain: list[list[Solve]] = []
    traced: list[list[Solve]] = []
    factors: list[float] = []
    layers: list[dict] = []
    dumps: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    # a round is one untraced pass, plus one traced pass under --trace 1;
    # start one only when it should end within the run's seconds
    while not plain or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        solves, factor, _ = timed_pass(cases, opts, trace=False)
        plain.append(solves)
        factors.append(factor)
        if trace:
            solves, factor, tracer = timed_pass(cases, opts, trace=True)
            traced.append(solves)
            layers.append(layer_metrics(tracer, solves, factor))
            dumps.append({name: {"calls": tracer.calls[name],
                                 "self_s": tracer.self_s[name] * factor,
                                 "total_s": tracer.total_s[name] * factor}
                          for name in sorted(tracer.calls)})
        last = time.perf_counter() - t0

    passes = plain + traced
    solve_s = statistics.median(sum(s.seconds for s in p) for p in plain)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for s in p if s.errors)
    # outputs must repeat exactly from pass to pass, traced or not
    correct = all([s.outcome() for s in p] == [s.outcome() for s in passes[0]]
                  for p in passes)

    if trace:
        metrics = median_metrics(layers)
        overhead = metrics["trace.solve_s"]["value"] - solve_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {"solve_s": {"value": solve_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
        for name, value in totals(plain[0]).items():
            metrics[name] = {"value": value, "unit": "count"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "passes": len(plain), "traced_passes": len(traced),
              "result": result,
              "solves": [vars(s) for s in plain[0]],
              "solve_seconds": [[s.seconds for s in p] for p in plain],
              "speed_factors": factors,
              "failures": [[s.label, s.errors] for p in passes for s in p
                           if s.errors],
              "spans": dumps}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(f"{workload}: {len(plain)} passes, speed factors "
          + " ".join(f"{f:.3f}" for f in factors))
    return result


def print_result(workload: str, result: dict) -> None:
    print(f"== {workload}: attempted {result['attempted']} solves, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print_result(workload, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # one BLAS/OpenMP thread, set before NumPy is first imported; the set-up
    # probes and per-workload processes inherit it
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
