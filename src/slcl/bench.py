"""Benchmark harness, report emitters, and CLI."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from .catalog import catalog_get, catalog_names
from .driver import (BCL, CANONICAL, INFEASIBLE, OPTIMAL, STABILIZED, OuterOptions,
                     SolveReport, solve)
from .innersolve import UNBOUNDED

EVAL_KINDS = ["f_evals", "g_evals", "c_evals", "J_evals"]
CSV_COLUMNS = ["name", "status", "majors", "minors", *EVAL_KINDS,
               "final_objective", "primal_inf", "dual_inf", "comp", "wall_time_s"]

_EXPECTED_STATUS = {"solvable": OPTIMAL, "infeasible": INFEASIBLE,
                    "unbounded": UNBOUNDED}


@dataclass
class SuiteEntry:
    name: str
    status: str
    majors: int
    minors: int
    f_evals: int
    g_evals: int
    c_evals: int
    J_evals: int
    final_objective: float
    primal_inf: float
    dual_inf: float
    comp: float
    wall_time_s: float
    classification: str
    matched: bool
    # the solve's scale factors of f and of each nonlinear row
    f_scale: float
    row_scale: list[float]


@dataclass
class SuiteReport:
    entries: list[SuiteEntry] = field(default_factory=list)
    options: dict = field(default_factory=dict)

    @property
    def totals(self) -> dict:
        return {key: sum(getattr(e, key) for e in self.entries)
                for key in ["majors", "minors", *EVAL_KINDS, "wall_time_s"]}

    @property
    def all_matched(self) -> bool:
        return all(e.matched for e in self.entries)


def run_suite(names, opts: OuterOptions | None = None, log=None) -> SuiteReport:
    """Solve each named catalog problem once and collect one row per problem;
    log(row, result), when given, sees each row with its solve's report."""
    opts = opts if opts is not None else OuterOptions()
    report = SuiteReport(options=asdict(opts))
    for name in names:
        entry = catalog_get(name)
        t0 = time.perf_counter()
        result = solve(entry.problem, opts)
        wall = time.perf_counter() - t0
        res = result.residual
        row = SuiteEntry(
            name=name, status=result.status, majors=result.majors,
            minors=result.minors, f_evals=result.f_evals, g_evals=result.g_evals,
            c_evals=result.c_evals, J_evals=result.J_evals,
            final_objective=result.final_objective, primal_inf=res.primal_inf,
            dual_inf=res.dual_inf, comp=res.comp, wall_time_s=wall,
            classification=entry.classification,
            matched=result.status == _EXPECTED_STATUS[entry.classification],
            f_scale=result.f_scale, row_scale=result.row_scale.tolist())
        report.entries.append(row)
        if log is not None:
            log(row, result)
    return report


def emit_report(report: SuiteReport, fmt: str, path) -> None:
    """Write a suite report as csv (fixed column set) or json (with totals)."""
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for e in report.entries:
                writer.writerow([getattr(e, column) for column in CSV_COLUMNS])
    elif fmt == "json":
        payload = {
            "entries": [asdict(e) for e in report.entries],
            "totals": report.totals,
            "options": report.options,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=float)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format: {fmt!r}")


# ---------------------------------------------------------------------------
# Command line interface.


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    defaults = OuterOptions()
    parser.add_argument("--mode", choices=[STABILIZED, CANONICAL, BCL],
                        default=defaults.mode)
    parser.add_argument("--omega-star", type=float, default=defaults.omega_star,
                        help="dual and complementarity target")
    parser.add_argument("--eta-star", type=float, default=defaults.eta_star,
                        help="feasibility target")
    parser.add_argument("--max-major", type=int, default=defaults.max_major)
    parser.add_argument("--json", dest="json_path", metavar="PATH")
    parser.add_argument("--csv", dest="csv_path", metavar="PATH")
    parser.add_argument("--trace", action="store_true",
                        help="stream per-iteration schedule state")


def _options_from_args(args) -> OuterOptions:
    return OuterOptions(mode=args.mode, omega_star=args.omega_star,
                        eta_star=args.eta_star, max_major=args.max_major)


def _eval_line(counts: dict) -> str:
    """Callback calls by kind, from an entry's fields or the totals."""
    return "  ".join(f"{key[0]} {counts[key]}" for key in EVAL_KINDS)


def _print_trace(report: SolveReport) -> None:
    """The schedule table, whose omega and f_norm are in the problem's units
    and other measures in scaled units, then the scale factors."""
    head = (f"{'k':>3} {'acc':>3} {'rho':>10} {'sigma':>10} {'eta':>10} "
            f"{'eta_target':>10} {'omega':>10} {'||c||':>10} {'f_norm':>10} "
            f"{'inner':>6}")
    print(head)
    for rec in report.trace:
        print(f"{rec.k:>3} {'S' if rec.accepted else 'F':>3} {rec.rho:>10.3e} "
              f"{rec.sigma:>10.3e} {rec.eta:>10.3e} {rec.eta_target:>10.3e} "
              f"{rec.omega:>10.3e} {rec.c_norm:>10.3e} {rec.f_norm:>10.3e} "
              f"{rec.inner_iterations:>6}")
    rows = " ".join(f"{s:g}" for s in report.row_scale)
    print(f"scaling: f_scale {report.f_scale:g}  row_scale [{rows}]")


def _cmd_list(_args) -> int:
    for name in catalog_names():
        entry = catalog_get(name)
        known = "" if entry.known_objective is None else f"  f* = {entry.known_objective:.10g}"
        print(f"{name:<18} {entry.classification:<10}{known}")
    return 0


def _cmd_run(args) -> int:
    """`solve` and `suite`: each problem's schedule table under --trace,
    its result and residuals lines, then the totals."""
    names = catalog_names() if args.all else args.names
    if not names:
        print("suite: give problem names or --all", file=sys.stderr)
        return 2

    def log(row: SuiteEntry, result: SolveReport) -> None:
        if args.trace:
            _print_trace(result)
        print(f"{row.name}: {row.status}  f = {row.final_objective:.10g}  "
              f"majors = {row.majors}  minors = {row.minors}  "
              f"calls: {_eval_line(asdict(row))}")
        print(f"residuals: primal {row.primal_inf:.3e}  dual {row.dual_inf:.3e}  "
              f"comp {row.comp:.3e}  wall {row.wall_time_s:.3f}s")

    report = run_suite(names, args.opts, log=log)
    totals = report.totals
    print(f"total: majors = {totals['majors']}  minors = {totals['minors']}  "
          f"calls: {_eval_line(totals)}  wall = {totals['wall_time_s']:.3f}s")
    if args.json_path:
        emit_report(report, "json", args.json_path)
    if args.csv_path:
        emit_report(report, "csv", args.csv_path)
    return 0 if report.all_matched else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slcl",
        description="Stabilized linearly constrained Lagrangian solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog problems")
    p_list.set_defaults(func=_cmd_list)

    p_solve = sub.add_parser("solve", help="solve one catalog problem")
    p_solve.add_argument("names", nargs=1, metavar="name")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_run, all=False)

    p_suite = sub.add_parser("suite", help="solve a set of catalog problems")
    p_suite.add_argument("names", nargs="*")
    p_suite.add_argument("--all", action="store_true")
    _add_solver_flags(p_suite)
    p_suite.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    if args.command != "list":
        try:
            args.opts = _options_from_args(args)
        except ValueError as exc:
            print(f"slcl: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"slcl: {exc.args[0]}", file=sys.stderr)
        return 2
    except OSError as exc:  # a report path that cannot be written
        print(f"slcl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
