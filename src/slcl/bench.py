"""Benchmark harness, report emitters, and CLI."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field

from .catalog import catalog_get, catalog_names
from .driver import INFEASIBLE, OPTIMAL, OuterOptions, SolveReport, solve
from .innersolve import UNBOUNDED

CSV_COLUMNS = ["name", "status", "majors", "minors", "fevals", "final_objective",
               "primal_inf", "dual_inf", "comp", "wall_time_s"]

_EXPECTED_STATUS = {"solvable": OPTIMAL, "infeasible": INFEASIBLE,
                    "unbounded": UNBOUNDED}


@dataclass
class SuiteEntry:
    name: str
    status: str
    majors: int
    minors: int
    fevals: int
    final_objective: float
    primal_inf: float
    dual_inf: float
    comp: float
    wall_time_s: float
    classification: str
    matched: bool


@dataclass
class SuiteReport:
    entries: list[SuiteEntry] = field(default_factory=list)
    options: dict = field(default_factory=dict)

    @property
    def totals(self) -> dict:
        return {
            "majors": sum(e.majors for e in self.entries),
            "minors": sum(e.minors for e in self.entries),
            "fevals": sum(e.fevals for e in self.entries),
            "wall_time_s": sum(e.wall_time_s for e in self.entries),
        }

    @property
    def all_matched(self) -> bool:
        return all(e.matched for e in self.entries)


def _solve_entry(name: str, opts: OuterOptions) -> tuple[SuiteEntry, SolveReport]:
    """Solve one catalog problem and summarize the run as a suite row."""
    entry = catalog_get(name)
    t0 = time.perf_counter()
    result = solve(entry.problem, opts)
    wall = time.perf_counter() - t0
    res = result.residual
    row = SuiteEntry(
        name=name, status=result.status, majors=result.majors,
        minors=result.minors, fevals=result.fevals,
        final_objective=result.final_objective, primal_inf=res.primal_inf,
        dual_inf=res.dual_inf, comp=res.comp, wall_time_s=wall,
        classification=entry.classification,
        matched=result.status == _EXPECTED_STATUS[entry.classification])
    return row, result


def run_suite(names, opts: OuterOptions | None = None, log=None) -> SuiteReport:
    """Solve each named catalog problem once and collect one row per problem."""
    opts = opts if opts is not None else OuterOptions()
    report = SuiteReport(options=asdict(opts))
    for name in names:
        row, _ = _solve_entry(name, opts)
        report.entries.append(row)
        if log is not None:
            log(f"{name:<18} {row.status:<14} majors={row.majors:<4} "
                f"minors={row.minors:<6} f={row.final_objective:.6g}")
    return report


def emit_report(report: SuiteReport, fmt: str, path) -> None:
    """Write a suite report as csv (fixed column set) or json (with totals)."""
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for e in report.entries:
                writer.writerow([
                    e.name, e.status, e.majors, e.minors, e.fevals,
                    repr(e.final_objective), repr(e.primal_inf),
                    repr(e.dual_inf), repr(e.comp), repr(e.wall_time_s)])
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
    parser.add_argument("--mode", choices=["stabilized", "canonical", "bcl"],
                        default="stabilized")
    parser.add_argument("--omega-star", type=float, default=1e-6,
                        help="dual and complementarity target")
    parser.add_argument("--eta-star", type=float, default=1e-6,
                        help="feasibility target")
    parser.add_argument("--max-major", type=int, default=500)
    parser.add_argument("--json", dest="json_path", metavar="PATH")
    parser.add_argument("--csv", dest="csv_path", metavar="PATH")
    parser.add_argument("--trace", action="store_true",
                        help="stream per-iteration schedule state")


def _options_from_args(args) -> OuterOptions:
    return OuterOptions(mode=args.mode, omega_star=args.omega_star,
                        eta_star=args.eta_star, max_major=args.max_major)


def _print_trace(report: SolveReport) -> None:
    head = (f"{'k':>3} {'acc':>3} {'rho':>10} {'sigma':>10} {'eta':>10} "
            f"{'omega':>10} {'||c||':>10} {'f_norm':>10} {'inner':>6}")
    print(head)
    for rec in report.trace:
        print(f"{rec.k:>3} {'S' if rec.accepted else 'F':>3} {rec.rho:>10.3e} "
              f"{rec.sigma:>10.3e} {rec.eta:>10.3e} {rec.omega:>10.3e} "
              f"{rec.c_norm:>10.3e} {rec.f_norm:>10.3e} {rec.inner_iterations:>6}")


def _emit_from_args(report: SuiteReport, args) -> None:
    if args.json_path:
        emit_report(report, "json", args.json_path)
    if args.csv_path:
        emit_report(report, "csv", args.csv_path)


def _cmd_list(_args) -> int:
    for name in catalog_names():
        entry = catalog_get(name)
        known = "" if entry.known_objective is None else f"  f* = {entry.known_objective:.10g}"
        print(f"{name:<18} {entry.classification:<10}{known}")
    return 0


def _cmd_solve(args) -> int:
    opts = _options_from_args(args)
    row, result = _solve_entry(args.name, opts)
    if args.trace:
        _print_trace(result)
    print(f"{args.name}: {row.status}  f = {row.final_objective:.10g}  "
          f"majors = {row.majors}  minors = {row.minors}  "
          f"fevals = {row.fevals}")
    print(f"residuals: primal {row.primal_inf:.3e}  dual {row.dual_inf:.3e}  "
          f"comp {row.comp:.3e}  wall {row.wall_time_s:.3f}s")
    _emit_from_args(SuiteReport(entries=[row], options=asdict(opts)), args)
    return 0 if row.matched else 1


def _cmd_suite(args) -> int:
    if args.all:
        names = catalog_names()
    elif args.names:
        names = args.names
    else:
        print("suite: give problem names or --all", file=sys.stderr)
        return 2
    opts = _options_from_args(args)
    report = run_suite(names, opts, log=print)
    totals = report.totals
    print(f"total: majors = {totals['majors']}  minors = {totals['minors']}  "
          f"fevals = {totals['fevals']}  wall = {totals['wall_time_s']:.3f}s")
    _emit_from_args(report, args)
    return 0 if report.all_matched else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slcl",
        description="Stabilized linearly constrained Lagrangian solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog problems")
    p_list.set_defaults(func=_cmd_list)

    p_solve = sub.add_parser("solve", help="solve one catalog problem")
    p_solve.add_argument("name")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_suite = sub.add_parser("suite", help="solve a set of catalog problems")
    p_suite.add_argument("names", nargs="*")
    p_suite.add_argument("--all", action="store_true")
    _add_solver_flags(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"slcl: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
