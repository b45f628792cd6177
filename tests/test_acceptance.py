"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
quantities so a -s run reads as a checklist.  The heavy solves are shared
through module-scoped fixtures; every solve in this file runs at the stock
defaults unless the criterion itself says otherwise.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from slcl.bench import run_suite
from slcl.catalog import SOLVABLE, catalog_get, catalog_names
from slcl.driver import (ALPHA, BCL, ETA_0, STABILIZED, OuterOptions,
                         SolveReport, solve)
from slcl.innersolve import CONVERGED
from slcl.linearize import linearize_constraints
from slcl.merit import aug_lagrangian, aug_lagrangian_grad, min_norm_stationarity
from slcl.model import build_slack_form

ALL_NAMES = catalog_names()
SOLVABLE_NAMES = [n for n in ALL_NAMES if catalog_get(n).classification == SOLVABLE]
CONVEX_NAMES = [n for n in ALL_NAMES if catalog_get(n).convex]


@pytest.fixture(scope="module")
def suite_result():
    """Timed default-options run over the solvable catalog."""
    t0 = time.perf_counter()
    rep = run_suite(SOLVABLE_NAMES)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stab_reports() -> dict[str, SolveReport]:
    """One default-options solve per catalog entry, solvable or not."""
    return {n: solve(catalog_get(n).problem) for n in ALL_NAMES}


@pytest.fixture(scope="module")
def mode_reports() -> dict[tuple[str, str], SolveReport]:
    """Convex-subset solves in the two non-default modes."""
    out = {}
    for mode in ("bcl", "canonical"):
        for n in CONVEX_NAMES:
            out[mode, n] = solve(catalog_get(n).problem, OuterOptions(mode=mode))
    return out


def test_criterion_1_suite_success(suite_result):
    """At least 12 of the solvable entries finish Optimal, fast."""
    rep, total = suite_result
    assert len(SOLVABLE_NAMES) >= 14
    n_opt = sum(1 for r in rep.entries if r.status == "Optimal")
    slowest = max(rep.entries, key=lambda r: r.wall_time_s)
    assert n_opt >= 12, [r.name for r in rep.entries if r.status != "Optimal"]
    for r in rep.entries:
        assert r.wall_time_s <= 5.0, f"{r.name} took {r.wall_time_s:.2f}s"
    assert total <= 60.0, f"suite took {total:.1f}s"
    print(f"criterion 1: PASS - {n_opt}/{len(SOLVABLE_NAMES)} Optimal, "
          f"slowest {slowest.name} {slowest.wall_time_s:.2f}s, suite {total:.1f}s")


def test_criterion_2_oracle_accuracy(suite_result):
    """Final objectives match the closed-form optima to 1e-5, scaled."""
    rep, _ = suite_result
    worst_rel, worst_name = 0.0, ""
    checked = 0
    for r in rep.entries:
        known = catalog_get(r.name).known_objective
        if known is None:
            continue
        checked += 1
        rel = abs(r.final_objective - known) / (1.0 + abs(known))
        if rel > worst_rel:
            worst_rel, worst_name = rel, r.name
        assert rel <= 1e-5, f"{r.name}: f={r.final_objective!r} known={known!r}"
    assert checked == len(SOLVABLE_NAMES)
    print(f"criterion 2: PASS - {checked} objectives checked, "
          f"worst scaled error {worst_rel:.2e} ({worst_name})")


def test_criterion_3_gradient_suite():
    """Merit gradient vs central differences, 100 samples per problem."""
    rng = np.random.default_rng(314159)
    h = 1e-6
    worst = 0.0
    for name in ALL_NAMES:
        sf = build_slack_form(catalog_get(name).problem)
        base = sf.embed(sf.nlp.x_tilde)
        # sampling box: near the start, inside bounds, away from the infinities
        lo = np.maximum(sf.lo, -10.0)
        hi = np.minimum(sf.hi, 10.0)
        for _ in range(100):
            x_ext = np.clip(base + 0.5 * rng.standard_normal(sf.n_ext), lo, hi)
            y = 2.0 * rng.standard_normal(sf.m)
            rho = float(rng.uniform(0.0, 1000.0))
            g = aug_lagrangian_grad(linearize_constraints(sf, x_ext), y, rho)
            fd = np.empty_like(g)
            for i in range(sf.n_ext):
                e = np.zeros(sf.n_ext)
                e[i] = h
                fd[i] = (aug_lagrangian(linearize_constraints(sf, x_ext + e), y, rho)
                         - aug_lagrangian(linearize_constraints(sf, x_ext - e), y, rho)
                         ) / (2 * h)
            rel = float(np.abs(fd - g).max() / (1.0 + np.abs(g).max()))
            worst = max(worst, rel)
            assert rel <= 1e-6, f"{name}: rel err {rel:.2e} at rho={rho:.1f}"
    print(f"criterion 3: PASS - {len(ALL_NAMES)}x100 samples, "
          f"worst relative error {worst:.2e}")


def test_criterion_4_l1_exactness(stab_reports, mode_reports):
    """The relaxation is exact at the end of every Optimal priced run.

    Once the elastic price dominates the latest multiplier step, the final
    accepted subproblem takes the step an unrelaxed one would: the elastics
    vanish.  Runs with a zero price (bcl) and runs with no nonlinear rows
    (no row factors) have no priced subproblem to check.
    """
    runs = [(n, r) for n, r in stab_reports.items()]
    runs += [(f"{mode}:{n}", r) for (mode, n), r in mode_reports.items()
             if mode == "canonical"]
    checked = 0
    for label, rep in runs:
        if rep.status != "Optimal" or rep.row_scale.size == 0:
            continue
        last = [t for t in rep.trace if t.accepted][-1]
        assert last.delta_y_norm < last.sigma, (
            f"{label}: |dy|={last.delta_y_norm!r} >= sigma={last.sigma!r}")
        assert last.elastic_inf <= 1e-6, f"{label}: elastics {last.elastic_inf!r}"
        checked += 1
    assert checked >= 10
    print(f"criterion 4: PASS - {checked} Optimal priced runs, "
          f"final step inside the price with elastics <= 1e-6 on each")


def test_criterion_5_infeasibility(stab_reports):
    """The inconsistent entry exits Infeasible with a certificate."""
    rep = stab_reports["infeas-affine"]
    assert rep.status == "Infeasible"
    rho_final = rep.trace[-1].rho
    assert rho_final > 1e8, rho_final
    sf = build_slack_form(catalog_get("infeas-affine").problem)
    # the returned point must be first-order stationary for the squared
    # residual over the bounds, measured by the projected gradient
    mns = min_norm_stationarity(linearize_constraints(sf, rep.x_ext))
    assert mns <= 1e-4, mns
    print(f"criterion 5: PASS - Infeasible at rho={rho_final:.2e}, "
          f"residual stationarity {mns:.2e}")


def test_criterion_6_unboundedness(stab_reports):
    rep = stab_reports["unbounded-ray"]
    assert rep.status == "Unbounded"
    assert rep.majors <= 10, rep.majors
    print(f"criterion 6: PASS - Unbounded after {rep.majors} major iteration(s)")


# Rate half of criterion 7: a geometric ladder of near-solution offsets along
# one direction, 5e-2 down to 2e-3, with 1e-2 (the capture start) among them.
RATE_LADDER = np.geomspace(5e-2, 2e-3, 5)


def _one_step_order(entry, d: np.ndarray, mode: str) -> tuple[float, list[float]]:
    """Least-squares slope of log F1 against log F0 over the ladder starts.

    F0 and F1 are the KKT measure f_norm = max(primal, dual, comp) before
    and after one major iteration from x* + r*d, y* + r.  Each step must be
    a resolved one: its subproblem Converged and the outer test accepted it.
    """
    opts = OuterOptions(mode=mode, max_major=1, omega_0=1e-8)
    f0, f1 = [], []
    for r in RATE_LADDER:
        rep = solve(entry.problem, opts,
                    x_start=entry.known_x + r * d,
                    y_start=entry.known_y + r)
        step = rep.trace[0]
        assert step.inner_status == CONVERGED, (mode, r, step.inner_status)
        assert step.accepted, (mode, r)
        f0.append(rep.f_norm_0)
        f1.append(rep.trace[0].f_norm)
    slope = float(np.polyfit(np.log(f0), np.log(f1), 1)[0])
    return slope, f1


def test_criterion_7_local_rate():
    """Near-solution start: capture in <= 5 majors, then a superlinear step.

    Capture: from x* + 1e-2*d, y* + 1e-2 at the stock defaults the run
    must finish Optimal within five majors.

    Rate: the local theory bounds one major step by F1 <= C * F0**p, with
    F the KKT measure f_norm = max(primal, dual, comp) and p = 2 for the
    LCL step once the elastics vanish.  The captured run cannot show this:
    it has three points, and its last one (4.83e-7) is set by the stopping
    tolerance omega_star = 1e-6, not by the step.  So the rate half measures p directly, on steps
    that are resolved, with these settings off the defaults:

    - starts on RATE_LADDER, five offsets r from 5e-2 to 2e-3 along the
      same d with y* + r, so that the slope is fitted over 1.4 decades of F0;
    - max_major=1, because only the first step from each start is measured;
    - omega_0=1e-8, over two decades below the smallest F1 on the ladder
      (about 4e-6) and one decade above the inner kernel's 1e-9 stationarity
      floor, so the subproblem tolerance does not cut the step short.

    The fitted slope of log F1 on log F0 must be at least 1.5.  As a
    negative control the bcl mode, whose fixed-penalty first-order
    multiplier update converges linearly, must give a slope below 1.5 on
    the same ladder.
    """
    entry = catalog_get("circle-proj")
    d = np.array([1.0, -1.0]) / np.sqrt(2.0)
    rep = solve(entry.problem,
                x_start=entry.known_x + 1e-2 * d,
                y_start=entry.known_y + 1e-2)
    assert rep.status == "Optimal"
    assert rep.majors <= 5, rep.majors

    assert len(RATE_LADDER) >= 4 and np.isclose(RATE_LADDER, 1e-2).any()
    order, f1 = _one_step_order(entry, d, STABILIZED)
    assert order >= 1.5, (order, f1)
    bcl_order, _ = _one_step_order(entry, d, BCL)
    assert bcl_order < 1.5, bcl_order
    print(f"criterion 7: PASS - captured in {rep.majors} majors, one-step "
          f"order {order:.2f} over {len(RATE_LADDER)} starts "
          f"(bcl control {bcl_order:.2f})")


def test_criterion_8_mode_cross_check(stab_reports, mode_reports):
    """bcl and canonical agree with the default mode on the convex subset."""
    assert len(CONVEX_NAMES) >= 5
    worst = {"bcl": 0.0, "canonical": 0.0}
    for (mode, name), rep in mode_reports.items():
        ref = stab_reports[name]
        assert ref.status == "Optimal", name
        assert rep.status == "Optimal", f"{mode} on {name}: {rep.status}"
        diff = abs(rep.final_objective - ref.final_objective)
        worst[mode] = max(worst[mode], diff)
        assert diff <= 1e-5, f"{mode} on {name}: |df|={diff!r}"
    print(f"criterion 8: PASS - {len(CONVEX_NAMES)} convex entries, "
          f"worst |f - f_stab|: bcl {worst['bcl']:.2e}, "
          f"canonical {worst['canonical']:.2e}")


def test_criterion_9_schedule_invariants(stab_reports, mode_reports):
    """Penalty, price, and tolerance schedules obey their contracts on
    every recorded iteration of every run this file performs."""
    opts = OuterOptions()
    pooled = [("stabilized", n, r.trace) for n, r in stab_reports.items()]
    pooled += [(mode, n, r.trace) for (mode, n), r in mode_reports.items()]
    records = 0
    for mode, name, trace in pooled:
        for prev, cur in zip(trace, trace[1:]):
            # each record's *_next fields are the next record's inputs
            assert cur.rho == prev.rho_next, name
            assert cur.sigma == prev.sigma_next, name
            assert cur.eta == prev.eta_next, name
            assert cur.omega == prev.omega_next, name
        for t in trace:
            records += 1
            tag = f"{mode}:{name} k={t.k}"
            assert t.rho_next >= t.rho, tag
            if mode == "bcl":
                assert t.sigma == 0.0 and t.sigma_next == 0.0, tag
            elif t.accepted:
                assert 1.0 <= t.sigma_next <= 1e4, tag
            assert t.omega_next <= t.omega, tag
            assert t.omega_next >= opts.omega_star * (1.0 - 1e-12), tag
            if not t.accepted and t.rho_next > t.rho:
                want = ETA_0 / t.rho_next ** ALPHA
                assert abs(t.eta_next - want) <= 1e-12 * max(1.0, want), tag
    assert records > 0
    print(f"criterion 9: PASS - {records} trace records over "
          f"{len(pooled)} runs, all schedule updates consistent")
