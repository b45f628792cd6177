"""The benchmark's checker accepts analytic solutions and flags wrong ones.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cases import (INFEASIBLE, OPTIMAL, UNBOUNDED, Case, catalog_cases,  # noqa: E402
                   circle_problem, circles_cases, warm_start_cases)
from checks import check_solve  # noqa: E402
from slcl.catalog import catalog_get  # noqa: E402

TOL = 1e-6


def analytic_report(problem, x, y, status=OPTIMAL):
    """The (x_ext, y, z) a perfect solver would return at x with multipliers y.

    Slacks sit at the row values and z is the Lagrangian gradient of the
    slack form, so every first-order measure is zero up to roundoff.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = problem.eval_c(x) if problem.m_c else np.zeros(0)
    J = problem.eval_J(x) if problem.m_c else np.zeros((0, problem.n))
    s = np.concatenate([c, problem.A @ x])
    z = np.concatenate([problem.eval_g(x) - np.vstack([J, problem.A]).T @ y, y])
    return SimpleNamespace(status=status, x=x, x_ext=np.concatenate([x, s]),
                           y=y, z=z)


def closed_form_cases():
    """(case, y*) for every case whose multipliers are known in closed form."""
    out = []
    for case in catalog_cases(0):
        entry = catalog_get(case.label)
        if entry.known_y is not None:
            out.append((case, entry.known_y))
    for case in circles_cases(3)[:2]:
        a = case.problem.eval_g(np.zeros(case.problem.n)) / -2.0
        norms = np.linalg.norm(a.reshape(-1, 2), axis=1)
        out.append((case, np.concatenate([1.0 - norms, [0.0]])))
    return out


CLOSED = closed_form_cases()
IDS = [case.label for case, _ in CLOSED]


def check(case, report):
    return check_solve(case, report, omega_star=TOL, eta_star=TOL)


@pytest.mark.parametrize("case,y", CLOSED, ids=IDS)
def test_accepts_analytic_solution(case, y):
    assert check(case, analytic_report(case.problem, case.x_star, y)) == []


@pytest.mark.parametrize("case,y", CLOSED, ids=IDS)
def test_flags_perturbed_point(case, y):
    x = case.x_star + 1e-3
    errors = check(case, analytic_report(case.problem, x, y))
    assert any("objective" in e or "minimizer" in e for e in errors), errors
    report = analytic_report(case.problem, case.x_star, y)
    report.x_ext[case.problem.n:] += 1e-3   # slacks off the row values
    assert any(e.startswith("primal") for e in check(case, report))


@pytest.mark.parametrize("case,y", CLOSED, ids=IDS)
def test_flags_perturbed_multipliers(case, y):
    report = analytic_report(case.problem, case.x_star, y)
    report.y = report.y + 1e-3
    assert any(e.startswith("dual") for e in check(case, report))


def test_flags_wrong_sign_of_bound_multiplier():
    # quarter-ellipse has x1 = 0 active with z1 = 1; a negative reduced cost
    # on an active lower bound violates complementarity
    case = next(c for c, _ in CLOSED if c.label == "quarter-ellipse")
    report = analytic_report(case.problem, case.x_star, [0.125])
    report.z[0] = -report.z[0]
    errors = check(case, report)
    assert any(e.startswith("comp") for e in errors), errors


def test_flags_wrong_status():
    case, y = CLOSED[0]
    report = analytic_report(case.problem, case.x_star, y, status="CannotImprove")
    assert check(case, report) == ["status CannotImprove, expected Optimal"]


def test_infeasible_certificate():
    case = next(c for c in catalog_cases(0) if c.expected == INFEASIBLE)
    origin = SimpleNamespace(status=INFEASIBLE, x=np.zeros(2))
    assert check(case, origin) == []
    off = SimpleNamespace(status=INFEASIBLE, x=np.ones(2))
    assert any("projected gradient" in e for e in check(case, off))


def test_unbounded_point_must_satisfy_rows():
    case = next(c for c in catalog_cases(0) if c.expected == UNBOUNDED)
    on_ray = SimpleNamespace(status=UNBOUNDED, x=np.array([50.0, 0.0]))
    assert check(case, on_ray) == []
    off_ray = SimpleNamespace(status=UNBOUNDED, x=np.array([50.0, 0.1]))
    assert any("violates" in e for e in check(case, off_ray))


def test_inputs_follow_the_seed():
    a, b, c = warm_start_cases(5), warm_start_cases(5), warm_start_cases(6)
    assert len(a) == 560
    assert all(np.array_equal(p.x_start, q.x_start) for p, q in zip(a, b))
    assert not all(np.array_equal(p.x_start, q.x_start) for p, q in zip(a, c))
    first, again = circles_cases(9), circles_cases(9)
    assert all(np.array_equal(p.x_star, q.x_star) for p, q in zip(first, again))


def test_circle_targets_in_range():
    for case in circles_cases(11):
        a = case.problem.eval_g(np.zeros(case.problem.n)) / -2.0
        assert a.min() >= 0.5 and a.max() <= 3.0


def test_circle_closed_form_is_stationary():
    a = np.array([[3.0, 4.0], [0.6, 0.8]])
    problem = circle_problem(a, "two")
    case = Case("two", problem, OPTIMAL, f_star=16.0,
                x_star=np.array([0.6, 0.8, 0.6, 0.8]))
    y = np.array([1.0 - 5.0, 1.0 - 1.0, 0.0])
    assert check(case, analytic_report(problem, case.x_star, y)) == []
