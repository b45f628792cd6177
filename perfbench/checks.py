"""Checks on a returned solve, computed apart from the solver.

Everything here works from the raw callbacks (eval_f, eval_g, eval_c,
eval_J), the linear rows A and the bounds of the problem.  Nothing goes
through slcl.merit or the counted NlpProblem wrappers, so checking a solve
neither reuses the solver's own arithmetic nor moves its evaluation counts.
"""

from __future__ import annotations

import numpy as np

from cases import INFEASIBLE, OPTIMAL, UNBOUNDED, Case

F_TOL = 1e-5           # scaled objective error against the closed form
X_TOL = 1e-4           # scaled distance to a unique closed-form minimizer
INFEAS_PG_TOL = 1e-4   # projected gradient of the squared row violation
ROUNDOFF = 1e-12       # slack for recomputing the solver's residuals


def _rows(problem, x):
    """Row values (c(x); A x) and their bounds."""
    c = (np.asarray(problem.eval_c(x), dtype=float).reshape(problem.m_c)
         if problem.m_c else np.zeros(0))
    values = np.concatenate([c, problem.A @ x])
    lo = np.concatenate([problem.bounds_c[0], problem.bounds_A[0]])
    hi = np.concatenate([problem.bounds_c[1], problem.bounds_A[1]])
    return values, lo, hi


def _row_jacobian(problem, x):
    J = (np.asarray(problem.eval_J(x), dtype=float).reshape(problem.m_c, problem.n)
         if problem.m_c else np.zeros((0, problem.n)))
    return np.vstack([J, problem.A])


def _excess(v, lo, hi) -> np.ndarray:
    """Signed distance of v outside [lo, hi]; zero inside."""
    return np.maximum(v - hi, 0.0) - np.maximum(lo - v, 0.0)


def kkt_measures(problem, x_ext, y, z) -> tuple[float, float, float]:
    """(primal, dual, complementarity) of the slack form at (x_ext, y, z).

    The slack form has variables (x, s) with rows (c(x); A x) - s = 0 and the
    box (bounds_x; row bounds).  Its Lagrangian gradient is
    (g - [J; A]^T y - z_x ; y - z_s).
    """
    n = problem.n
    x, s = x_ext[:n], x_ext[n:]
    values, lo_r, hi_r = _rows(problem, x)
    lo = np.concatenate([problem.bounds_x[0], lo_r])
    hi = np.concatenate([problem.bounds_x[1], hi_r])
    primal = max(np.abs(values - s).max(initial=0.0),
                 np.abs(_excess(x_ext, lo, hi)).max(initial=0.0))
    g = np.asarray(problem.eval_g(x), dtype=float).reshape(n)
    grad = np.concatenate([g - _row_jacobian(problem, x).T @ y, y])
    dual = np.abs(grad - z).max(initial=0.0)
    lower = np.minimum(x_ext - lo, np.maximum(z, 0.0))
    upper = np.minimum(hi - x_ext, np.maximum(-z, 0.0))
    comp = np.abs(np.maximum(lower, upper)).max(initial=0.0)
    return float(primal), float(dual), float(comp)


def row_violation(problem, x) -> float:
    values, lo, hi = _rows(problem, x)
    return float(np.abs(_excess(values, lo, hi)).max(initial=0.0))


def infeasibility_stationarity(problem, x) -> float:
    """Projected gradient over the x box of (1/2)||row-bound violation||^2."""
    values, lo, hi = _rows(problem, x)
    grad = _row_jacobian(problem, x).T @ _excess(values, lo, hi)
    step = np.clip(x - grad, *problem.bounds_x)
    return float(np.abs(x - step).max(initial=0.0))


def check_solve(case: Case, report, omega_star: float,
                eta_star: float) -> list[str]:
    """Reasons the returned solve is wrong; empty when every check holds."""
    if report.status != case.expected:
        return [f"status {report.status}, expected {case.expected}"]
    problem = case.problem
    x = np.asarray(report.x, dtype=float)
    errors = []
    if case.expected == OPTIMAL:
        primal, dual, comp = kkt_measures(problem, np.asarray(report.x_ext),
                                          np.asarray(report.y),
                                          np.asarray(report.z))
        if primal > eta_star + ROUNDOFF:
            errors.append(f"primal {primal:.3e} > eta_star {eta_star:.1e}")
        if dual > omega_star + ROUNDOFF:
            errors.append(f"dual {dual:.3e} > omega_star {omega_star:.1e}")
        if comp > omega_star + ROUNDOFF:
            errors.append(f"comp {comp:.3e} > omega_star {omega_star:.1e}")
        if case.f_star is not None:
            f = float(problem.eval_f(x))
            if abs(f - case.f_star) > F_TOL * (1.0 + abs(case.f_star)):
                errors.append(f"objective {f!r}, closed form {case.f_star!r}")
        if case.x_star is not None:
            dist = float(np.abs(x - case.x_star).max())
            if dist > X_TOL * (1.0 + np.abs(case.x_star).max()):
                errors.append(f"x is {dist:.3e} from the closed-form minimizer")
    elif case.expected == INFEASIBLE:
        viol = row_violation(problem, x)
        pg = infeasibility_stationarity(problem, x)
        if viol <= eta_star:
            errors.append(f"rows hold to {viol:.3e}; no infeasibility shown")
        if pg > INFEAS_PG_TOL:
            errors.append(f"squared-violation projected gradient {pg:.3e}")
    elif case.expected == UNBOUNDED:
        viol = max(row_violation(problem, x),
                   float(np.abs(_excess(x, *problem.bounds_x)).max(initial=0.0)))
        if viol > eta_star:
            errors.append(f"unbounded ray point violates the rows by {viol:.3e}")
    return errors
