"""Inner solver for the lifted elastic subproblems.

The lifted rows are enforced by an augmented Lagrangian loop of their own:
each cycle minimizes the row-penalized objective over the box with a spectral
projected-gradient method (Barzilai-Borwein steps plus a nonmonotone
backtracking line search), then updates the row multipliers or raises the row
penalty depending on how much the row residual shrank.  On success the
returned triple satisfies the relaxed optimality conditions of the subproblem:
bounds hold, rows hold to delta_lin, z is the reduced gradient at delta_y,
complementarity is within omega, and the elastic-row multipliers obey the
sigma + omega box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linearize import ElasticSubproblem, optimal_elastics
from .merit import comp_measure
from .model import SlackForm, Vector

CONVERGED = "Converged"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"

_NONMONOTONE_MEMORY = 10
_SUFF_DECREASE = 1e-4
_BACKTRACK = 0.5
_ALPHA_MIN = 1e-10
_ALPHA_MAX = 1e10
_MAX_CYCLES = 60
_AL_RHO_CAP = 1e14


class PpInfeasible(Exception):
    """The proximal start problem has no point satisfying bounds and linear rows."""


@dataclass
class InnerOptions:
    omega: float = 1e-6
    delta_lin: float = 1e-6
    max_inner_iters: int = 5000
    max_restarts: int = 3
    unbounded_objective: float = -1e15
    unbounded_norm: float = 1e10
    al_rho_init: float = 10.0
    al_rho_growth: float = 10.0


@dataclass
class SubproblemSolution:
    x_star: Vector
    delta_y: Vector
    z_star: Vector
    v_star: Vector
    w_star: Vector
    status: str
    inner_iterations: int
    function_evals: int
    al_merit_path: list[float] = field(default_factory=list)


@dataclass
class BoundSolveResult:
    x: Vector
    f: float
    status: str
    iterations: int
    n_evals: int
    alpha: float = 1.0


def projected_gradient(x: Vector, g: Vector, lo: Vector, hi: Vector,
                       tol_active: float = 1e-12) -> Vector:
    """Gradient with components clipped to feasible directions at active bounds."""
    pg = np.array(g, dtype=float)
    at_lo = np.isfinite(lo) & (x - lo <= tol_active * (1.0 + np.abs(lo)))
    at_hi = np.isfinite(hi) & (hi - x <= tol_active * (1.0 + np.abs(hi)))
    pg[at_lo] = np.minimum(pg[at_lo], 0.0)
    pg[at_hi & ~at_lo] = np.maximum(pg[at_hi & ~at_lo], 0.0)
    pg[at_lo & at_hi] = 0.0
    return pg


def _check_finite(where: str, x: Vector, *values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"non-finite value or gradient at the {where} point x={x!r}")


def bound_solve(value: Callable[[Vector], float],
                value_grad: Callable[[Vector], tuple[float, Vector]],
                lo: Vector, hi: Vector, start: Vector, tol: float,
                iter_cap: int = 5000,
                unbounded_objective: float = -1e15,
                unbounded_norm: float = 1e10,
                alpha0: float | None = None) -> BoundSolveResult:
    """Minimize a smooth function over a box by spectral projected gradient.

    Terminates when the projected gradient infinity norm drops to tol, when
    the iterate certifies unboundedness (objective below unbounded_objective
    or iterate norm beyond unbounded_norm while still descending), or at the
    iteration cap.  alpha0 seeds the spectral steplength, letting callers
    reuse curvature learned on a previous call to the same function.

    value is called at every line-search trial point and value_grad at the
    start point and at each accepted trial point, right after value was
    called there, so a caller can keep what value computed.  A trial with a
    non-finite value fails and is backtracked; a non-finite value or gradient
    at the start or an accepted point raises ValueError.  n_evals counts the
    points evaluated: the start and every trial.
    """
    x = np.clip(np.array(start, dtype=float), lo, hi)
    f, g = value_grad(x)
    _check_finite("start", x, f, g)
    n_evals = 1
    history = [f]
    if alpha0 is not None:
        alpha = min(max(alpha0, _ALPHA_MIN), _ALPHA_MAX)
    else:
        g_scale = np.abs(projected_gradient(x, g, lo, hi)).max(initial=0.0)
        alpha = min(max(1.0 / max(g_scale, 1.0), _ALPHA_MIN), 1.0)
    for it in range(1, iter_cap + 1):
        pg = projected_gradient(x, g, lo, hi)
        if np.abs(pg).max(initial=0.0) <= tol:
            return BoundSolveResult(x, f, CONVERGED, it - 1, n_evals, alpha)

        d = np.clip(x - alpha * g, lo, hi) - x
        gtd = float(g @ d)
        if gtd > -1e-30:
            # the spectral step produced no descent direction; the point is
            # stationary to working precision
            status = CONVERGED if np.abs(pg).max() <= max(tol, 1e-9) else ITERATION_LIMIT
            return BoundSolveResult(x, f, status, it - 1, n_evals, alpha)

        f_ref = max(history[-_NONMONOTONE_MEMORY:])
        lam = 1.0
        while True:
            x_new = x + lam * d
            f_new = value(x_new)
            n_evals += 1
            if np.isfinite(f_new) and f_new <= f_ref + _SUFF_DECREASE * lam * gtd:
                break
            lam *= _BACKTRACK
            if lam < 1e-14:
                x_new = x
                f_new = f
                break

        if f_new < unbounded_objective or np.abs(x_new).max() > unbounded_norm:
            return BoundSolveResult(x_new, f_new, UNBOUNDED, it, n_evals, alpha)

        s = x_new - x
        if not s.any():
            # line search collapsed without progress; accept the point when it
            # is stationary to within an order of the requested tolerance
            status = CONVERGED if np.abs(pg).max() <= 10 * tol else ITERATION_LIMIT
            return BoundSolveResult(x, f, status, it, n_evals, alpha)

        _, g_new = value_grad(x_new)
        _check_finite("accepted", x_new, g_new)
        ydiff = g_new - g
        sty = float(s @ ydiff)
        if sty > 1e-30:
            alpha = min(max(float(s @ s) / sty, _ALPHA_MIN), _ALPHA_MAX)
        else:
            alpha = _ALPHA_MAX
        x, f, g = x_new, f_new, g_new
        history.append(f)
        if len(history) > _NONMONOTONE_MEMORY:
            history.pop(0)

    return BoundSolveResult(x, f, ITERATION_LIMIT, iter_cap, n_evals, alpha)


def _al_value_grad(sub: ElasticSubproblem, mu: Vector, rho_in: float):
    """Closures for the row-penalized objective of the lifted subproblem.

    value keeps the point it saw last with the slack-form residual computed
    there, and value_grad at that point reuses both, so one kernel trial plus
    the gradient at the accepted point calls each of f, c, g and J once.
    """
    last_u = last_val = last_r = last_rows = None

    def value(u: Vector) -> float:
        nonlocal last_u, last_val, last_r, last_rows
        obj, last_r = sub.evaluate(u)
        last_rows = sub.row_residual(u)
        last_val = obj - float(mu @ last_rows) + 0.5 * rho_in * float(last_rows @ last_rows)
        last_u = u
        return last_val

    def value_grad(u: Vector) -> tuple[float, Vector]:
        if u is not last_u:
            value(u)
        grad = sub.gradient(u, last_r) + sub.rows_t(rho_in * last_rows - mu)
        return last_val, grad

    return value, value_grad


def _finalize(sub: ElasticSubproblem, u: Vector, mu_hat: Vector, omega: float,
              status: str, iters: int, evals: int,
              merit_path: list[float]) -> SubproblemSolution:
    x_ext, v, w = sub.split(u)
    # shrinking both elastics by their common part keeps v - w (hence the row
    # residual) and can only lower the objective; it restores the exact
    # complementarity min(v, w) = 0 that a zero price cannot enforce
    common = np.minimum(v, w)
    v = v - common
    w = w - common
    delta_y = np.array(mu_hat, dtype=float)
    # elastic-row multipliers must respect the sigma + omega box; clip the
    # rare numerical overshoot and recompute z so the triple stays consistent
    m_c = sub.lin.sf.m_c
    cap = sub.sigma_k + omega
    delta_y[:m_c] = np.clip(delta_y[:m_c], -cap, cap)
    grad_l = sub.gradient(u)[:sub.n_ext]
    z = grad_l - sub.lin.J_k.T @ delta_y
    return SubproblemSolution(
        x_star=np.array(x_ext), delta_y=delta_y, z_star=z,
        v_star=np.array(v), w_star=np.array(w), status=status,
        inner_iterations=iters, function_evals=evals,
        al_merit_path=merit_path)


def solve_lc(sub: ElasticSubproblem, opts: InnerOptions,
             warm_start: SubproblemSolution | None = None) -> SubproblemSolution:
    """Solve the lifted elastic subproblem to the relaxed conditions.

    Row multipliers follow the classic augmented Lagrangian update: a cycle
    whose residual shrinks by a factor of ten accepts the shifted estimate,
    any other cycle raises the row penalty instead.
    """
    sf = sub.lin.sf
    m = sub.m
    if warm_start is not None and warm_start.x_star.shape == (sub.n_ext,):
        x0 = warm_start.x_star
        mu = np.array(warm_start.delta_y, dtype=float)
    else:
        x0 = sub.lin.x_k
        mu = np.zeros(m)
    v0, w0 = optimal_elastics(sub.lin.cbar(x0))
    u = np.clip(np.concatenate([x0, v0, w0]), sub.lo, sub.hi)

    rho_in = opts.al_rho_init
    total_iters = 0
    total_evals = 0
    restarts = 0
    eta_j = 0.1
    omega_j = 1e-2
    alpha_carry: float | None = None
    merit_path: list[float] = []

    for _ in range(_MAX_CYCLES):
        # early multiplier cycles only need a rough stationary point; both
        # the feasibility target and the stationarity tolerance tighten as
        # cycles succeed, bottoming out at delta_lin and omega
        cycle_tol = max(opts.omega, omega_j)
        value, value_grad = _al_value_grad(sub, mu, rho_in)
        res = bound_solve(value, value_grad, sub.lo, sub.hi, u, tol=cycle_tol,
                          iter_cap=opts.max_inner_iters,
                          unbounded_objective=opts.unbounded_objective,
                          unbounded_norm=opts.unbounded_norm,
                          alpha0=alpha_carry)
        u = res.x
        alpha_carry = res.alpha
        total_iters += res.iterations
        total_evals += res.n_evals
        r = sub.row_residual(u)
        r_norm = float(np.abs(r).max(initial=0.0))
        mu_hat = mu - rho_in * r
        merit_path.append(res.f)

        if res.status == UNBOUNDED:
            return _finalize(sub, u, mu_hat, opts.omega, UNBOUNDED,
                             total_iters, total_evals, merit_path)
        if res.status == ITERATION_LIMIT:
            restarts += 1
            if restarts > opts.max_restarts:
                return _finalize(sub, u, mu_hat, opts.omega, ITERATION_LIMIT,
                                 total_iters, total_evals, merit_path)
            continue

        if r_norm <= opts.delta_lin and cycle_tol <= opts.omega:
            return _finalize(sub, u, mu_hat, opts.omega, CONVERGED,
                             total_iters, total_evals, merit_path)

        if r_norm <= eta_j:
            mu = mu_hat
            eta_j = max(0.1 * eta_j, 0.1 * opts.delta_lin)
            if r_norm <= opts.delta_lin:
                # rows already tight, only stationarity needs polishing
                omega_j = opts.omega
            else:
                omega_j = max(0.1 * omega_j, opts.omega)
        else:
            rho_in *= opts.al_rho_growth
            if rho_in > _AL_RHO_CAP:
                return _finalize(sub, u, mu_hat, opts.omega, ITERATION_LIMIT,
                                 total_iters, total_evals, merit_path)
            # row curvature scales with the penalty, so shrink the carried
            # spectral steplength to match
            alpha_carry = alpha_carry / opts.al_rho_growth

    return _finalize(sub, u, mu - rho_in * sub.row_residual(u), opts.omega,
                     ITERATION_LIMIT, total_iters, total_evals, merit_path)


def verify_relaxed_kkt(sub: ElasticSubproblem, sol: SubproblemSolution,
                       omega: float, delta_lin: float) -> bool:
    """Check the relaxed subproblem conditions on a returned triple."""
    u = np.concatenate([sol.x_star, sol.v_star, sol.w_star])
    slack = 1e-9 * (1.0 + np.abs(u).max(initial=0.0))
    if np.any(u < sub.lo - slack) or np.any(u > sub.hi + slack):
        return False
    r = sub.row_residual(u)
    if np.abs(r).max(initial=0.0) > delta_lin + 1e-12:
        return False
    grad_l = sub.gradient(u)[:sub.n_ext]
    z_def = grad_l - sub.lin.J_k.T @ sol.delta_y
    if np.abs(z_def - sol.z_star).max(initial=0.0) > 1e-8 * (1.0 + np.abs(z_def).max(initial=0.0)):
        return False
    z_lifted = np.concatenate([sol.z_star,
                               sub.sigma_k - sol.delta_y,
                               sub.sigma_k + sol.delta_y])
    comp = comp_measure(u, z_lifted, sub.lo, sub.hi)
    if np.abs(comp).max(initial=0.0) > omega + 1e-12:
        return False
    m_c = sub.lin.sf.m_c
    dy_elastic = np.abs(sol.delta_y[:m_c]).max(initial=0.0)
    return dy_elastic <= sub.sigma_k + omega + 1e-12


def solve_proximal(sf: SlackForm, x_tilde: Vector, variant: str = "pp2",
                   tol: float = 1e-2, delta_lin: float = 1e-6) -> Vector:
    """Find a starting point near x_tilde inside the bounds and linear rows.

    pp2 minimizes (1/2)||x - x_tilde||^2, pp1 minimizes ||x - x_tilde||_1,
    both subject to the box and the linear rows only; the optimality
    tolerance is loose since any nearby feasible point serves.  Raises
    PpInfeasible when no such point exists.
    """
    if variant not in ("pp1", "pp2"):
        raise ValueError(f"unknown proximal variant: {variant!r}")
    nlp = sf.nlp
    n, m_A = nlp.n, nlp.m_A
    lx, ux = nlp.bounds_x
    x_tilde = np.clip(np.asarray(x_tilde, dtype=float).reshape(n), lx, ux)
    if m_A == 0:
        return sf.embed(x_tilde)

    lA, uA = nlp.bounds_A
    A = nlp.A
    if variant == "pp2":
        # variables (x, s_A), rows A x - s_A = 0
        lo = np.concatenate([lx, lA])
        hi = np.concatenate([ux, uA])
        u = np.concatenate([x_tilde, np.clip(A @ x_tilde, lA, uA)])

        def base_grad(u_):
            d = u_[:n] - x_tilde
            return 0.5 * float(d @ d), np.concatenate([d, np.zeros(m_A)])

        def rows(u_):
            return A @ u_[:n] - u_[n:]

        Rt = np.hstack([A, -np.eye(m_A)])
    else:
        # variables (x, p, q, s_A), rows x - p + q = x_tilde and A x - s_A = 0
        big = np.inf
        lo = np.concatenate([lx, np.zeros(2 * n), lA])
        hi = np.concatenate([ux, np.full(2 * n, big), uA])
        u = np.concatenate([x_tilde, np.zeros(2 * n), np.clip(A @ x_tilde, lA, uA)])

        def base_grad(u_):
            p, q = u_[n:2 * n], u_[2 * n:3 * n]
            grad = np.concatenate([np.zeros(n), np.ones(2 * n), np.zeros(m_A)])
            return float(np.sum(p) + np.sum(q)), grad

        def rows(u_):
            x_, p, q, s = u_[:n], u_[n:2 * n], u_[2 * n:3 * n], u_[3 * n:]
            return np.concatenate([x_ - p + q - x_tilde, A @ x_ - s])

        Rt = np.zeros((n + m_A, 3 * n + m_A))
        Rt[:n, :n] = np.eye(n)
        Rt[:n, n:2 * n] = -np.eye(n)
        Rt[:n, 2 * n:3 * n] = np.eye(n)
        Rt[n:, :n] = A
        Rt[n:, 3 * n:] = -np.eye(m_A)

    mu = np.zeros(Rt.shape[0])
    rho = 10.0
    r_prev = np.inf
    for _ in range(50):
        def value(u_):
            r = rows(u_)
            return base_grad(u_)[0] - float(mu @ r) + 0.5 * rho * float(r @ r)

        def value_grad(u_):
            val, grad = base_grad(u_)
            r = rows(u_)
            val = val - float(mu @ r) + 0.5 * rho * float(r @ r)
            return val, grad + Rt.T @ (rho * r - mu)

        res = bound_solve(value, value_grad, lo, hi, u, tol=min(tol, 1e-2) * 0.1,
                          iter_cap=5000)
        u = res.x
        r = rows(u)
        r_norm = float(np.abs(r).max(initial=0.0))
        if r_norm <= delta_lin:
            x0 = u[:n]
            return sf.embed(np.clip(x0, lx, ux))
        if r_norm <= 0.1 * r_prev:
            mu = mu - rho * r
        else:
            rho *= 10.0
            if rho > 1e12:
                raise PpInfeasible(
                    f"no point satisfies the bounds and linear rows "
                    f"(best residual {r_norm:.3e})")
        r_prev = r_norm
    raise PpInfeasible(f"proximal start stalled with residual {r_norm:.3e}")
