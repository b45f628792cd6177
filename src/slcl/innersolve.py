"""Inner solver for the lifted elastic subproblems and the proximal start.

Linear rows over a box are enforced by one augmented Lagrangian loop: each
cycle minimizes the row-penalized objective over the box with a projected
BFGS method (two-metric projection with an epsilon-active set and a
nonmonotone Armijo search along the projection arc, spectral projected
gradient as its first step and fallback), then updates the row multipliers
or raises the row penalty depending on how much the row residual shrank.
The BFGS matrix carries from cycle to cycle, exactly corrected for a raised
penalty, and each cycle starts from the value and gradient the previous one
ended on.  The elastic subproblem and the proximal start both run that
loop.  On success the subproblem triple satisfies its relaxed optimality
conditions: bounds hold, rows hold to delta_lin, z is the reduced gradient
at delta_y, complementarity is within omega, and the elastic-row
multipliers obey the sigma + omega box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linearize import ElasticSubproblem, optimal_elastics
from .merit import comp_measure
from .model import Matrix, SlackForm, Vector

CONVERGED = "Converged"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"

_NONMONOTONE_MEMORY = 10
_SUFF_DECREASE = 1e-4
_BACKTRACK = 0.5
_ALPHA_MIN = 1e-10
_ALPHA_MAX = 1e10
_EPS_ACTIVE = 1e-3
_LAM_MIN = 1e-14
_ROUNDOFF = 4.0 * np.finfo(float).eps
_MAX_INNER_ITERS = 5000
_UNBOUNDED_OBJECTIVE = -1e15
_UNBOUNDED_NORM = 1e10
_MAX_CYCLES = 60
_MAX_RESTARTS = 3
_AL_RHO_INIT = 10.0
_AL_RHO_GROWTH = 10.0
_AL_RHO_CAP = 1e14
# the proximal start only needs a nearby point that meets the linear rows
_PP_OMEGA = 1e-3
_PP_DELTA_LIN = 1e-6


class PpInfeasible(Exception):
    """The proximal start problem has no point satisfying bounds and linear rows."""


@dataclass
class InnerOptions:
    omega: float = 1e-6
    delta_lin: float = 1e-6


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
    hess: Matrix | None = None


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
                iter_cap: int = _MAX_INNER_ITERS,
                unbounded_objective: float = _UNBOUNDED_OBJECTIVE,
                unbounded_norm: float = _UNBOUNDED_NORM,
                alpha0: float | None = None,
                hess0: Matrix | None = None) -> BoundSolveResult:
    """Minimize a smooth function over a box by projected BFGS.

    Each iteration splits the movable coordinates into an epsilon-active set
    (within epsilon of a bound the gradient pushes towards) and a free set.
    The active coordinates head for their bounds, the free ones take the
    quasi-Newton step that solves the free block of the BFGS matrix B, and a
    nonmonotone Armijo search runs along the projection of that step onto
    the box (two-metric projection, Bertsekas 1982).  Without hess0 the
    first step is a spectral projected-gradient step, and B starts as I/alpha
    at the Barzilai-Borwein steplength alpha of that step.  The same step is
    the fallback when the quasi-Newton search fails, which also restarts B.
    A step along which the gradient does not change drops B and returns to
    long spectral steps.  Coordinates with lo == hi never move.

    Terminates when the projected gradient infinity norm drops to tol, when
    the iterate certifies unboundedness (objective below unbounded_objective
    or iterate norm beyond unbounded_norm while still descending), or at the
    iteration cap.  alpha0 seeds the spectral steplength and hess0 the BFGS
    matrix, letting callers reuse curvature learned on a previous call; the
    result returns both as alpha and hess.

    value is called at every line-search trial point and value_grad at the
    start point and at each accepted trial point, right after value was
    called there, so a caller can keep what value computed.  A trial with a
    non-finite value fails and is backtracked; a non-finite value or gradient
    at the start or an accepted point raises ValueError.  n_evals counts the
    points evaluated (the start and every trial), iterations the accepted
    points.
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
    B = None if hess0 is None else np.array(hess0, dtype=float)
    movable = lo < hi
    accepted = 0

    def search(d: Vector):
        """Nonmonotone Armijo backtracking along the projection of x + lam d.

        Returns the accepted point and value, or None when the search fails.
        """
        nonlocal n_evals
        f_ref = max(history[-_NONMONOTONE_MEMORY:])
        lam = 1.0
        while lam >= _LAM_MIN:
            x_new = np.clip(x + lam * d, lo, hi)
            s = x_new - x
            gts = float(g @ s)
            if not gts < 0.0 or (np.abs(s) <= _ROUNDOFF * np.abs(x)).all():
                # no descent along the arc, or a step lost in rounding
                return None
            f_new = value(x_new)
            n_evals += 1
            if np.isfinite(f_new) and f_new <= f_ref + _SUFF_DECREASE * gts:
                return x_new, f_new
            lam *= _BACKTRACK
        return None

    for _ in range(iter_cap):
        pg = projected_gradient(x, g, lo, hi)
        pg_norm = np.abs(pg).max(initial=0.0)
        if pg_norm <= tol:
            return BoundSolveResult(x, f, CONVERGED, accepted, n_evals, alpha, B)

        step = None
        if B is not None:
            eps = min(_EPS_ACTIVE, pg_norm)
            to_lo = (x - lo <= eps) & (g > 0.0)
            to_hi = (hi - x <= eps) & (g < 0.0)
            free = np.flatnonzero(movable & ~to_lo & ~to_hi)
            d = np.zeros_like(x)
            d[to_lo] = (lo - x)[to_lo]
            d[to_hi] = (hi - x)[to_hi]
            try:
                d[free] = np.linalg.solve(B[free[:, None], free], -g[free])
            except np.linalg.LinAlgError:
                pass
            else:
                step = search(d)
            if step is None:
                # B misleads here; restart it from the spectral scaling
                B = None

        if step is None:
            d = np.clip(x - alpha * g, lo, hi) - x
            if float(g @ d) > -1e-30:
                # the spectral step produced no descent direction; the point
                # is stationary to working precision
                status = CONVERGED if pg_norm <= max(tol, 1e-9) else ITERATION_LIMIT
                return BoundSolveResult(x, f, status, accepted, n_evals, alpha, B)
            step = search(d)
            if step is None:
                # line search collapsed without progress; accept the point when
                # it is stationary to within an order of the requested tolerance
                status = CONVERGED if pg_norm <= 10 * tol else ITERATION_LIMIT
                return BoundSolveResult(x, f, status, accepted, n_evals, alpha, B)

        x_new, f_new = step
        if f_new < unbounded_objective or np.abs(x_new).max() > unbounded_norm:
            return BoundSolveResult(x_new, f_new, UNBOUNDED, accepted + 1,
                                    n_evals, alpha, B)

        _, g_new = value_grad(x_new)
        _check_finite("accepted", x_new, g_new)
        accepted += 1
        s = x_new - x
        y = g_new - g
        sty = float(s @ y)
        if not y.any():
            # no curvature along s: the function is linear there, so take
            # long projected-gradient steps again
            alpha, B = _ALPHA_MAX, None
        elif sty > 1e-30:
            alpha = min(max(float(s @ s) / sty, _ALPHA_MIN), _ALPHA_MAX)
            if B is None:
                B = np.diag(np.full(x.size, 1.0 / alpha))
            Bs = B @ s
            U = np.array([y, Bs])
            B += (U.T * np.array([1.0 / sty, -1.0 / float(s @ Bs)])) @ U
        else:
            alpha = _ALPHA_MAX
        x, f, g = x_new, f_new, g_new
        history.append(f)
        if len(history) > _NONMONOTONE_MEMORY:
            history.pop(0)

    return BoundSolveResult(x, f, ITERATION_LIMIT, accepted, n_evals, alpha, B)


@dataclass
class _Point:
    """A point with the objective value, aux, rows and objective gradient there."""

    u: Vector | None = None
    obj: float = 0.0
    aux: object = None
    rows: Vector | None = None
    grad: Vector | None = None

    def at(self, u: Vector) -> bool:
        return self.u is not None and (u is self.u or np.array_equal(u, self.u))


def _al_value_grad(prob, mu: Vector, rho_in: float, end: _Point | None = None):
    """Closures for the row-penalized objective of a problem with linear rows.

    value keeps the point it saw last with what prob.evaluate returned there
    (for the elastic subproblem, the slack-form residual), and value_grad at
    that point reuses both, so one kernel trial plus the gradient at the
    accepted point calls each of f, c, g and J once.  end holds the last
    point value_grad was called at, with its objective gradient; value_grad
    there combines it with this mu and rho_in and calls nothing, which lets
    a cycle start where the previous one ended for free.
    """
    end = _Point() if end is None else end
    trial = _Point()

    def merit(p: _Point) -> float:
        return p.obj - float(mu @ p.rows) + 0.5 * rho_in * float(p.rows @ p.rows)

    def value(u: Vector) -> float:
        trial.obj, trial.aux = prob.evaluate(u)
        trial.rows = prob.row_residual(u)
        trial.u = u
        return merit(trial)

    def value_grad(u: Vector) -> tuple[float, Vector]:
        if u is trial.u or not end.at(u):
            if u is not trial.u:
                value(u)
            end.u, end.obj, end.rows = u, trial.obj, trial.rows
            end.grad = prob.gradient(u, trial.aux)
        return merit(end), end.grad + prob.rows_t(rho_in * end.rows - mu)

    return value, value_grad


@dataclass
class _CycleResult:
    u: Vector
    mu_hat: Vector
    end: _Point
    status: str = ITERATION_LIMIT
    iterations: int = 0
    n_evals: int = 0
    merit_path: list[float] = field(default_factory=list)


def _al_cycles(prob, u: Vector, mu: Vector, omega: float,
               delta_lin: float) -> _CycleResult:
    """Minimize over a box subject to linear rows by augmented Lagrangian cycles.

    prob exposes lo, hi, evaluate(u) -> (value, aux), gradient(u, aux),
    row_residual(u) and rows_t(q) = R^T q for the rows R u + offset.  Row
    multipliers follow the classic update: a cycle whose residual meets the
    current feasibility target accepts the shifted estimate, any other cycle
    raises the row penalty instead.  Converged means the rows hold to
    delta_lin at a point stationary to omega; mu_hat is mu - rho * rows there.

    Each cycle starts where the last one ended, from the objective, rows and
    gradient kept there, and with the kernel's BFGS matrix: a multiplier
    update leaves the Hessian of the row-penalized objective unchanged, and
    raising the penalty by d_rho adds d_rho * R^T R to it.
    """
    rho_in = _AL_RHO_INIT
    end = _Point()
    out = _CycleResult(u=u, mu_hat=mu, end=end)
    restarts = 0
    eta_j = 0.1
    omega_j = 1e-2
    alpha_carry: float | None = None
    hess_carry: Matrix | None = None
    R = np.array([prob.rows_t(q) for q in np.identity(mu.size)]).reshape(mu.size, u.size)
    rows_gram = R.T @ R

    for _ in range(_MAX_CYCLES):
        # early multiplier cycles only need a rough stationary point; both
        # the feasibility target and the stationarity tolerance tighten as
        # cycles succeed, bottoming out at delta_lin and omega
        cycle_tol = max(omega, omega_j)
        value, value_grad = _al_value_grad(prob, mu, rho_in, end)
        res = bound_solve(value, value_grad, prob.lo, prob.hi, out.u,
                          tol=cycle_tol, alpha0=alpha_carry, hess0=hess_carry)
        out.u = res.x
        alpha_carry, hess_carry = res.alpha, res.hess
        out.iterations += res.iterations
        out.n_evals += res.n_evals
        r = end.rows if end.at(out.u) else prob.row_residual(out.u)
        r_norm = float(np.abs(r).max(initial=0.0))
        out.mu_hat = mu - rho_in * r
        out.merit_path.append(res.f)

        if res.status == UNBOUNDED:
            out.status = UNBOUNDED
            return out
        if res.status == ITERATION_LIMIT:
            restarts += 1
            if restarts > _MAX_RESTARTS:
                return out
            continue

        if r_norm <= delta_lin and cycle_tol <= omega:
            out.status = CONVERGED
            return out

        if r_norm <= eta_j:
            mu = out.mu_hat
            eta_j = max(0.1 * eta_j, 0.1 * delta_lin)
            if r_norm <= delta_lin:
                # rows already tight, only stationarity needs polishing
                omega_j = omega
            else:
                omega_j = max(0.1 * omega_j, omega)
        else:
            if hess_carry is not None:
                hess_carry += (_AL_RHO_GROWTH - 1.0) * rho_in * rows_gram
            rho_in *= _AL_RHO_GROWTH
            if rho_in > _AL_RHO_CAP:
                return out
            # row curvature scales with the penalty, so shrink the carried
            # spectral steplength to match
            alpha_carry = alpha_carry / _AL_RHO_GROWTH

    out.mu_hat = mu - rho_in * r
    return out


def _finalize(sub: ElasticSubproblem, res: _CycleResult,
              omega: float) -> SubproblemSolution:
    x_ext, v, w = sub.split(res.u)
    # shrinking both elastics by their common part keeps v - w (hence the row
    # residual) and can only lower the objective; it restores the exact
    # complementarity min(v, w) = 0 that a zero price cannot enforce
    common = np.minimum(v, w)
    v = v - common
    w = w - common
    delta_y = np.array(res.mu_hat, dtype=float)
    # elastic-row multipliers must respect the sigma + omega box; clip the
    # rare numerical overshoot and recompute z so the triple stays consistent
    m_c = sub.lin.sf.m_c
    cap = sub.sigma_k + omega
    delta_y[:m_c] = np.clip(delta_y[:m_c], -cap, cap)
    grad = res.end.grad if res.end.at(res.u) else sub.gradient(res.u)
    z = grad[:sub.n_ext] - sub.lin.J_k.T @ delta_y
    return SubproblemSolution(
        x_star=np.array(x_ext), delta_y=delta_y, z_star=z,
        v_star=np.array(v), w_star=np.array(w), status=res.status,
        inner_iterations=res.iterations, function_evals=res.n_evals,
        al_merit_path=res.merit_path)


def solve_lc(sub: ElasticSubproblem, opts: InnerOptions,
             warm_start: SubproblemSolution | None = None) -> SubproblemSolution:
    """Solve the lifted elastic subproblem to the relaxed conditions.

    The cycles start from the warm start's point and multipliers when its
    shape fits, else from the base point with zero multipliers, with the
    elastics at their cheapest values for the linearized residual there.
    """
    if warm_start is not None and warm_start.x_star.shape == (sub.n_ext,):
        x0 = warm_start.x_star
        mu = np.array(warm_start.delta_y, dtype=float)
    else:
        x0 = sub.lin.x_k
        mu = np.zeros(sub.m)
    v0, w0 = optimal_elastics(sub.lin.cbar(x0))
    u = np.clip(np.concatenate([x0, v0, w0]), sub.lo, sub.hi)
    res = _al_cycles(sub, u, mu, opts.omega, opts.delta_lin)
    return _finalize(sub, res, opts.omega)


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


@dataclass
class _ProximalProblem:
    """min (1/2)||x - x_tilde||^2 over u = (x, s_A) in a box, rows A x - s_A."""

    A: Matrix
    x_tilde: Vector
    lo: Vector
    hi: Vector

    def evaluate(self, u: Vector) -> tuple[float, Vector]:
        d = u[:self.x_tilde.size] - self.x_tilde
        return 0.5 * float(d @ d), d

    def gradient(self, u: Vector, d: Vector) -> Vector:
        return np.concatenate([d, np.zeros(self.A.shape[0])])

    def row_residual(self, u: Vector) -> Vector:
        n = self.x_tilde.size
        return self.A @ u[:n] - u[n:]

    def rows_t(self, q: Vector) -> Vector:
        return np.concatenate([self.A.T @ q, -q])


def solve_proximal(sf: SlackForm, x_tilde: Vector) -> Vector:
    """Project x_tilde onto the bounds and linear rows; return it embedded.

    Minimizes (1/2)||x - x_tilde||^2 subject to the box and the linear rows
    only, by the same augmented Lagrangian loop as the subproblems; the
    stationarity tolerance is loose since any nearby feasible point serves.
    Raises PpInfeasible when the loop cannot meet the rows.
    """
    nlp = sf.nlp
    lx, ux = nlp.bounds_x
    x_tilde = np.clip(np.asarray(x_tilde, dtype=float).reshape(nlp.n), lx, ux)
    if nlp.m_A == 0:
        return sf.embed(x_tilde)

    lA, uA = nlp.bounds_A
    prob = _ProximalProblem(A=nlp.A, x_tilde=x_tilde,
                            lo=np.concatenate([lx, lA]),
                            hi=np.concatenate([ux, uA]))
    u = np.concatenate([x_tilde, np.clip(nlp.A @ x_tilde, lA, uA)])
    res = _al_cycles(prob, u, np.zeros(nlp.m_A), _PP_OMEGA, _PP_DELTA_LIN)
    if res.status != CONVERGED:
        r_norm = float(np.abs(prob.row_residual(res.u)).max(initial=0.0))
        raise PpInfeasible(
            f"no point satisfies the bounds and linear rows "
            f"(best residual {r_norm:.3e})")
    return sf.embed(np.clip(res.u[:nlp.n], lx, ux))
