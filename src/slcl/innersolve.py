"""Inner solver for the lifted elastic subproblems and the proximal start.

One kernel minimizes a smooth function over a box subject to linear rows
R u + offset = 0 and keeps the rows satisfied from a start that meets them.
It is an active-set quasi-Newton method: each iteration solves the KKT
system of the free variables and the rows with a dense BFGS matrix, which
gives the step and the row multipliers together; a ratio test stops the
step at the first bound it hits, and that bound joins the working set; once
the free variables are stationary, a bound whose multiplier has the wrong
sign leaves it.  The elastic subproblem is one kernel call, started on its
linearized rows where one step reaches them and from the BFGS matrix the
previous subproblem ended with; the proximal start is at most two calls.
Like the user routine of MINOS and SNOPT, the kernel's evaluate returns a
point's value together with what computing it left behind (for the elastic
subproblem, the slack-form residual), and the gradient at an accepted point
takes that instead of computing it again.
On success the subproblem triple satisfies its relaxed optimality
conditions: bounds hold, rows hold to roundoff, z is the reduced gradient
at delta_y, complementarity is within omega, and the elastic-row
multipliers obey the sigma + omega box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linearize import ElasticSubproblem, Linearization, optimal_elastics
from .merit import comp_measure
from .model import Matrix, SlackForm, Vector

CONVERGED = "Converged"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"

_SUFF_DECREASE = 1e-4
_BACKTRACK = 0.5
_LAM_MIN = 1e-14
_ROUNDOFF = 4.0 * np.finfo(float).eps
_F_PRECISION = np.finfo(float).eps ** 0.8
_MAX_INNER_ITERS = 5000
_UNBOUNDED_OBJECTIVE = -1e15
_UNBOUNDED_NORM = 1e10
# stationarity of both proximal phases: the elastic phase stops short of a
# feasible point when a row scaling makes its reduced costs smaller than this
_PP_OMEGA = 1e-9


class PpInfeasible(Exception):
    """The proximal start problem has no point satisfying bounds and linear rows."""


@dataclass
class SubproblemSolution:
    x_star: Vector
    delta_y: Vector
    z_star: Vector
    v_star: Vector
    w_star: Vector
    status: str
    inner_iterations: int
    # the kernel's last BFGS matrix and the penalty it was built for
    hess: Matrix | None = None
    rho: float = 0.0


@dataclass
class BoundSolveResult:
    """The last point with its value, gradient g, row multipliers y and
    BFGS matrix."""

    x: Vector
    f: float
    status: str
    iterations: int
    n_evals: int
    g: Vector
    y: Vector
    hess: Matrix


def _check_finite(where: str, x: Vector, *values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"non-finite value or gradient at the {where} point x={x!r}")


def _kkt_step(B: Matrix, R: Matrix, free: np.ndarray, g: Vector,
              r: Vector) -> tuple[Vector, Vector]:
    """Step d and row multipliers y of min g'd + d'Bd/2 s.t. R d = -r.

    Only the free coordinates move; g + B d = R^T y on them.  A singular
    system (dependent rows on the free set) takes the least-squares solution.
    """
    nf = free.size
    size = nf + R.shape[0]
    RF = R[:, free]
    K = np.zeros((size, size))
    K[:nf, :nf] = B[np.ix_(free, free)]
    K[:nf, nf:] = RF.T
    K[nf:, :nf] = RF
    rhs = np.concatenate([-g[free], -r])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    d = np.zeros_like(g)
    d[free] = sol[:nf]
    return d, -sol[nf:]


def _ratio_test(x: Vector, d: Vector, lo: Vector,
                hi: Vector) -> tuple[int, float, float]:
    """First bound met along x + alpha d: its index, alpha and value."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(d < 0.0, (lo - x) / d,
                          np.where(d > 0.0, (hi - x) / d, np.inf))
    i = int(np.argmin(ratios))
    return i, float(ratios[i]), float(lo[i] if d[i] < 0.0 else hi[i])


def bound_solve(evaluate: Callable[[Vector], tuple[float, object]],
                gradient: Callable[[Vector, object], Vector],
                lo: Vector, hi: Vector, start: Vector, tol: float,
                rows: Matrix | None = None, offset: Vector | None = None,
                iter_cap: int = _MAX_INNER_ITERS,
                hess: Matrix | None = None) -> BoundSolveResult:
    """Minimize a smooth function over a box subject to rows R u + offset = 0.

    An active-set quasi-Newton method.  The working set holds the bounds the
    iterate sits on, starting with those of the start point; coordinates
    with lo == hi never leave it.  Each iteration solves the KKT system of
    the free coordinates and the rows with a dense BFGS matrix B, which
    gives the step and the row multipliers y together, and runs an Armijo
    search along the step cut at the first bound it meets; a step accepted
    at that bound adds the bound to the working set, and a bound already
    within rounding of the iterate joins without a search.  A trial whose
    predicted decrease is below the precision of the value, eps^0.8 (1 + |f|),
    passes when the value rises by no more than that.  Once the free
    coordinates are stationary, the working bound whose multiplier g - R^T y
    has the worst wrong sign is released.  B starts as hess, or as the
    identity without one, takes Powell-damped updates and resets to the
    identity when a search fails or B has become singular along a step; a
    failed search from the identity ends the solve.  The rows must hold at
    the start; each step also cancels their rounding drift.  Without rows
    this is a box-constrained quasi-Newton method.

    Converged means the two-sided complementarity of g - R^T y against the
    box (see merit.comp_measure) is at most tol.  Unbounded means an
    accepted point has an objective below -1e15 or a coordinate beyond
    1e10.  IterationLimit means the cap or a failed search ended the solve.

    evaluate(u) returns the value at u with whatever the caller wants to
    keep from computing it (aux); it is called at the start point and at
    every line-search trial point.  gradient(u, aux) is called at the start
    point and at each accepted trial point, with the aux evaluate returned
    there.  A trial with a non-finite value fails and is backtracked; a
    non-finite value or gradient at the start or an accepted point raises
    ValueError.  n_evals counts the points evaluated (the start and every
    trial), iterations the accepted points.
    """
    x = np.clip(np.array(start, dtype=float), lo, hi)
    R = np.zeros((0, x.size)) if rows is None else rows
    offset = np.zeros(R.shape[0]) if offset is None else offset
    f, aux = evaluate(x)
    g = gradient(x, aux)
    _check_finite("start", x, f, g)
    n_evals = 1
    accepted = 0
    movable = lo < hi
    at_lo = x == lo
    at_hi = (x == hi) & ~at_lo
    identity = np.identity(x.size)
    B = identity if hess is None else hess
    status = ITERATION_LIMIT

    for _ in range(iter_cap):
        free = np.flatnonzero(~(at_lo | at_hi))
        d, y = _kkt_step(B, R, free, g, R @ x + offset)
        z = g - R.T @ y
        if np.abs(comp_measure(x, z, lo, hi)).max(initial=0.0) <= tol:
            status = CONVERGED
            break
        if np.abs(z[free]).max(initial=0.0) <= tol:
            # stationary on this face: release the worst wrong-signed bound
            wrong = np.where(at_lo, -z, z) * ((at_lo | at_hi) & movable)
            i = int(np.argmax(wrong))
            at_lo[i] = at_hi[i] = False
            continue

        i, alpha_max, bound_i = _ratio_test(x, d, lo, hi)
        if alpha_max < 1.0 and abs(bound_i - x[i]) <= _ROUNDOFF * (1.0 + abs(x[i])):
            x = x.copy()
            x[i] = bound_i
            at_lo[i], at_hi[i] = d[i] < 0.0, d[i] > 0.0
            continue

        step = None
        gtd = float(g @ d)
        # a decrease below the precision of the value cannot be seen, so a
        # step predicted to make one passes when the value holds level
        noise = _F_PRECISION * (1.0 + abs(f))
        alpha = min(1.0, alpha_max)
        while gtd < 0.0:
            x_new = np.clip(x + alpha * d, lo, hi)
            if alpha == alpha_max:
                x_new[i] = bound_i
            if (np.abs(x_new - x) <= _ROUNDOFF * np.abs(x)).all():
                break  # the step is lost in rounding
            f_new, aux = evaluate(x_new)
            n_evals += 1
            if np.isfinite(f_new) and (
                    f_new <= f + _SUFF_DECREASE * alpha * gtd
                    or (-alpha * gtd <= noise and f_new <= f + noise)):
                step = x_new, f_new, aux, alpha == alpha_max
                break
            alpha *= _BACKTRACK
            if alpha < _LAM_MIN:
                break
        if step is None:
            if B is identity:
                break
            B = identity
            continue

        x_new, f_new, aux, hit = step
        g_new = gradient(x_new, aux)
        _check_finite("accepted", x_new, g_new)
        accepted += 1
        if hit:
            at_lo[i], at_hi[i] = d[i] < 0.0, d[i] > 0.0
        s = x_new - x
        dg = g_new - g
        x, f, g = x_new, f_new, g_new
        if f < _UNBOUNDED_OBJECTIVE or np.abs(x).max() > _UNBOUNDED_NORM:
            status = UNBOUNDED
            break
        Bs = B @ s
        sBs = float(s @ Bs)
        if not sBs > _ROUNDOFF * B.diagonal().max() * float(s @ s):
            # B is singular along s to working precision
            B = identity
            continue
        sdg = float(s @ dg)
        if sdg < 0.2 * sBs:
            # Powell damping keeps B positive definite; along a function
            # that is linear on s it cuts the curvature there to a fifth,
            # so the steps grow until a bound blocks them
            theta = 0.8 * sBs / (sBs - sdg)
            dg = theta * dg + (1.0 - theta) * Bs
            sdg = 0.2 * sBs
        U = np.array([dg, Bs])
        B = B + (U.T * np.array([1.0 / sdg, -1.0 / sBs])) @ U

    return BoundSolveResult(x, f, status, accepted, n_evals, g, y, B)


def _finalize(sub: ElasticSubproblem, res: BoundSolveResult,
              omega: float) -> SubproblemSolution:
    x_ext, v, w = sub.split(res.x)
    # shrinking both elastics by their common part keeps v - w (hence the row
    # residual) and can only lower the objective; it restores the exact
    # complementarity min(v, w) = 0 that a zero price cannot enforce
    common = np.minimum(v, w)
    v = v - common
    w = w - common
    delta_y = np.array(res.y, dtype=float)
    # elastic-row multipliers must respect the sigma + omega box; clip the
    # rare numerical overshoot and recompute z so the triple stays consistent
    m_c = sub.lin.sf.m_c
    cap = sub.sigma_k + omega
    delta_y[:m_c] = np.clip(delta_y[:m_c], -cap, cap)
    z = res.g[:sub.n_ext] - sub.lin.J_k.T @ delta_y
    return SubproblemSolution(
        x_star=np.array(x_ext), delta_y=delta_y, z_star=z,
        v_star=np.array(v), w_star=np.array(w), status=res.status,
        inner_iterations=res.iterations, hess=res.hess, rho=sub.rho_k)


def _row_rounding(lin: Linearization, x_ext: Vector) -> Vector:
    """Rounding level of each linearized row J_k x + offset at x_ext."""
    scale = np.abs(lin.J_k) @ np.abs(x_ext) + np.abs(lin.offset)
    return _ROUNDOFF * (1.0 + scale)


def _step_to_rows(lin: Linearization, x_ext: Vector) -> Vector:
    """x_ext moved by one least-squares step toward J_k x + offset = 0.

    Only the coordinates off their bounds move, and the step stops at the
    first bound it meets.  x_ext comes back unchanged when the step would
    leave a linear row, whose elastics are pinned at zero, violated beyond
    rounding, as free columns of deficient rank can.
    """
    lo, hi = lin.sf.lo, lin.sf.hi
    free = np.flatnonzero((lo < x_ext) & (x_ext < hi))
    r = lin.cbar(x_ext)
    d = np.zeros_like(x_ext)
    d[free] = np.linalg.lstsq(lin.J_k[:, free], -r, rcond=None)[0]
    i, alpha_max, bound_i = _ratio_test(x_ext, d, lo, hi)
    x_new = np.clip(x_ext + min(1.0, alpha_max) * d, lo, hi)
    if alpha_max <= 1.0:
        x_new[i] = bound_i
    m_c = lin.sf.m_c
    kept = np.maximum(np.abs(r[m_c:]), _row_rounding(lin, x_new)[m_c:])
    if np.any(np.abs(lin.cbar(x_new)[m_c:]) > kept):
        return x_ext
    return x_new


def solve_lc(sub: ElasticSubproblem, omega: float,
             warm_start: SubproblemSolution | None = None) -> SubproblemSolution:
    """Solve the lifted elastic subproblem to the relaxed conditions.

    The kernel starts from the warm start's point when its shape fits, else
    from the base point.  At the base point (the first major, or the one
    after an acceptance) it first takes one least-squares step toward the
    linearized rows (see _step_to_rows); a warm start elsewhere, the
    candidate of a rejected major, already meets this linearization.  The
    elastics start at their cheapest values for the linearized residual
    left there, taking residuals at rounding level as zero, so the rows hold
    from the start on.  The kernel also starts from the warm start's BFGS
    matrix when its shape fits, plus (rho_k - rho) J_k^T J_k on the x_ext
    block when the penalty has risen from the rho that matrix was built for.
    """
    lin, n_ext = sub.lin, sub.n_ext
    x0, hess = lin.x_k, None
    if warm_start is not None and warm_start.x_star.shape == (n_ext,):
        x0 = warm_start.x_star
        carried = warm_start.hess
        if carried is not None and carried.shape == (sub.n_lifted,) * 2:
            hess = carried
            if sub.rho_k > warm_start.rho:
                hess = carried.copy()
                hess[:n_ext, :n_ext] += ((sub.rho_k - warm_start.rho)
                                         * (lin.J_k.T @ lin.J_k))
    if np.array_equal(x0, lin.x_k):
        x0 = _step_to_rows(lin, x0)
    r = lin.cbar(x0)
    r[np.abs(r) <= _row_rounding(lin, x0)] = 0.0
    v0, w0 = optimal_elastics(r)
    u = np.clip(np.concatenate([x0, v0, w0]), sub.lo, sub.hi)
    res = bound_solve(sub.evaluate, sub.gradient, sub.lo, sub.hi, u, omega,
                      rows=sub.rows, offset=lin.offset, hess=hess)
    return _finalize(sub, res, omega)


def solve_proximal(sf: SlackForm, x_tilde: Vector) -> Vector:
    """Project x_tilde onto the bounds and linear rows; return it embedded.

    Minimizes (1/2)||x - x_tilde||^2 over u = (x, s_A) in the box subject to
    the rows A x - s_A = 0.  When the clipped start violates a row, a first
    kernel call minimizes the elastic sum of v + w on the rows
    A x - s_A + v - w = 0 to find a feasible point, and raises PpInfeasible
    when that sum stays above the rounding of the rows.
    """
    nlp = sf.nlp
    lx, ux = nlp.bounds_x
    x_tilde = np.clip(np.asarray(x_tilde, dtype=float).reshape(nlp.n), lx, ux)
    if nlp.m_A == 0:
        return sf.embed(x_tilde)

    n, m = nlp.n, nlp.m_A
    lA, uA = nlp.bounds_A
    lo = np.concatenate([lx, lA])
    hi = np.concatenate([ux, uA])
    rows = np.hstack([nlp.A, -np.identity(m)])
    u = np.concatenate([x_tilde, np.clip(nlp.A @ x_tilde, lA, uA)])
    r = rows @ u
    if r.any():
        v, w = optimal_elastics(r)
        cost = np.concatenate([np.zeros(n + m), np.ones(2 * m)])
        res = bound_solve(lambda q: (float(cost @ q), None),
                          lambda q, _: cost,
                          np.concatenate([lo, np.zeros(2 * m)]),
                          np.concatenate([hi, np.full(2 * m, np.inf)]),
                          np.concatenate([u, v, w]), _PP_OMEGA,
                          rows=np.hstack([rows, np.identity(m), -np.identity(m)]))
        u = res.x[:n + m]
        if res.f > _ROUNDOFF * (1.0 + float(np.sum(np.abs(rows) @ np.abs(u)))):
            raise PpInfeasible(
                f"no point satisfies the bounds and linear rows "
                f"(least elastic sum {res.f:.3e})")

    def evaluate(q: Vector) -> tuple[float, Vector]:
        d = q[:n] - x_tilde
        return 0.5 * float(d @ d), d

    res = bound_solve(evaluate, lambda q, d: np.concatenate([d, np.zeros(m)]),
                      lo, hi, u, _PP_OMEGA, rows=rows)
    return sf.embed(np.clip(res.x[:n], lx, ux))
