"""Inner solver for the lifted elastic subproblems and the proximal start.

One kernel minimizes a smooth function over a box subject to linear rows
R u + offset = 0 and keeps the rows satisfied from a start that meets them.
It is an active-set quasi-Newton method: each iteration solves the KKT
system of the free variables and the rows with a dense BFGS matrix, which
gives the step and the row multipliers together; a ratio test stops the
step at the first bound it hits, and that bound joins the working set; once
the free variables are stationary, a bound whose multiplier has the wrong
sign leaves it, and the line search tests the reduced slope, as MINOS's
does.  Every elastic subproblem is one kernel call, started on its
linearized rows where one step reaches them and from the BFGS matrix the
previous subproblem ended with; the step is the minimizer of that
matrix's quadratic model on the rows, as SNOPT's QP step is, with the
identity at the first major.  The proximal start is at most two calls, and
none from a clipped start that meets the linear rows.
Like the user routine of MINOS and SNOPT, the kernel's evaluate returns a
point's value together with what computing it left behind (for the elastic
subproblem, the point's record, holding its residual and f), and the
gradient at an accepted point takes that instead of computing it again.
A subproblem started at the base point reads the base record, and one
started at the previous kernel's candidate or start reads that record,
which each solution carries, so nothing is evaluated there again.
On success the subproblem triple satisfies its relaxed optimality
conditions: bounds hold, rows hold to roundoff, z is the reduced gradient
at delta_y, complementarity is within omega, and the elastic-row
multipliers obey the sigma + omega box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linearize import ElasticSubproblem, Linearization, optimal_elastics
from .merit import aug_lagrangian_grad, comp_measure
from .model import Matrix, NlpProblem, Vector

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
# stationarity of every proximal phase: the elastic phase stops short of a
# feasible point when a row scaling makes its reduced costs smaller than this
_PP_OMEGA = 1e-9


@dataclass
class SubproblemSolution:
    """A subproblem's solution: the candidate's record, point, whose x_k is
    x_ext at the kernel's last point, and delta_y, z_star, v_star, w_star."""

    point: Linearization
    delta_y: Vector
    z_star: Vector
    v_star: Vector
    w_star: Vector
    status: str
    inner_iterations: int
    # the kernel's last BFGS matrix and the penalty it was built for
    hess: Matrix
    rho: float
    # the record of the kernel's start point
    start: Linearization


@dataclass
class BoundSolveResult:
    """The last point with its value, gradient g, row multipliers y, BFGS
    matrix and aux (what evaluate returned there; None when the solve ended
    on a move of x onto a bound within rounding, and f and g are then from
    before that move)."""

    x: Vector
    f: float
    status: str
    iterations: int
    n_evals: int
    g: Vector
    y: Vector
    hess: Matrix
    aux: object


def _check_finite(where: str, x: Vector, g: Vector, f: float = 0.0) -> None:
    if not (math.isfinite(f) and np.isfinite(g).all()):
        raise ValueError(f"non-finite value or gradient at the {where} point x={x!r}")


def _kkt_step(B: Matrix, R: Matrix, free: np.ndarray, g: Vector,
              r: Vector) -> tuple[Vector, Vector]:
    """Step d and row multipliers y of min g'd + d'Bd/2 s.t. R d = -r.

    Only the free coordinates move; g + B d = R^T y on them.  A singular
    system (dependent rows on the free set) takes the least-squares solution.
    """
    nf = free.size
    size = nf + R.shape[0]
    K = np.zeros((size, size))
    # a free set that leads the coordinates is a slice of B, not a gather
    K[:nf, :nf] = (B[:nf, :nf] if nf == 0 or free[-1] == nf - 1
                   else B.take(free, axis=0).take(free, axis=1))
    RF = K[nf:, :nf] = R.take(free, axis=1)
    K[:nf, nf:] = RF.T
    rhs = np.empty(size)
    np.negative(g[free], out=rhs[:nf])
    np.negative(r, out=rhs[nf:])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    d = np.zeros(g.size)
    d[free] = sol[:nf]
    return d, -sol[nf:]


def _ratio_test(x: Vector, d: Vector, lo: Vector,
                hi: Vector) -> tuple[int, float, float]:
    """First bound met along x + alpha d: its index, alpha and value."""
    ratios = np.empty(x.size)
    ratios.fill(np.inf)
    np.divide(lo - x, d, out=ratios, where=d < 0.0)
    np.divide(hi - x, d, out=ratios, where=d > 0.0)
    i = int(ratios.argmin())
    return i, float(ratios[i]), float(lo[i] if d[i] < 0.0 else hi[i])


def bound_solve(evaluate: Callable[[Vector], tuple[float, object]],
                gradient: Callable[[Vector, object], Vector],
                lo: Vector, hi: Vector, start: Vector, tol: float,
                rows: Matrix | None = None, offset: Vector | None = None,
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
    identity without one, takes Powell-damped updates in place, on a copy
    made at the first so that hess is never written, and resets to the
    identity when a search fails or B has become singular along a step; a
    failed search from the identity ends the solve.  The rows must hold at
    the start; each step also cancels their rounding drift, which is no
    decrease, so the search tests the reduced slope (g - R^T y).d.  Without
    rows this is a box-constrained quasi-Newton method.

    Converged means the two-sided complementarity of g - R^T y against the
    box (see merit.comp_measure) is at most tol.  Unbounded means an
    accepted point has an objective below -1e15 or a coordinate beyond
    1e10.  IterationLimit means _MAX_INNER_ITERS or a failed search ended it.

    evaluate(u) returns the value at u with whatever the caller wants to
    keep from computing it (aux); it is called at the start point and at
    every line-search trial point.  gradient(u, aux) is called at the start
    point and at each accepted trial point, with the aux evaluate returned
    there.  A trial with a non-finite value fails and is backtracked; a
    non-finite value or gradient at the start or an accepted point raises
    ValueError.  n_evals counts the points evaluated (the start and every
    trial), iterations the accepted points.
    """
    x = np.minimum(np.maximum(start, lo), hi)
    R = np.zeros((0, x.size)) if rows is None else rows
    offset = np.zeros(R.shape[0]) if offset is None else offset
    f, aux = evaluate(x)
    g = gradient(x, aux)
    _check_finite("start", x, g, f)
    n_evals = 1
    accepted = 0
    movable = lo < hi
    at_lo = x == lo
    at_hi = (x == hi) & ~at_lo
    at_identity = hess is None
    B = np.identity(x.size) if at_identity else hess
    outer = np.empty_like(B)
    status = ITERATION_LIMIT

    for _ in range(_MAX_INNER_ITERS):
        free = (~(at_lo | at_hi)).nonzero()[0]
        d, y = _kkt_step(B, R, free, g, R @ x + offset)
        z = g - R.T @ y
        # x is in the box, so the measure is nonnegative
        if comp_measure(x, z, lo, hi).max(initial=0.0) <= tol:
            status = CONVERGED
            break
        if np.abs(z[free]).max(initial=0.0) <= tol:
            # stationary on this face: release the worst wrong-signed bound
            wrong = np.where(at_lo, -z, z) * ((at_lo | at_hi) & movable)
            i = int(wrong.argmax())
            at_lo[i] = at_hi[i] = False
            continue

        i, alpha_max, bound_i = _ratio_test(x, d, lo, hi)
        if alpha_max < 1.0 and abs(bound_i - x[i]) <= _ROUNDOFF * (1.0 + abs(x[i])):
            x = x.copy()
            x[i] = bound_i
            aux = None
            at_lo[i], at_hi[i] = d[i] < 0.0, d[i] > 0.0
            continue

        step = None
        gtd = float(z @ d)
        # a decrease below the precision of the value cannot be seen, so a
        # step predicted to make one passes when the value holds level
        noise = _F_PRECISION * (1.0 + abs(f))
        alpha = min(1.0, alpha_max)
        while gtd < 0.0:
            x_new = np.minimum(np.maximum(x + alpha * d, lo), hi)
            if alpha == alpha_max:
                x_new[i] = bound_i
            if (np.abs(x_new - x) <= _ROUNDOFF * np.abs(x)).all():
                break  # the step is lost in rounding
            f_new, aux_new = evaluate(x_new)
            n_evals += 1
            if np.isfinite(f_new) and (
                    f_new <= f + _SUFF_DECREASE * alpha * gtd
                    or (-alpha * gtd <= noise and f_new <= f + noise)):
                step = x_new, f_new, aux_new, alpha == alpha_max
                break
            alpha *= _BACKTRACK
            if alpha < _LAM_MIN:
                break
        if step is None:
            if at_identity:
                break
            B, at_identity = np.identity(x.size), True
            continue

        x_new, f_new, aux_new, hit = step
        g_new = gradient(x_new, aux_new)
        _check_finite("accepted", x_new, g_new)
        accepted += 1
        if hit:
            at_lo[i], at_hi[i] = d[i] < 0.0, d[i] > 0.0
        s = x_new - x
        dg = g_new - g
        x, f, g, aux = x_new, f_new, g_new, aux_new
        if f < _UNBOUNDED_OBJECTIVE or np.abs(x).max() > _UNBOUNDED_NORM:
            status = UNBOUNDED
            break
        Bs = B @ s
        sBs = float(s @ Bs)
        if not sBs > _ROUNDOFF * B.diagonal().max() * float(s @ s):
            # B is singular along s to working precision
            B, at_identity = np.identity(x.size), True
            continue
        sdg = float(s @ dg)
        if sdg < 0.2 * sBs:
            # Powell damping keeps B positive definite; along a function
            # that is linear on s it cuts the curvature there to a fifth,
            # so the steps grow until a bound blocks them
            theta = 0.8 * sBs / (sBs - sdg)
            dg = theta * dg + (1.0 - theta) * Bs
            sdg = 0.2 * sBs
        if B is hess:
            B = hess.copy()
        # through a buffer kept for the call: no n-by-n array per update
        U = np.array([dg, Bs])
        B += np.matmul(U.T * np.array([1.0 / sdg, -1.0 / sBs]), U, out=outer)
        at_identity = False

    return BoundSolveResult(x, f, status, accepted, n_evals, g, y, B, aux)


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
    cap = sub.sigma_k + omega
    delta_y[:sub.m_c] = np.minimum(np.maximum(delta_y[:sub.m_c], -cap), cap)
    z = res.g[:sub.n_ext] - sub.lin.J_k.T @ delta_y
    # a new record only if the kernel moved x onto a bound after evaluating it
    point = res.aux if res.aux is not None else Linearization(sub.lin.sf, np.array(x_ext))
    return SubproblemSolution(
        point=point, delta_y=delta_y, z_star=z,
        v_star=v, w_star=w, status=res.status,
        inner_iterations=res.iterations, hess=res.hess, rho=sub.rho_k,
        start=sub.start)


def _row_rounding(lin: Linearization, x_ext: Vector) -> Vector:
    """Rounding level of each linearized row J_k x + offset at x_ext."""
    scale = np.abs(lin.J_k) @ np.abs(x_ext) + np.abs(lin.offset)
    return _ROUNDOFF * (1.0 + scale)


def _step_to_rows(lin: Linearization, x_ext: Vector, B: Matrix,
                  g: Vector) -> tuple[Vector, Vector, Vector]:
    """x_ext moved by the minimizer of the model g'd + d'Bd/2 of the
    objective about x_ext on the linearized rows J_k x + offset = 0 (see
    _kkt_step), with the linearized residual there and its rounding
    (_row_rounding).

    Only the coordinates off their bounds move, and the step stops at the
    first bound it meets.  x_ext comes back unchanged when the step would
    leave a linear row, which has no elastics, violated beyond rounding, as
    free columns of deficient rank can.
    """
    lo, hi = lin.sf.lo, lin.sf.hi
    free = ((lo < x_ext) & (x_ext < hi)).nonzero()[0]
    r = lin.cbar(x_ext)
    d = _kkt_step(B, lin.J_k, free, g, r)[0]
    i, alpha_max, bound_i = _ratio_test(x_ext, d, lo, hi)
    x_new = np.minimum(np.maximum(x_ext + min(1.0, alpha_max) * d, lo), hi)
    if alpha_max <= 1.0:
        x_new[i] = bound_i
    m_c = lin.sf.m_c
    r_new, rounding = lin.cbar(x_new), _row_rounding(lin, x_new)
    if lin.sf.m_A and (np.abs(r_new[m_c:])
                       > np.maximum(np.abs(r[m_c:]), rounding[m_c:])).any():
        return x_ext, r, _row_rounding(lin, x_ext)
    return x_new, r_new, rounding


def solve_lc(sub: ElasticSubproblem, omega: float,
             warm_start: SubproblemSolution | None = None) -> SubproblemSolution:
    """Solve the lifted elastic subproblem to the relaxed conditions.

    The kernel starts from the warm start's point, the previous major's
    candidate, else from the base point.  At the base point, with linear
    rows only or not, it first takes one step toward the linearized rows
    (see _step_to_rows): the minimizer on the rows of the model with the
    start matrix's x_ext block, or the identity at the first major, and the
    objective's gradient at the base point, read from the base record.  A
    warm start elsewhere, the candidate of a rejected major, already meets
    this linearization.  The elastics start at their cheapest values for
    the nonlinear rows' linearized residual left there, taking residuals at
    rounding level as zero, so the rows hold from the start on.  The kernel
    also starts from the warm start's BFGS matrix, plus (rho_k - rho)
    J_k^T J_k on the x_ext block when the penalty has risen from the rho
    that matrix was built for.  When the start's x_ext is, bit for bit, the
    point of a record held here (the base point's, the warm start's
    candidate's, or the warm start's own start's, where a step from another
    base point lands again), the kernel starts from that record, so its
    values there are not evaluated again; the solution carries the start
    record as start.
    """
    lin, n_ext = sub.lin, sub.n_ext
    x0, hess = lin.x_k, None
    if warm_start is not None:
        x0, hess = warm_start.point.x_k, warm_start.hess
        if sub.rho_k > warm_start.rho:
            hess = hess.copy()
            hess[:n_ext, :n_ext] += ((sub.rho_k - warm_start.rho)
                                     * (lin.J_k.T @ lin.J_k))
    if x0 is lin.x_k or np.array_equal(x0, lin.x_k):
        B = np.identity(n_ext) if hess is None else hess[:n_ext, :n_ext]
        x0, r, rounding = _step_to_rows(
            lin, x0, B, aug_lagrangian_grad(lin, sub.y_k, sub.rho_k))
    else:
        r, rounding = lin.cbar(x0), _row_rounding(lin, x0)
    held = (lin,) if warm_start is None else (lin, warm_start.point, warm_start.start)
    key = x0.tobytes()
    sub.start = next((p for p in held if p.x_k.tobytes() == key),
                     None) or Linearization(lin.sf, x0)
    r[np.abs(r) <= rounding] = 0.0
    v0, w0 = optimal_elastics(r[:sub.m_c])
    u = np.concatenate([x0, v0, w0])
    res = bound_solve(sub.evaluate, sub.gradient, sub.lo, sub.hi, u, omega,
                      rows=sub.rows, offset=lin.offset, hess=hess)
    return _finalize(sub, res, omega)


def solve_proximal(problem: NlpProblem, x_tilde: Vector) -> tuple[Vector, bool]:
    """Project x_tilde onto the bounds and linear rows; return the projected
    x, in the problem's units, and whether it meets the rows.

    Minimizes (1/2)||x - x_tilde||^2 over u = (x, s_A) in the box subject to
    the rows A x - s_A = 0.  A clipped start that meets every row is its
    own projection.  Otherwise a first kernel call minimizes the elastic
    sum of v + w on the rows A x - s_A + v - w = 0 to find a feasible point;
    when that sum stays above the rounding of the rows, no point meets them,
    and the point a second call reaches from there by minimizing
    (1/2)||A x - s_A||^2 over the box comes back with False.
    """
    lx, ux = problem.bounds_x
    x_tilde = np.minimum(np.maximum(
        np.asarray(x_tilde, dtype=float).reshape(problem.n), lx), ux)
    if problem.m_A == 0:
        return x_tilde, True

    n, m = problem.n, problem.m_A
    lA, uA = problem.bounds_A
    lo = np.concatenate([lx, lA])
    hi = np.concatenate([ux, uA])
    # [A, -I] and the first phase's [A, -I, I, -I], built by index
    i = np.arange(m)
    wide = np.zeros((m, n + 3 * m))
    wide[:, :n] = problem.A
    wide[i, n + i], wide[i, n + m + i], wide[i, n + 2 * m + i] = -1.0, 1.0, -1.0
    rows = wide[:, :n + m].copy()
    u = np.concatenate([x_tilde, np.minimum(np.maximum(problem.A @ x_tilde, lA), uA)])
    r = rows @ u
    if not r.any():
        return x_tilde, True

    v, w = optimal_elastics(r)
    cost = np.concatenate([np.zeros(n + m), np.ones(2 * m)])
    res = bound_solve(lambda q: (float(cost @ q), None),
                      lambda q, _: cost,
                      np.concatenate([lo, np.zeros(2 * m)]),
                      np.concatenate([hi, np.full(2 * m, np.inf)]),
                      np.concatenate([u, v, w]), _PP_OMEGA,
                      rows=wide)
    u = res.x[:n + m]
    if res.f > _ROUNDOFF * (1.0 + float(np.sum(np.abs(rows) @ np.abs(u)))):
        # with several rows the least elastic sum need not be stationary for
        # (1/2)||r||^2, the certificate's measure
        def half_square(q: Vector) -> tuple[float, Vector]:
            r = rows @ q
            return 0.5 * float(r @ r), r

        res = bound_solve(half_square, lambda q, r: rows.T @ r, lo, hi, u, _PP_OMEGA)
        return res.x[:n], False

    def evaluate(q: Vector) -> tuple[float, Vector]:
        d = q[:n] - x_tilde
        return 0.5 * float(d @ d), d

    res = bound_solve(evaluate, lambda q, d: np.concatenate([d, np.zeros(m)]),
                      lo, hi, u, _PP_OMEGA, rows=rows)
    return res.x[:n], True
