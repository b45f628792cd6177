"""Outer solver loop.

Each major iteration solves the elastic subproblem on the rows linearized
at the current point, and branches on the true constraint residual at the
candidate: a residual within the current feasibility target accepts the
candidate and refreshes the multiplier estimates, anything else keeps the
current estimates, raises the penalty, and tightens the elastic price.  Every
test and residual at a visited point reads its one record (Linearization),
which calls f, c, g and J there at most once each; a candidate's record is
the kernel's of its last point.  A kernel that starts at the last
kernel's candidate or start reads that record (see innersolve.solve_lc).
Where a new record is of a point visited before (the proximal start x0,
where each solve is set up: the derivative check probes x0 unless it lies
within two of the check's steps of a finite bound, and the slack form's
factors read its g and J and its embedding its c), the problem returns the
values of its last calls (see model.NlpProblem), so a solve calls each
callback at most once at any point.  The elastic weight sigma makes the
method degrade gracefully between the two classical extremes, which are
also available directly as modes:

    stabilized  adaptive sigma between SIGMA_LO and SIGMA_HI, penalty from
                RHO_FLOOR (the default)
    canonical   fixed penalty, sigma pinned at SIGMA_HI, direct multiplier
                updates, every candidate accepted
    bcl         sigma pinned at zero, so each subproblem is a pure
                bound-constrained augmented Lagrangian minimization

canonical and bcl start the penalty at 10^2.5 / m_c for m_c nonlinear rows.

Every mode solves the problem as the slack form scales it at the proximal
start, where the form is built (see model.build_slack_form), so the
schedule's fixed constants meet gradients of about unit size.  The targets
omega_0 and omega_star are mapped into those units, and the optimality test
and the report are in the problem's own.

Subproblems are solved only as well as the outer KKT measure F warrants,
as an inexact Newton method chooses its forcing terms: the first
tolerance is F^2 at the start, capped by omega_0 and floored at
omega_star, and next_omega tightens it toward F^2 after each major.  F^2
forcing is for the linearization's error, so a problem with no nonlinear
rows, whose linearization is exact and whose first subproblem is the whole
problem, starts at omega_star; it takes the same loop as any other.

Infeasible problems surface before the first major, at the proximal start's
point of least squared residual, when no point of the box meets the linear
rows; or when the penalty climbs past RHO_BAR while the nonlinear rows still
violate their bounds, at a first-order stationary point of the
squared-residual minimization.
CannotImprove ends a run on any of four rules: a subproblem still
Unbounded past RHO_BAR from a point that violates the nonlinear rows; in
the canonical mode, a kernel at its limit or an accepted candidate that
needs its elastics; and two stalls in a row at the omega floor, where a
major stalls when its kernel ends IterationLimit or converges at its base
point (the candidate is the base record).  An Optimal candidate ends the
run Optimal all the same.  IterationLimit means max_major majors ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .innersolve import (CONVERGED, ITERATION_LIMIT, UNBOUNDED, SubproblemSolution,
                         solve_lc, solve_proximal)
from .linearize import Linearization, assemble_elastic, linearize_constraints
from .merit import KktResidual, is_optimal, kkt_residual
from .model import (NlpProblem, Vector, build_slack_form, check_derivatives,
                    finite_array)

STABILIZED = "stabilized"
CANONICAL = "canonical"
BCL = "bcl"

# the solver's statuses besides the kernel's UNBOUNDED and ITERATION_LIMIT
OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
CANNOT_IMPROVE = "CannotImprove"

# the outer schedule
ETA_0 = 1.0       # first feasibility target
SIGMA_LO = 1.0    # elastic price box of the stabilized mode
SIGMA_HI = 1e4
SIGMA_0 = 1e2     # first stabilized price, scaled by 1 + |y0|
TAU_RHO = 10.0    # a rejection multiplies rho by TAU_RHO
TAU_SIGMA = 10.0  # and divides a stabilized sigma by TAU_SIGMA
ALPHA = 0.1       # eta = ETA_0 / rho^ALPHA after a rejection
BETA = 0.9        # eta /= rho^BETA after an acceptance
RHO_BAR = 1e8     # rows still violated past this penalty mean Infeasible
RHO_FLOOR = 1.0 + 1e-3  # least penalty; eta tightens only while rho > 1


@dataclass
class OuterOptions:
    """omega_star and eta_star are the targets; omega_0 caps the first
    subproblem tolerance, which is otherwise the square of the start's KKT
    measure floored at omega_star (an omega_0 below omega_star is kept).
    Without nonlinear rows the first tolerance is omega_star."""

    omega_star: float = 1e-6
    eta_star: float = 1e-6
    omega_0: float = 1e-1
    max_major: int = 500
    mode: str = STABILIZED

    def __post_init__(self) -> None:
        if self.mode not in (STABILIZED, CANONICAL, BCL):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if not (0.0 < self.omega_star < np.inf and 0.0 < self.eta_star < np.inf):
            raise ValueError("target tolerances must be positive and finite")
        if not 0.0 < self.omega_0 < np.inf:
            raise ValueError("omega_0 must be positive and finite")
        if (isinstance(self.max_major, bool)
                or not isinstance(self.max_major, (int, np.integer)) or self.max_major < 1):
            raise ValueError("max_major must be an integer of at least 1")


@dataclass
class TraceRecord:
    """One major.  omega, f_norm and omega_next are in the problem's units,
    like the targets they are compared with; the other measures are in the
    scaled units the schedule works in."""

    k: int
    accepted: bool
    rho: float
    sigma: float
    eta: float
    eta_target: float  # max(eta, eta_star), what the acceptance test used
    omega: float
    c_norm: float
    f_norm: float
    inner_status: str
    inner_iterations: int
    delta_y_norm: float
    elastic_inf: float
    rho_next: float
    sigma_next: float
    eta_next: float
    omega_next: float


@dataclass
class OuterState:
    y: Vector
    z: Vector
    rho: float
    sigma: float
    eta: float
    omega: float
    trace: list[TraceRecord] = field(default_factory=list)


@dataclass
class SolveReport:
    status: str
    x: Vector
    x_ext: Vector
    y: Vector
    z: Vector
    residual: KktResidual
    final_objective: float
    majors: int
    minors: int
    # callback calls of the solve by kind, the derivative check's included
    f_evals: int
    g_evals: int
    c_evals: int
    J_evals: int
    trace: list[TraceRecord]
    f_norm_0: float  # the KKT measure F = max(primal, dual, comp) at (x0, y0, z0)
    # the factors the solve scaled f and each nonlinear row by
    f_scale: float
    row_scale: Vector


def next_omega(omega_k: float, f_norm: float, omega_star: float) -> float:
    """Subproblem tolerance for the next iteration.

    Tightens toward the square of the current optimality measure, halves as a
    safeguard, and never drops below omega_star.  solve applies the same
    square at the start, capped by omega_0, without the halving (omega_star
    without nonlinear rows).  Two majors in a row that stall at the floor
    end the run (see solve).
    """
    om = min(omega_k, f_norm * f_norm)
    return max(0.5 * om, omega_star)


def update_on_success(state: OuterState, sol: SubproblemSolution, c_val: Vector,
                      opts: OuterOptions, m_c: int) -> OuterState:
    """Accept the candidate: refresh multipliers and reduced costs, relax sigma.

    The caller moves the base point to the candidate's record.  The penalty
    stays put.  The feasibility target tightens by the current
    penalty raised to BETA; sigma restarts at the size of the latest
    multiplier step of the m_c nonlinear rows, the rows it prices, clamped
    into [SIGMA_LO, SIGMA_HI].
    """
    y_star = state.y + sol.delta_y
    # the canonical mode takes the subproblem multipliers directly
    state.y = y_star if opts.mode == CANONICAL else y_star - state.rho * c_val
    state.z = sol.z_star
    if opts.mode == STABILIZED:
        dy_norm = float(np.abs(sol.delta_y[:m_c]).max(initial=0.0))
        state.sigma = max(SIGMA_LO, min(dy_norm, SIGMA_HI))
    state.eta = state.eta / state.rho ** BETA
    return state


def update_on_failure(state: OuterState, opts: OuterOptions) -> OuterState:
    """Reject the candidate: raise the penalty, cut sigma, reset the target.

    The canonical mode keeps its penalty fixed for the whole run, so only the
    feasibility target is recomputed there.
    """
    if opts.mode != CANONICAL:
        state.rho = state.rho * TAU_RHO
    if opts.mode == STABILIZED:
        state.sigma = state.sigma / TAU_SIGMA
    state.eta = ETA_0 / state.rho ** ALPHA
    return state


def _initial_sigma(opts: OuterOptions, y0: Vector) -> float:
    if opts.mode == CANONICAL:
        return SIGMA_HI
    if opts.mode == BCL:
        return 0.0
    y_norm = float(np.abs(y0).max(initial=0.0))
    return min(SIGMA_HI, max(SIGMA_LO, SIGMA_0 * (1.0 + y_norm)))


def _initial_rho(opts: OuterOptions, m_c: int) -> float:
    # on linearized rows the penalty only prices the departure from linearity,
    # so the stabilized mode starts unbraked and raises rho on rejection alone
    if opts.mode == STABILIZED:
        return RHO_FLOOR
    return max(10.0 ** 2.5 / max(m_c, 1), RHO_FLOOR)


def _eval_counts(nlp: NlpProblem) -> list[int]:
    return [nlp.n_feval, nlp.n_geval, nlp.n_ceval, nlp.n_jeval]


def _make_report(status: str, lin: Linearization, y: Vector, z: Vector,
                 res: KktResidual, minors: int, counts0: list[int],
                 trace: list[TraceRecord], f_norm_0: float) -> SolveReport:
    """lin is the reported point's record, y and z are in the slack form's
    units, and res is the KKT residual at (lin.x_k, y, z) in the problem's
    units; majors is len(trace)."""
    sf = lin.sf
    x_ext, y, z = sf.unscaled(lin.x_k, y, z)
    f_val = lin.f / sf.f_scale
    # counted last so the report's own evaluations are included
    f_evals, g_evals, c_evals, J_evals = (
        now - then for now, then in zip(_eval_counts(sf.nlp), counts0))
    return SolveReport(status=status, x=x_ext[:sf.n].copy(), x_ext=x_ext, y=y, z=z,
                       residual=res, final_objective=f_val, majors=len(trace),
                       minors=minors, f_evals=f_evals, g_evals=g_evals,
                       c_evals=c_evals, J_evals=J_evals, trace=trace,
                       f_norm_0=f_norm_0, f_scale=sf.f_scale,
                       row_scale=np.array(sf.row_scale))


def solve(problem: NlpProblem, opts: OuterOptions | None = None,
          x_start: Vector | None = None,
          y_start: Vector | None = None) -> SolveReport:
    """Run the outer loop on a problem and return the full report."""
    opts = opts if opts is not None else OuterOptions()
    # afresh, on inputs checked again: they may have been reassigned
    problem._last.clear()
    problem.check_inputs()
    x_tilde = (problem.x_tilde if x_start is None
               else finite_array(x_start, problem.n, "x_start"))
    if y_start is not None:
        y_start = finite_array(y_start, problem.m_c + problem.m_A, "y_start")
    counts0 = _eval_counts(problem)

    x0, meets_rows = solve_proximal(problem, x_tilde)
    deriv = check_derivatives(problem, x0)
    if not deriv.passed:
        raise ValueError(
            f"derivative check failed at the proximal start: worst {deriv.worst_index} "
            f"(g err {deriv.max_rel_err_g:.2e}, J err {deriv.max_rel_err_J:.2e})")
    sf = build_slack_form(problem, x0)
    lin = linearize_constraints(sf, sf.embed(x0))
    # multipliers and the schedule's targets in the slack form's units
    y = (np.zeros(sf.m) if y_start is None
         else y_start * sf.f_scale / sf.col_scale[sf.n:])
    omega_star = opts.omega_star * sf.f_scale
    eta_star = opts.eta_star * float(sf.row_scale.min(initial=1.0))
    z = lin.g - lin.jacobian_t(y)
    res, f_norm = kkt_residual(lin, y, z)
    f_norm_0 = res.f_norm
    if not meets_rows:
        # x0 minimizes the linear rows' squared residual: the certificate
        return _make_report(INFEASIBLE, lin, y, z, res, minors=0, counts0=counts0,
                            trace=[], f_norm_0=f_norm_0)

    # without nonlinear rows the linearization is exact: solve to the target
    omega = (omega_star if sf.m_c == 0
             else min(opts.omega_0 * sf.f_scale, max(f_norm * f_norm, omega_star)))
    state = OuterState(y=y, z=z,
                       rho=_initial_rho(opts, sf.m_c), sigma=_initial_sigma(opts, y),
                       eta=ETA_0, omega=omega)
    minors = 0
    sol: SubproblemSolution | None = None
    stalls_at_floor = 0

    for k in range(opts.max_major):
        rho_k, sigma_k, eta_k, omega_k = state.rho, state.sigma, state.eta, state.omega
        eta_target = max(eta_star, eta_k)
        sub = assemble_elastic(lin, state.y, rho_k, sigma_k)
        sol = solve_lc(sub, omega_k, warm_start=sol)
        minors += sol.inner_iterations

        cand = sol.point
        c_norm = float(np.abs(cand.c_k).max(initial=0.0))
        dy_norm = float(np.abs(sol.delta_y[:sf.m_c]).max(initial=0.0))
        # the elastics are nonnegative
        elastic_inf = float(sol.v_star.max(initial=0.0) + sol.w_star.max(initial=0.0))

        # a major at the omega floor stalls when its kernel hits its limit or
        # ends where it started; two in a row end the run
        stalled = omega_k <= omega_star * (1.0 + 1e-12) and (
            sol.status == ITERATION_LIMIT or (sol.status == CONVERGED and cand is lin))
        stalls_at_floor = stalls_at_floor + 1 if stalled else 0
        exit_status = CANNOT_IMPROVE if stalls_at_floor >= 2 else None
        if sol.status == UNBOUNDED:
            accepted = False
            # unboundedness is certified only from a nonlinearly feasible
            # point; from any other, each rejection only raises rho, so the
            # run stops once the penalty is exhausted, as for Infeasible
            if sf.nonlinear_bound_violation(lin.x_k, lin.c_k) <= opts.eta_star:
                exit_status = UNBOUNDED
            elif rho_k > RHO_BAR:
                exit_status = CANNOT_IMPROVE
        elif sol.status == ITERATION_LIMIT:
            accepted = False
            if opts.mode == CANONICAL:
                # with a fixed penalty nothing about the subproblem will change
                exit_status = CANNOT_IMPROVE
        else:
            accepted = opts.mode == CANONICAL or c_norm <= eta_target

        if accepted:
            update_on_success(state, sol, cand.c_k, opts, sf.m_c)
            lin = cand
            res, f_norm = kkt_residual(lin, state.y, state.z)
            if is_optimal(res, opts.omega_star, opts.eta_star):
                exit_status = OPTIMAL
            if opts.mode == CANONICAL and elastic_inf > 1e-5:
                # the canonical mode has no way to recover from a linearization
                # it cannot satisfy without elastic help
                exit_status = CANNOT_IMPROVE
        else:
            # rows still violated once the penalty is exhausted
            if (exit_status is None and sol.status == CONVERGED and rho_k > RHO_BAR
                    and sf.nonlinear_bound_violation(cand.x_k, cand.c_k) > opts.eta_star):
                exit_status = INFEASIBLE
            # a rejection moves only rho, sigma and eta, so lin, f_norm and
            # res still hold
            if exit_status is None:
                update_on_failure(state, opts)

        state.omega = next_omega(omega_k, f_norm, omega_star)
        state.trace.append(TraceRecord(
            k=k, accepted=accepted, rho=rho_k, sigma=sigma_k, eta=eta_k,
            eta_target=eta_target, omega=omega_k / sf.f_scale, c_norm=c_norm,
            f_norm=res.f_norm, inner_status=sol.status,
            inner_iterations=sol.inner_iterations, delta_y_norm=dy_norm,
            elastic_inf=elastic_inf, rho_next=state.rho, sigma_next=state.sigma,
            eta_next=state.eta, omega_next=state.omega / sf.f_scale))

        if exit_status is not None:
            break

    status = exit_status or ITERATION_LIMIT
    if status == INFEASIBLE:
        # report the last candidate itself: it is the stationary point of the
        # squared-residual problem that certifies the infeasibility
        lin, state.y, state.z = cand, state.y + sol.delta_y, sol.z_star
        res, _ = kkt_residual(lin, state.y, state.z)

    # lin is the record of the base point
    return _make_report(status, lin, state.y, state.z, res, minors=minors,
                        counts0=counts0, trace=state.trace, f_norm_0=f_norm_0)
