"""Outer solver loop.

Each major iteration linearizes the rows at the current point, solves the
elastic subproblem, and branches on the true constraint residual at the
candidate: a residual within the current feasibility target accepts the
candidate and refreshes the multiplier estimates, anything else keeps the
current estimates, raises the penalty, and tightens the elastic price.  The
elastic weight sigma makes the method degrade gracefully between the two
classical extremes, which are also available directly as modes:

    stabilized  adaptive sigma between SIGMA_LO and SIGMA_HI, penalty from
                RHO_FLOOR (the default)
    canonical   fixed penalty, sigma pinned at SIGMA_HI, direct multiplier
                updates, every candidate accepted
    bcl         sigma pinned at zero, so each subproblem is a pure
                bound-constrained augmented Lagrangian minimization

canonical and bcl start the penalty at 10^2.5 / m_c for m_c nonlinear rows.

Infeasible problems surface when the penalty climbs past RHO_BAR while the
nonlinear rows still violate their bounds; the point returned then is a
first-order stationary point of the squared-residual minimization.  A
subproblem still Unbounded past RHO_BAR from a point that violates the
nonlinear rows ends the run CannotImprove.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .innersolve import (CONVERGED, ITERATION_LIMIT, PpInfeasible, UNBOUNDED,
                         SubproblemSolution, solve_lc, solve_proximal)
from .linearize import assemble_elastic, linearize_constraints
from .merit import KktResidual, is_optimal, kkt_residual
from .model import (NlpProblem, SlackForm, Vector, build_slack_form,
                    check_derivatives, push_interior)

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
    omega_star: float = 1e-6
    eta_star: float = 1e-6
    omega_0: float = 1e-3
    max_major: int = 500
    mode: str = STABILIZED

    def __post_init__(self) -> None:
        if self.mode not in (STABILIZED, CANONICAL, BCL):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if not (0.0 < self.omega_star < np.inf and 0.0 < self.eta_star < np.inf):
            raise ValueError("target tolerances must be positive and finite")
        if not 0.0 < self.omega_0 < np.inf:
            raise ValueError("omega_0 must be positive and finite")
        if self.max_major < 1:
            raise ValueError("max_major must be at least 1")


@dataclass
class TraceRecord:
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
    x: Vector
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
    fevals: int
    trace: list[TraceRecord]
    f_norm_path: list[float]


def next_omega(omega_k: float, f_norm: float, omega_star: float) -> float:
    """Subproblem tolerance for the next iteration.

    Tightens toward the square of the current optimality measure, halves as a
    safeguard, and never drops below omega_star.
    """
    om = min(omega_k, f_norm ** 2)
    return max(0.5 * om, omega_star)


def update_on_success(state: OuterState, sol: SubproblemSolution, c_val: Vector,
                      opts: OuterOptions, m_c: int) -> OuterState:
    """Accept the candidate: move the point, refresh multipliers, relax sigma.

    The penalty stays put.  The feasibility target tightens by the current
    penalty raised to BETA; sigma restarts at the size of the latest
    multiplier step of the m_c nonlinear rows, the rows it prices, clamped
    into [SIGMA_LO, SIGMA_HI].
    """
    y_star = state.y + sol.delta_y
    state.x = np.array(sol.x_star)
    # the canonical mode takes the subproblem multipliers directly
    state.y = y_star if opts.mode == CANONICAL else y_star - state.rho * c_val
    state.z = np.array(sol.z_star)
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


def _make_report(status: str, sf: SlackForm, x_ext: Vector, y: Vector, z: Vector,
                 res: KktResidual, minors: int, fev0: int, trace: list[TraceRecord],
                 f_norm_path: list[float]) -> SolveReport:
    """res is the KKT residual at (x_ext, y, z); majors is len(trace)."""
    f_val = sf.objective(x_ext)
    # counted last so the report's own evaluations are included
    fevals = sf.nlp.eval_total() - fev0
    return SolveReport(status=status, x=np.array(x_ext[:sf.n]), x_ext=np.array(x_ext),
                       y=np.array(y), z=np.array(z), residual=res,
                       final_objective=f_val, majors=len(trace), minors=minors,
                       fevals=fevals, trace=trace, f_norm_path=f_norm_path)


def _solve_linear_only(sf: SlackForm, x0: Vector, y0: Vector, opts: OuterOptions,
                       fev0: int) -> SolveReport:
    """Problems with no nonlinear rows need a single subproblem at sigma = 0."""
    lin = linearize_constraints(sf, x0)
    sub = assemble_elastic(lin, y0, 0.0, 0.0)
    sol = solve_lc(sub, opts.omega_star)
    y = y0 + sol.delta_y
    z = np.array(sol.z_star)
    status = OPTIMAL if sol.status == CONVERGED else sol.status
    res = kkt_residual(sf, sol.x_star, y, z)
    if status == OPTIMAL and not is_optimal(res, opts.omega_star, opts.eta_star):
        status = CANNOT_IMPROVE
    return _make_report(status, sf, sol.x_star, y, z, res,
                        minors=sol.inner_iterations, fev0=fev0, trace=[],
                        f_norm_path=[])


def solve(problem: NlpProblem, opts: OuterOptions | None = None,
          x_start: Vector | None = None,
          y_start: Vector | None = None) -> SolveReport:
    """Run the outer loop on a problem and return the full report."""
    opts = opts if opts is not None else OuterOptions()
    sf = build_slack_form(problem)
    fev0 = problem.eval_total()

    x_tilde = problem.x_tilde if x_start is None else np.asarray(x_start, dtype=float)
    lx, ux = problem.bounds_x
    # a box thinner than twice the margin is probed at its midpoint
    probe = push_interior(x_tilde, lx, ux, margin=np.minimum(2e-5, 0.5 * (ux - lx)))
    deriv = check_derivatives(problem, probe)
    if not deriv.passed:
        raise ValueError(
            f"derivative check failed at the start point: worst {deriv.worst_index} "
            f"(g err {deriv.max_rel_err_g:.2e}, J err {deriv.max_rel_err_J:.2e})")

    try:
        x0 = solve_proximal(sf, x_tilde)
    except PpInfeasible:
        x_ext = sf.embed(np.clip(x_tilde, lx, ux))
        y, z = np.zeros(sf.m), np.zeros(sf.n_ext)
        return _make_report(INFEASIBLE, sf, x_ext, y, z,
                            kkt_residual(sf, x_ext, y, z), minors=0,
                            fev0=fev0, trace=[], f_norm_path=[])

    y = np.zeros(sf.m) if y_start is None else np.asarray(y_start, dtype=float).reshape(sf.m)
    z = sf.objective_grad(x0) - sf.jacobian_t(x0, y)

    if sf.m_c == 0:
        return _solve_linear_only(sf, x0, y, opts, fev0)

    state = OuterState(x=x0, y=y, z=z,
                       rho=_initial_rho(opts, sf.m_c), sigma=_initial_sigma(opts, y),
                       eta=ETA_0, omega=opts.omega_0)
    res = kkt_residual(sf, state.x, state.y, state.z)
    f_norm_path = [res.f_norm]
    minors = 0
    warm: SubproblemSolution | None = None
    stalls_at_floor = 0
    status = ITERATION_LIMIT
    final_from_candidate: SubproblemSolution | None = None

    for k in range(opts.max_major):
        rho_k, sigma_k, eta_k, omega_k = state.rho, state.sigma, state.eta, state.omega
        eta_target = max(opts.eta_star, eta_k)
        lin = linearize_constraints(sf, state.x)
        sub = assemble_elastic(lin, state.y, rho_k, sigma_k)
        sol = solve_lc(sub, omega_k, warm_start=warm)
        minors += sol.inner_iterations

        c_star = sf.residual(sol.x_star)
        c_norm = float(np.abs(c_star).max(initial=0.0))
        dy_norm = float(np.abs(sol.delta_y[:sf.m_c]).max(initial=0.0))
        elastic_inf = (float(np.abs(sol.v_star).max(initial=0.0))
                       + float(np.abs(sol.w_star).max(initial=0.0)))

        exit_status: str | None = None
        if sol.status == UNBOUNDED:
            accepted = False
            # unboundedness is certified only from a nonlinearly feasible
            # point; from any other, each rejection only raises rho, so the
            # run stops once the penalty is exhausted, as for Infeasible
            if sf.nonlinear_bound_violation(state.x) <= opts.eta_star:
                exit_status = UNBOUNDED
            elif rho_k > RHO_BAR:
                exit_status = CANNOT_IMPROVE
        elif sol.status == ITERATION_LIMIT:
            accepted = False
            if opts.mode == CANONICAL:
                # with a fixed penalty nothing about the subproblem will change
                exit_status = CANNOT_IMPROVE
            elif omega_k <= opts.omega_star * (1.0 + 1e-12):
                stalls_at_floor += 1
                if stalls_at_floor >= 2:
                    exit_status = CANNOT_IMPROVE
        else:
            stalls_at_floor = 0
            accepted = opts.mode == CANONICAL or c_norm <= eta_target

        if accepted:
            update_on_success(state, sol, c_star, opts, sf.m_c)
            res = kkt_residual(sf, state.x, state.y, state.z, c_star)
            if is_optimal(res, opts.omega_star, opts.eta_star):
                exit_status = OPTIMAL
            if opts.mode == CANONICAL and elastic_inf > 1e-5:
                # the canonical mode has no way to recover from a linearization
                # it cannot satisfy without elastic help
                exit_status = CANNOT_IMPROVE
        else:
            # rows still violated once the penalty is exhausted; c is
            # evaluated again only when rho has passed RHO_BAR
            if (exit_status is None and sol.status == CONVERGED and rho_k > RHO_BAR
                    and sf.nonlinear_bound_violation(sol.x_star) > opts.eta_star):
                exit_status = INFEASIBLE
                final_from_candidate = sol
            # a rejection moves only rho, sigma and eta, so res still holds
            if exit_status is None:
                update_on_failure(state, opts)

        f_norm_path.append(res.f_norm)
        state.omega = next_omega(omega_k, res.f_norm, opts.omega_star)
        state.trace.append(TraceRecord(
            k=k, accepted=accepted, rho=rho_k, sigma=sigma_k, eta=eta_k,
            eta_target=eta_target, omega=omega_k, c_norm=c_norm, f_norm=res.f_norm,
            inner_status=sol.status, inner_iterations=sol.inner_iterations,
            delta_y_norm=dy_norm, elastic_inf=elastic_inf, rho_next=state.rho,
            sigma_next=state.sigma, eta_next=state.eta, omega_next=state.omega))
        warm = sol

        if exit_status is not None:
            status = exit_status
            break

    if status == INFEASIBLE and final_from_candidate is not None:
        # report the candidate itself: it is the stationary point of the
        # squared-residual problem that certifies the infeasibility
        state.x = np.array(final_from_candidate.x_star)
        state.y = state.y + final_from_candidate.delta_y
        state.z = np.array(final_from_candidate.z_star)
        res = kkt_residual(sf, state.x, state.y, state.z, c_star)

    return _make_report(status, sf, state.x, state.y, state.z, res,
                        minors=minors, fev0=fev0, trace=state.trace,
                        f_norm_path=f_norm_path)
