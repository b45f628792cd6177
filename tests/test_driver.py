"""Tests for the outer loop: schedules, branch logic, modes, and statuses."""

import numpy as np
import pytest

from slcl import driver, innersolve
from slcl.catalog import SOLVABLE, catalog_get, catalog_names
from slcl.driver import (ALPHA, BCL, BETA, CANONICAL, ETA_0, RHO_FLOOR, SIGMA_HI,
                         SIGMA_LO, STABILIZED, TAU_RHO, OuterOptions, OuterState,
                         next_omega, solve, update_on_failure,
                         update_on_success)
from slcl.innersolve import CONVERGED, UNBOUNDED, SubproblemSolution
from slcl.merit import kkt_residual
from slcl.model import INF, NlpProblem, SlackForm, build_slack_form


def _state(rho=10.0, sigma=100.0, eta=1.0, omega=1e-3, m=1, n_ext=3):
    return OuterState(x=np.zeros(n_ext), y=np.zeros(m),
                      z=np.zeros(n_ext), rho=rho, sigma=sigma, eta=eta,
                      omega=omega)


def _solution(delta_y, n_ext=3):
    delta_y = np.atleast_1d(np.asarray(delta_y, dtype=float))
    return SubproblemSolution(
        x_star=np.zeros(n_ext), delta_y=delta_y, z_star=np.zeros(n_ext),
        v_star=np.zeros(len(delta_y)), w_star=np.zeros(len(delta_y)),
        status=CONVERGED, inner_iterations=1)


def _circles(x0, k=32, seed=0):
    """Project k targets uniform in [0.5, 3]^2 onto the unit circle, x >= 0,
    with the loose linear row sum(x) <= 20 k, from x = x0."""
    a = np.random.default_rng(seed).uniform(0.5, 3.0, (k, 2))
    n, t, rows = 2 * k, a.ravel(), np.arange(k)

    def jac(x):
        out = np.zeros((k, n))
        out[rows, 2 * rows] = 2.0 * x[0::2]
        out[rows, 2 * rows + 1] = 2.0 * x[1::2]
        return out

    return a, NlpProblem(
        n=n, m_c=k, m_A=1,
        eval_f=lambda x: float((x - t) @ (x - t)),
        eval_g=lambda x: 2.0 * (x - t),
        eval_c=lambda x: x[0::2] ** 2 + x[1::2] ** 2, eval_J=jac,
        A=np.ones((1, n)), bounds_x=(np.zeros(n), np.full(n, INF)),
        bounds_c=(np.ones(k), np.ones(k)),
        bounds_A=(np.array([-INF]), np.array([20.0 * k])),
        x_tilde=np.full(n, x0))


class TestUpdateOnSuccess:
    def test_sigma_resets_to_dual_step_size(self):
        state = _state(m=2)
        sol = _solution([3.0, -7.0])
        update_on_success(state, sol, np.zeros(2), OuterOptions(), m_c=2)
        assert state.sigma == 7.0

    def test_linear_row_step_leaves_sigma_alone(self):
        """sigma prices the nonlinear rows only; the linear row's 500 does
        not count."""
        state = _state(m=2)
        update_on_success(state, _solution([3.0, 500.0]), np.zeros(2),
                          OuterOptions(), m_c=1)
        assert state.sigma == 3.0

    def test_sigma_clamped_into_box(self):
        state = _state()
        update_on_success(state, _solution([1e-9]), np.zeros(1), OuterOptions(),
                          m_c=1)
        assert state.sigma == 1.0
        state = _state()
        update_on_success(state, _solution([1e6]), np.zeros(1), OuterOptions(),
                          m_c=1)
        assert state.sigma == 1e4

    def test_eta_tightens_by_penalty_power(self):
        state = _state(rho=4.0, eta=0.5)
        update_on_success(state, _solution([1.0]), np.zeros(1), OuterOptions(),
                          m_c=1)
        np.testing.assert_allclose(state.eta, 0.1435872943746294, rtol=1e-12)

    def test_first_order_multiplier_update(self):
        """y* = 5 with rho = 10 and residual 0.2 stores y = 3."""
        state = _state(rho=10.0)
        update_on_success(state, _solution([5.0]), np.array([0.2]),
                          OuterOptions(), m_c=1)
        np.testing.assert_allclose(state.y, [3.0])

    def test_canonical_mode_takes_the_subproblem_multipliers(self):
        """The same step in canonical mode stores y* = 5 unshifted."""
        state = _state(rho=10.0)
        update_on_success(state, _solution([5.0]), np.array([0.2]),
                          OuterOptions(mode=CANONICAL), m_c=1)
        np.testing.assert_allclose(state.y, [5.0])

    def test_penalty_left_alone(self):
        state = _state(rho=37.0)
        update_on_success(state, _solution([1.0]), np.zeros(1), OuterOptions(),
                          m_c=1)
        assert state.rho == 37.0

    def test_bcl_mode_keeps_sigma_at_zero(self):
        state = _state(sigma=0.0)
        update_on_success(state, _solution([4.0]), np.zeros(1),
                          OuterOptions(mode=BCL), m_c=1)
        assert state.sigma == 0.0


class TestUpdateOnFailure:
    def test_penalty_and_price_move(self):
        state = _state(rho=10.0, sigma=100.0)
        update_on_failure(state, OuterOptions())
        assert state.rho == 100.0
        assert state.sigma == 10.0
        np.testing.assert_allclose(state.eta, 0.6309573444801932, rtol=1e-12)

    def test_repeated_failures_grow_geometrically(self):
        state = _state(rho=10.0)
        opts = OuterOptions()
        seen = []
        for _ in range(4):
            update_on_failure(state, opts)
            seen.append(state.rho)
        np.testing.assert_allclose(seen, [100.0, 1000.0, 1e4, 1e5])

    def test_point_and_multipliers_untouched(self):
        state = _state()
        state.x = np.array([1.0, 2.0, 3.0])
        state.y = np.array([4.0])
        update_on_failure(state, OuterOptions())
        np.testing.assert_allclose(state.x, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(state.y, [4.0])

    def test_canonical_mode_keeps_penalty(self):
        state = _state(rho=10.0)
        update_on_failure(state, OuterOptions(mode=CANONICAL))
        assert state.rho == 10.0


class TestNextOmega:
    def test_large_measure_just_halves(self):
        assert next_omega(1e-3, 0.2, 1e-6) == 5e-4

    def test_small_measure_squares_first(self):
        np.testing.assert_allclose(next_omega(1e-3, 1e-2, 1e-6), 5e-5, rtol=1e-12)

    def test_floor_reached(self):
        assert next_omega(2e-6, 10.0, 1e-6) == 1e-6
        assert next_omega(1e-6, 1e-9, 1e-6) == 1e-6


class TestDetectors:
    """The Infeasible and Unbounded exits, checked through whole solves."""

    @staticmethod
    def _converged_rejections(rep):
        return [t for t in rep.trace
                if not t.accepted and t.inner_status == CONVERGED]

    def test_infeasible_needs_both_conditions(self, monkeypatch):
        """A rejected candidate ends the run Infeasible only when rho is past
        RHO_BAR and its nonlinear rows violate their bounds by more than
        eta_star.  ridge-eq rejects a violating candidate at a small rho
        and goes on to Optimal; with RHO_BAR at zero the same rejection ends
        it Infeasible.  ball-proj's rejected candidates from the origin meet
        its nonlinear row, so it ends Optimal even with RHO_BAR at zero."""
        rep = solve(catalog_get("ridge-eq").problem)
        assert rep.status == "Optimal"
        first = self._converged_rejections(rep)[0]
        assert first.rho <= driver.RHO_BAR

        monkeypatch.setattr(driver, "RHO_BAR", 0.0)
        rep = solve(catalog_get("ridge-eq").problem)
        assert rep.status == "Infeasible"
        assert rep.majors == first.k + 1

        rep = solve(catalog_get("ball-proj").problem, x_start=np.zeros(3))
        assert rep.status == "Optimal"
        assert self._converged_rejections(rep)

    def test_infeasible_test_waits_for_the_penalty(self, monkeypatch):
        """The violation test calls c once more, so it runs only once rho is
        past RHO_BAR: ridge-eq's rejections at small rho call it never."""
        original = SlackForm.nonlinear_bound_violation
        c_calls = []

        def counted(sf, x):
            before = sf.nlp.n_ceval
            out = original(sf, x)
            c_calls.append(sf.nlp.n_ceval - before)
            return out

        monkeypatch.setattr(SlackForm, "nonlinear_bound_violation", counted)
        rep = solve(catalog_get("ridge-eq").problem)
        assert rep.status == "Optimal"
        assert self._converged_rejections(rep)
        assert sum(c_calls) == 0

    def test_unbounded_needs_feasible_point(self):
        """min -x1 subject to x2^2 = 1 is unbounded along x1, so every
        subproblem is.  From x2 = 0.5, off the row, the run rejects each
        major and never reports Unbounded; from x2 = 1 it stops at once."""
        def problem(x2):
            return NlpProblem(
                n=2, m_c=1, m_A=0, eval_f=lambda x: -float(x[0]),
                eval_g=lambda x: np.array([-1.0, 0.0]),
                eval_c=lambda x: np.array([x[1] ** 2]),
                eval_J=lambda x: np.array([[0.0, 2.0 * x[1]]]),
                A=np.zeros((0, 2)), bounds_x=(np.full(2, -INF), np.full(2, INF)),
                bounds_c=(np.ones(1), np.ones(1)),
                bounds_A=(np.zeros(0), np.zeros(0)), x_tilde=np.array([0.0, x2]))

        rep = solve(problem(0.5), OuterOptions(max_major=3))
        assert rep.status == "IterationLimit"
        assert [t.inner_status for t in rep.trace] == [UNBOUNDED] * 3
        assert not any(t.accepted for t in rep.trace)

        rep = solve(problem(1.0))
        assert rep.status == "Unbounded"
        assert rep.majors == 1

    @pytest.mark.parametrize("x_start", [(2.0, 2.0), (1.784, 1.493),
                                         (1.0, 0.5)])
    def test_unbounded_off_the_row_stops_with_the_penalty(self, x_start):
        """unbounded-ray from a start off its row: each subproblem is
        Unbounded and rejected, and rho grows tenfold a major.  Once rho is
        past RHO_BAR the run ends CannotImprove at the start, before the
        kernel's numbers overflow."""
        rep = solve(catalog_get("unbounded-ray").problem,
                    x_start=np.array(x_start))
        assert rep.status == "CannotImprove"
        assert [t.inner_status for t in rep.trace] == [UNBOUNDED] * rep.majors
        assert not any(t.accepted for t in rep.trace)
        assert rep.trace[-1].rho > driver.RHO_BAR >= rep.trace[-2].rho
        np.testing.assert_array_equal(rep.x, x_start)


class TestOptionsValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            OuterOptions(mode="turbo")

    def test_bad_targets(self):
        with pytest.raises(ValueError):
            OuterOptions(omega_star=0.0)

    def test_non_finite_targets(self):
        """An infinite eta_star ended infeas-affine Optimal with
        primal_inf = 1, and an infinite omega_star ended circle-proj Optimal
        with comp = 1.23: every residual passes an infinite target."""
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                OuterOptions(eta_star=bad)
            with pytest.raises(ValueError, match="finite"):
                OuterOptions(omega_star=bad)

    def test_bad_first_subproblem_tolerance(self):
        """A NaN omega_0 would stay NaN through next_omega and end every
        subproblem at its iteration limit."""
        for omega_0 in (np.nan, np.inf, 0.0, -1e-3):
            with pytest.raises(ValueError):
                OuterOptions(omega_0=omega_0)

    def test_bad_major_limit(self):
        for max_major in (0, -1):
            with pytest.raises(ValueError):
                OuterOptions(max_major=max_major)


class TestSolve:
    def test_circle_proj_defaults(self):
        entry = catalog_get("circle-proj")
        rep = solve(entry.problem)
        assert rep.status == "Optimal"
        assert abs(rep.final_objective - (np.sqrt(5.0) - 1.0) ** 2) <= 1e-6
        assert rep.majors <= 40
        assert rep.minors > 0 and rep.fevals > 0
        assert len(rep.f_norm_path) == rep.majors + 1

    def test_fixed_variable(self):
        """x1 fixed at 0.4 leaves the circle point (0.4, sqrt(0.84))."""
        p = catalog_get("circle-proj").problem
        p.bounds_x = (np.array([0.4, 0.0]), np.array([0.4, INF]))
        rep = solve(p)
        assert rep.status == "Optimal"
        np.testing.assert_allclose(rep.x, [0.4, np.sqrt(0.84)], atol=1e-6)

    def test_thin_box(self):
        """x1 in [0.4, 0.40001], thinner than twice the probe margin.

        The circle point nearest (2, 1) then has x1 at its upper bound.
        """
        p = catalog_get("circle-proj").problem
        p.bounds_x = (np.array([0.4, 0.0]), np.array([0.40001, INF]))
        rep = solve(p)
        assert rep.status == "Optimal"
        np.testing.assert_allclose(rep.x, [0.40001, np.sqrt(1.0 - 0.40001 ** 2)],
                                   atol=1e-6)

    def test_thin_box_gradient_is_still_checked(self):
        p = catalog_get("circle-proj").problem
        p.bounds_x = (np.array([0.4, 0.0]), np.array([0.40001, INF]))
        p.eval_g = lambda x: np.array([2.0 * (x[0] - 2.0) + 0.1,
                                       2.0 * (x[1] - 1.0)])
        with pytest.raises(ValueError, match=r"derivative check failed.*g\[0\]"):
            solve(p)

    def test_trial_outside_the_domain_of_f(self):
        """f = x - log x: the first spectral steps leave x > 0 and are cut back."""
        p = NlpProblem(
            n=1, m_c=0, m_A=0,
            eval_f=lambda x: float(x[0] - np.log(x[0])),
            eval_g=lambda x: np.array([1.0 - 1.0 / x[0]]),
            eval_c=None, eval_J=None, A=np.zeros((0, 1)),
            bounds_x=(np.array([-INF]), np.array([INF])),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.zeros(0), np.zeros(0)),
            x_tilde=np.array([5.0]))
        with np.errstate(invalid="ignore"):
            rep = solve(p)
        assert rep.status == "Optimal"
        np.testing.assert_allclose(rep.x, [1.0], atol=1e-6)

    def test_optimal_report_is_certified(self):
        rep = solve(catalog_get("two-circles").problem)
        assert rep.status == "Optimal"
        assert rep.residual.primal_inf <= 1e-6
        assert rep.residual.dual_inf <= 1e-6
        assert rep.residual.comp <= 1e-6

    def test_unbounded_ray(self):
        rep = solve(catalog_get("unbounded-ray").problem)
        assert rep.status == "Unbounded"
        assert rep.majors <= 10

    def test_circles_from_the_origin(self):
        """32 unit-circle projections within x >= 0, started at x = 0.

        The nearest circle points are a_i / ||a_i||; one loose linear row
        sum(x) <= 640 stays inactive.
        """
        a, p = _circles(x0=0.0)
        rep = solve(p)
        assert rep.status == "Optimal"
        x_star = a / np.linalg.norm(a, axis=1)[:, None]
        np.testing.assert_allclose(rep.x, x_star.ravel(), atol=1e-4)

    def test_circles_from_the_benchmark_start(self):
        """The same 32 circles from x = 0.5, the benchmark's start.

        Each major's kernel starts on the linearized rows and from the last
        major's BFGS matrix: 75 minors over 5 majors (92 with a first
        penalty of 316).  At that penalty, starting each major with the
        elastics holding the rows' residuals and B at the identity took 255.
        """
        a, p = _circles(x0=0.5)
        rep = solve(p)
        assert rep.status == "Optimal"
        x_star = a / np.linalg.norm(a, axis=1)[:, None]
        np.testing.assert_allclose(rep.x, x_star.ravel(), atol=1e-4)
        assert rep.minors <= 150, rep.minors

    def test_quarter_ellipse_near_its_solution(self):
        """A warm start 2.2e-2 from the solution (0, 1), with y 2.2e-2 off.

        A first-order kernel took 633 minors here and 48 from a start 1.3e-3
        away; the solve should not depend on the start that much.
        """
        rep = solve(catalog_get("quarter-ellipse").problem,
                    x_start=np.array([0.02154435, 1.00006509]),
                    y_start=np.array([0.10345565]))
        assert rep.status == "Optimal"
        assert rep.minors <= 100

    def test_infeasible_rows_surface_before_the_loop(self):
        p = NlpProblem(
            n=2, m_c=0, m_A=1,
            eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(2),
            eval_c=None, eval_J=None, A=np.array([[1.0, 1.0]]),
            bounds_x=(np.zeros(2), np.ones(2)),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.array([10.0]), np.array([10.0])),
            x_tilde=np.array([0.5, 0.5]))
        rep = solve(p)
        assert rep.status == "Infeasible"
        assert rep.majors == 0

    def test_linear_only_problem_skips_outer_loop(self):
        entry = catalog_get("scaled-quads")
        rep = solve(entry.problem)
        assert rep.status == "Optimal"
        assert rep.majors == 0
        assert abs(rep.final_objective - entry.known_objective) <= 1e-5

    def test_wrong_gradient_is_rejected_up_front(self):
        p = NlpProblem(
            n=2, m_c=0, m_A=0,
            eval_f=lambda x: x[0] * x[1],
            eval_g=lambda x: np.array([x[0], x[1]]),
            eval_c=None, eval_J=None, A=np.zeros((0, 2)),
            bounds_x=(np.full(2, -INF), np.full(2, INF)),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.zeros(0), np.zeros(0)),
            x_tilde=np.array([2.0, 3.0]))
        with pytest.raises(ValueError, match="derivative check"):
            solve(p)

    def test_start_overrides(self):
        entry = catalog_get("circle-proj")
        rep = solve(entry.problem, x_start=entry.known_x + 1e-2,
                    y_start=entry.known_y + 1e-2)
        assert rep.status == "Optimal"
        assert rep.majors <= 5

    def test_rejection_reuses_the_residual(self, monkeypatch):
        """A rejected major leaves x, y and z alone, so the KKT residual is
        evaluated once at the start and once per accepted major; the report
        takes the last one."""
        original = driver.kkt_residual
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(driver, "kkt_residual", counted)
        rep = solve(catalog_get("ridge-eq").problem)
        accepted = sum(rec.accepted for rec in rep.trace)
        assert accepted < rep.majors
        assert len(calls) == 1 + accepted

    def test_each_point_is_evaluated_once(self, monkeypatch):
        """f is called by the derivative check, once at every point the
        kernel evaluates, and once for the report's objective; the report's
        residual is the loop's, equal to a fresh one.  two-circles has no
        linear rows, so every kernel call is a subproblem."""
        problem = catalog_get("two-circles").problem
        deriv_calls, kernel_points = [], []
        check, kernel = driver.check_derivatives, innersolve.bound_solve

        def counted_check(p, x):
            before = p.n_feval
            out = check(p, x)
            deriv_calls.append(p.n_feval - before)
            return out

        def counted_kernel(*args, **kwargs):
            res = kernel(*args, **kwargs)
            kernel_points.append(res.n_evals)
            return res

        monkeypatch.setattr(driver, "check_derivatives", counted_check)
        monkeypatch.setattr(innersolve, "bound_solve", counted_kernel)
        before = problem.n_feval
        rep = solve(problem)
        assert rep.status == "Optimal" and rep.majors > 1
        assert (problem.n_feval - before
                == sum(deriv_calls) + sum(kernel_points) + 1)

        fresh = kkt_residual(build_slack_form(problem), rep.x_ext, rep.y, rep.z)
        assert rep.residual == fresh

    def test_iteration_cap_is_honest(self):
        rep = solve(catalog_get("circle-proj").problem,
                    OuterOptions(max_major=1))
        assert rep.status == "IterationLimit"
        assert rep.majors == 1


class TestTraceSchedules:
    def _trace(self, name="circle-proj", **kwargs):
        return solve(catalog_get(name).problem, OuterOptions(**kwargs)).trace

    def test_penalty_is_nondecreasing_and_chained(self):
        trace = self._trace()
        for rec in trace:
            assert rec.rho_next >= rec.rho
        for prev, cur in zip(trace, trace[1:]):
            assert cur.rho == prev.rho_next
            assert cur.sigma == prev.sigma_next
            assert cur.eta == prev.eta_next
            assert cur.omega == prev.omega_next

    def test_acceptance_branches_move_the_right_knobs(self):
        trace = self._trace("ridge-eq")
        saw_failure = False
        for rec in trace[:-1]:
            if rec.accepted:
                assert rec.rho_next == rec.rho
                assert SIGMA_LO <= rec.sigma_next <= SIGMA_HI
            else:
                saw_failure = True
                assert rec.rho_next == TAU_RHO * rec.rho
                np.testing.assert_allclose(
                    rec.eta_next, ETA_0 / rec.rho_next ** ALPHA,
                    rtol=1e-12)
        assert saw_failure

    def test_omega_is_nonincreasing_with_floor(self):
        for rec in self._trace():
            assert rec.omega_next <= rec.omega
            assert rec.omega_next >= 1e-6

    def test_eta_tightens_after_acceptance(self):
        for rec in self._trace():
            if rec.accepted:
                np.testing.assert_allclose(
                    rec.eta_next, rec.eta / rec.rho ** BETA, rtol=1e-12)

    def test_eta_target_is_what_acceptance_used(self):
        """eta underflows far below eta_star; the test used the larger one."""
        trace = self._trace("ridge-eq", omega_star=1e-8)
        assert any(rec.eta < 1e-6 for rec in trace)
        for rec in trace:
            assert rec.eta_target == max(rec.eta, 1e-6)
            if rec.inner_status == CONVERGED:
                assert rec.accepted == (rec.c_norm <= rec.eta_target)

    def test_canonical_mode_pins_price_and_penalty(self):
        trace = self._trace("linear-as-nl", mode=CANONICAL)
        assert all(rec.sigma == 1e4 for rec in trace)
        assert all(rec.rho == trace[0].rho for rec in trace)
        assert all(rec.accepted for rec in trace)

    def test_bcl_mode_pins_price_at_zero(self):
        trace = self._trace("linear-as-nl", mode=BCL)
        assert all(rec.sigma == 0.0 for rec in trace)
        assert all(rec.sigma_next == 0.0 for rec in trace)

    def test_stabilized_mode_constant(self):
        assert STABILIZED == OuterOptions().mode


def _hs26():
    """Hock & Schittkowski (1981) problem 26: min (x1 - x2)^2 + (x2 - x3)^4
    subject to (1 + x2^2) x1 + x3^4 = 3, from (-2.6, 2, 2); f* = 0 at
    (1, 1, 1).  Degenerate: the gradient of f vanishes there, so y* = 0."""
    return NlpProblem(
        n=3, m_c=1, m_A=0,
        eval_f=lambda x: float((x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 4),
        eval_g=lambda x: np.array([2.0 * (x[0] - x[1]),
                                   -2.0 * (x[0] - x[1]) + 4.0 * (x[1] - x[2]) ** 3,
                                   -4.0 * (x[1] - x[2]) ** 3]),
        eval_c=lambda x: np.array([(1.0 + x[1] ** 2) * x[0] + x[2] ** 4]),
        eval_J=lambda x: np.array([[1.0 + x[1] ** 2, 2.0 * x[0] * x[1],
                                    4.0 * x[2] ** 3]]),
        A=np.zeros((0, 3)), bounds_x=(np.full(3, -INF), np.full(3, INF)),
        bounds_c=(np.full(1, 3.0), np.full(1, 3.0)),
        bounds_A=(np.zeros(0), np.zeros(0)), x_tilde=np.array([-2.6, 2.0, 2.0]),
        name="hs26")


class TestStartingPenalty:
    """The stabilized mode starts at RHO_FLOOR; bcl and canonical at
    10^2.5 / m_c.  On linearized rows a large first penalty brakes every
    step like a proximal term."""

    @pytest.mark.parametrize("mode, name, rho_0", [
        (STABILIZED, "circle-proj", RHO_FLOOR),
        (BCL, "circle-proj", 10.0 ** 2.5),
        (CANONICAL, "circle-proj", 10.0 ** 2.5),
        (BCL, "two-circles", 10.0 ** 2.5 / 2),
        (CANONICAL, "two-circles", 10.0 ** 2.5 / 2)])
    def test_first_penalty_by_mode(self, mode, name, rho_0):
        opts = OuterOptions(mode=mode, max_major=1)
        assert solve(catalog_get(name).problem, opts).trace[0].rho == rho_0

    def test_rosenbrock_ball_in_few_majors(self):
        """35 majors, 4 of them rejected, when the first penalty was 316."""
        rep = solve(catalog_get("rosenbrock-ball").problem)
        assert rep.status == "Optimal"
        assert rep.majors <= 10, rep.majors

    def test_hs26_from_its_standard_start(self):
        """IterationLimit after 500 majors when the first penalty was 316."""
        rep = solve(_hs26())
        assert rep.status == "Optimal"
        assert rep.final_objective <= 1e-6
        assert rep.majors <= 20, rep.majors

    def test_tight_targets_solve_the_whole_catalog(self):
        """At 1e-9 targets rosenbrock-ball ended CannotImprove with rho at
        3.2e13 when the first penalty was 316."""
        opts = OuterOptions(omega_star=1e-9, eta_star=1e-9)
        for name in catalog_names():
            entry = catalog_get(name)
            if entry.classification == SOLVABLE:
                assert solve(entry.problem, opts).status == "Optimal", name


class TestModeAgreement:
    def test_modes_agree_on_a_convex_problem(self):
        entry = catalog_get("dist-to-parabola")
        finals = {}
        for mode in (STABILIZED, CANONICAL, BCL):
            rep = solve(catalog_get("dist-to-parabola").problem,
                        OuterOptions(mode=mode))
            assert rep.status == "Optimal", mode
            finals[mode] = rep.final_objective
        for mode in (CANONICAL, BCL):
            assert abs(finals[mode] - finals[STABILIZED]) <= 1e-5
        assert abs(finals[STABILIZED] - entry.known_objective) <= 1e-5
