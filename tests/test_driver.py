"""Tests for the outer loop: schedules, branch logic, modes, and statuses."""

import importlib.util
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from slcl import driver, innersolve
from slcl.catalog import SOLVABLE, catalog_get, catalog_names
from slcl.driver import (ALPHA, BCL, BETA, CANONICAL, ETA_0, RHO_FLOOR, SIGMA_HI,
                         SIGMA_LO, STABILIZED, TAU_RHO, OuterOptions, OuterState,
                         next_omega, solve, update_on_failure,
                         update_on_success)
from slcl.innersolve import CONVERGED, ITERATION_LIMIT, UNBOUNDED, SubproblemSolution
from slcl.linearize import ElasticSubproblem, linearize_constraints
from slcl.merit import kkt_residual, min_norm_stationarity
from slcl.model import INF, NlpProblem, SlackForm, build_slack_form


IDENTITY_TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def _identity_tool():
    """tools/identity.py, loaded from this checkout."""
    spec = importlib.util.spec_from_file_location("identity", IDENTITY_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _state(rho=10.0, sigma=100.0, eta=1.0, omega=1e-3, m=1, n_ext=3):
    return OuterState(y=np.zeros(m), z=np.zeros(n_ext), rho=rho, sigma=sigma,
                      eta=eta, omega=omega)


def _solution(delta_y, n_ext=3):
    delta_y = np.atleast_1d(np.asarray(delta_y, dtype=float))
    return SubproblemSolution(
        point=None, delta_y=delta_y, z_star=np.zeros(n_ext),
        v_star=np.zeros(len(delta_y)), w_star=np.zeros(len(delta_y)),
        status=CONVERGED, inner_iterations=1, hess=None, rho=0.0, start=None)


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


def _disc(**changes):
    """The README's disc example, projecting (2, 1) onto the unit disc in
    the nonnegative quadrant, with some of its fields replaced."""
    fields = dict(
        n=2, m_c=1, m_A=0,
        eval_f=lambda x: (x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2,
        eval_g=lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] - 1.0)]),
        eval_c=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        eval_J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        A=np.zeros((0, 2)), bounds_x=(np.zeros(2), np.full(2, INF)),
        bounds_c=(np.array([-INF]), np.array([1.0])),
        bounds_A=(np.zeros(0), np.zeros(0)), x_tilde=np.array([0.5, 0.5]))
    fields.update(changes)
    return NlpProblem(**fields)


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
        state.y = np.array([4.0])
        state.z = np.array([1.0, 2.0, 3.0])
        update_on_failure(state, OuterOptions())
        np.testing.assert_allclose(state.y, [4.0])
        np.testing.assert_allclose(state.z, [1.0, 2.0, 3.0])

    def test_canonical_mode_keeps_penalty(self):
        state = _state(rho=10.0)
        update_on_failure(state, OuterOptions(mode=CANONICAL))
        assert state.rho == 10.0


class TestNextOmega:
    def test_large_measure_just_halves(self):
        assert next_omega(1e-3, 0.2, 1e-6) == 5e-4
        # a measure whose square overflows a float
        assert next_omega(1e-3, 1e200, 1e-6) == 5e-4

    def test_small_measure_squares_first(self):
        np.testing.assert_allclose(next_omega(1e-3, 1e-2, 1e-6), 5e-5, rtol=1e-12)

    def test_floor_reached(self):
        assert next_omega(2e-6, 10.0, 1e-6) == 1e-6
        assert next_omega(1e-6, 1e-9, 1e-6) == 1e-6


class TestFirstTolerance:
    """The first subproblem tolerance is the square of the start's KKT
    measure F0, capped by omega_0 and floored at omega_star, as next_omega
    sets the later ones; the trace reads it in the problem's units."""

    @staticmethod
    def _near(r, **kwargs):
        """saddle-channel from r off its solution in x and y, as the
        warm-start workload starts it; both scale factors are 1 there, so
        F0 reads the same in the scaled units and in the problem's."""
        entry = catalog_get("saddle-channel")
        rep = solve(entry.problem, OuterOptions(**kwargs),
                    x_start=entry.known_x + r, y_start=entry.known_y + r)
        assert rep.f_scale == 1.0 and (rep.row_scale == 1.0).all()
        return rep

    def test_far_start_takes_the_cap(self):
        rep = solve(catalog_get("circle-proj").problem)
        assert rep.f_norm_0 == 3.0
        assert rep.trace[0].omega == OuterOptions().omega_0 == 0.1

    @pytest.mark.parametrize("r", [1e-2, 1e-3, 0.0])
    def test_near_start_takes_the_square_of_its_measure(self, r):
        rep = self._near(r)
        assert rep.trace[0].omega == max(rep.f_norm_0 ** 2, 1e-6) < 1e-3
        assert rep.status == "Optimal"

    @pytest.mark.parametrize("r", [1e-2, 0.5])
    def test_cap_below_omega_star_is_kept(self, r):
        """Criterion 7 solves its first major at omega_0 = 1e-8; the next
        major returns to omega_star."""
        rep = self._near(r, omega_0=1e-8)
        assert rep.trace[0].omega == 1e-8
        assert rep.majors > 1 and rep.trace[1].omega == 1e-6

    def test_circles_from_the_benchmark_start_in_few_minors(self):
        """The benchmark's circles start (x = 0.5) is far, so its first
        subproblem is solved only to omega_0: 107 minors over seeds 0-4,
        where the fixed first tolerance of 1e-3 took 163."""
        minors = 0
        for seed in range(5):
            _, p = _circles(0.5, 32, seed)
            rep = solve(p)
            assert rep.status == "Optimal", seed
            minors += rep.minors
        assert minors <= 125, minors


class TestDetectors:
    """The Infeasible and Unbounded exits, checked through whole solves."""

    @staticmethod
    def _converged_rejections(rep):
        return [t for t in rep.trace
                if not t.accepted and t.inner_status == CONVERGED]

    def test_infeasible_needs_both_conditions(self, monkeypatch, rescaled):
        """A rejected candidate ends the run Infeasible only when rho is past
        RHO_BAR and its nonlinear rows violate their bounds by more than
        eta_star.  sphere-min-sum rejects a violating candidate at a small
        rho and goes on to Optimal; with RHO_BAR at zero the same rejection
        ends it Infeasible.  ball-proj with f a thousand times larger, more
        than its scaling takes back, rejects candidates from the origin that
        meet its nonlinear row, so it ends Optimal even with RHO_BAR at zero."""
        rep = solve(catalog_get("sphere-min-sum").problem)
        assert rep.status == "Optimal"
        first = self._converged_rejections(rep)[0]
        assert first.rho <= driver.RHO_BAR

        monkeypatch.setattr(driver, "RHO_BAR", 0.0)
        rep = solve(catalog_get("sphere-min-sum").problem)
        assert rep.status == "Infeasible"
        assert rep.majors == first.k + 1

        rep = solve(rescaled(catalog_get("ball-proj").problem, 1e3, 1.0),
                    OuterOptions(omega_star=1e-3), x_start=np.zeros(3))
        assert rep.status == "Optimal"
        assert self._converged_rejections(rep)

    def test_infeasible_test_waits_for_the_penalty(self, monkeypatch):
        """The violation tests read the c of the point's record and call c
        never.  sphere-min-sum's rejection at small rho does not run the
        Infeasible test; unbounded-ray from its own start runs the Unbounded
        test, which fires at once, and with RHO_BAR at zero sphere-min-sum's
        fires."""
        original = SlackForm.nonlinear_bound_violation
        c_calls = []

        def counted(sf, x, r):
            before = sf.nlp.n_ceval
            out = original(sf, x, r)
            c_calls.append(sf.nlp.n_ceval - before)
            return out

        monkeypatch.setattr(SlackForm, "nonlinear_bound_violation", counted)
        rep = solve(catalog_get("sphere-min-sum").problem)
        assert rep.status == "Optimal"
        assert self._converged_rejections(rep)
        assert sum(c_calls) == 0

        rep = solve(catalog_get("unbounded-ray").problem)
        assert rep.status == "Unbounded"
        assert len(c_calls) == 1
        monkeypatch.setattr(driver, "RHO_BAR", 0.0)
        rep = solve(catalog_get("sphere-min-sum").problem)
        assert rep.status == "Infeasible"
        assert len(c_calls) == 2 and sum(c_calls) == 0

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


def _fake_solve_lc(monkeypatch, change):
    """Make driver.solve_lc return the real solution after change(sol)."""
    real = driver.solve_lc

    def fake(*args, **kwargs):
        sol = real(*args, **kwargs)
        change(sol)
        return sol

    monkeypatch.setattr(driver, "solve_lc", fake)


class TestCannotImprove:
    """The CannotImprove exits besides the penalty's (see TestDetectors)."""

    @staticmethod
    def _stall(sol):
        sol.status = ITERATION_LIMIT

    def test_two_kernel_stalls_at_the_omega_floor(self, monkeypatch):
        """A kernel that stops at its limit is rejected; the run ends at the
        second such major whose omega is at omega_star, however many came
        before it above the floor.  The second run starts one decade above
        the floor, so it reaches the floor before the rejections raise rho
        to where the real kernels take thousands of minors."""
        _fake_solve_lc(monkeypatch, self._stall)
        problem = catalog_get("circle-proj").problem
        rep = solve(problem, OuterOptions(omega_0=1e-6, omega_star=1e-6))
        assert rep.status == "CannotImprove" and rep.majors == 2
        rep = solve(problem, OuterOptions(omega_0=1e-5))
        omegas = [t.omega for t in rep.trace]
        assert rep.status == "CannotImprove" and rep.majors > 3
        assert omegas[-2] == omegas[-1] == 1e-6 < omegas[-3]
        assert not any(t.accepted for t in rep.trace)
        assert [t.inner_status for t in rep.trace] == [ITERATION_LIMIT] * rep.majors

    def test_a_kernel_stall_ends_the_canonical_mode_at_once(self, monkeypatch):
        """With its penalty fixed the canonical mode has nothing to change."""
        _fake_solve_lc(monkeypatch, self._stall)
        rep = solve(catalog_get("circle-proj").problem, OuterOptions(mode=CANONICAL))
        assert rep.status == "CannotImprove" and rep.majors == 1
        assert not rep.trace[0].accepted

    def test_canonical_mode_needing_elastic_help(self):
        """infeas-affine's linearized row cannot be met, so the canonical
        mode's first candidate keeps an elastic at 1: it is accepted, as
        every canonical candidate is, and the run ends there."""
        rep = solve(catalog_get("infeas-affine").problem, OuterOptions(mode=CANONICAL))
        assert rep.status == "CannotImprove" and rep.majors == 1
        (t,) = rep.trace
        assert t.accepted and t.inner_status == CONVERGED
        assert t.elastic_inf == pytest.approx(1.0)

    def test_two_kernels_ending_where_they_started(self, monkeypatch):
        """A linear-only subproblem converges to a point the KKT test at
        omega_star and eta_star rejects; it is accepted, and each later
        major at the floor converges where it started, its candidate the
        base record.  The second such stall ends the run CannotImprove.
        The shift is in the scaled units of the subproblem, and the
        report's residual in the problem's."""
        def shift(sol):
            sol.z_star = sol.z_star + 1e-3

        problem = catalog_get("box-quadratic").problem
        assert solve(problem).status == "Optimal"
        _fake_solve_lc(monkeypatch, shift)
        rep = solve(problem)
        assert rep.status == "CannotImprove" and rep.majors == 3
        assert all(t.accepted and t.inner_status == CONVERGED for t in rep.trace)
        assert [t.inner_iterations for t in rep.trace][1:] == [0, 0]
        assert rep.residual.dual_inf == pytest.approx(1e-3 / rep.f_scale)


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


class TestDegenerateInputs:
    """A NaN or infinite input is rejected with a message naming it.  These
    once surfaced as a failed derivative check, a non-finite value at the
    start point, or a TypeError from the major loop."""

    @pytest.mark.parametrize("what, problem, starts, options", [
        pytest.param("bounds_x", {"bounds_x": ([np.nan, 0.0], [INF, INF])}, {}, {},
                     id="bounds_x-nan"),
        pytest.param("bounds_x", {"bounds_x": ([INF, 0.0], [INF, INF])}, {}, {},
                     id="bounds_x-lower-inf"),
        pytest.param("bounds_c", {"bounds_c": ([np.nan], [1.0])}, {}, {},
                     id="bounds_c-nan"),
        pytest.param("bounds_c", {"bounds_c": ([-INF], [-INF])}, {}, {},
                     id="bounds_c-upper-minus-inf"),
        pytest.param(r"\bA\b", {"m_A": 1, "A": [[np.nan, 1.0]],
                                "bounds_A": ([-INF], [1.0])}, {}, {}, id="A-nan"),
        pytest.param("x_tilde", {"x_tilde": [np.nan, 0.5]}, {}, {}, id="x_tilde-nan"),
        pytest.param("x_tilde", {"x_tilde": [INF, 0.5]}, {}, {}, id="x_tilde-inf"),
        pytest.param("x_start", {}, {"x_start": [np.nan, 0.5]}, {}, id="x_start-nan"),
        pytest.param("y_start", {}, {"y_start": [np.nan]}, {}, id="y_start-nan"),
        pytest.param("y_start", {}, {"y_start": [INF]}, {}, id="y_start-inf"),
        pytest.param("max_major", {}, {}, {"max_major": 2.5}, id="max_major-float"),
        pytest.param("x_start", {}, {"x_start": [1.0, 2.0, 3.0]}, {}, id="x_start-shape"),
        pytest.param("max_major", {}, {}, {"max_major": True}, id="max_major-bool"),
    ])
    def test_rejected_naming_the_input(self, what, problem, starts, options):
        with pytest.raises(ValueError, match=what):
            solve(_disc(**problem), OuterOptions(**options), **starts)

    @pytest.mark.parametrize("what, value", [
        pytest.param("bounds_x", ([np.nan, 0.0], [INF, INF]), id="bounds_x-nan"),
        pytest.param("bounds_c", ([-INF], [np.nan]), id="bounds_c-nan"),
        pytest.param("x_tilde", [np.nan, 0.5], id="x_tilde-nan"),
        pytest.param("A", np.zeros((1, 2)), id="A-shape"),
    ])
    def test_inputs_reassigned_after_construction_are_checked(self, what, value):
        """solve checks the fields again: these once raised a TypeError or
        failed the derivative check."""
        p = _disc()
        setattr(p, what, value)
        with pytest.raises(ValueError, match=rf"\b{what}\b"):
            solve(p)

    @pytest.mark.parametrize("what, value, message", [
        pytest.param(what, value, message, id=f"{what}-{case}")
        for what, lo, hi in [("bounds_x", [0.0, 0.0], [INF, INF]),
                             ("bounds_c", [-INF], [1.0]),
                             ("bounds_A", [-INF], [10.0])]
        for case, value, message in [
            ("shape", (lo + [0.0], hi + [1.0]), "has shape"),
            ("nan", ([np.nan] + lo[1:], hi), "need lower <= upper"),
            ("crossed", ([2.0] + lo[1:], [1.0] + hi[1:]), "need lower <= upper"),
            ("lower-inf", ([INF] + lo[1:], [INF] + hi[1:]), "need lower <= upper"),
            ("upper-minus-inf", ([-INF] + lo[1:], [-INF] + hi[1:]),
             "need lower <= upper")]
    ] + [
        pytest.param(what, value, message, id=f"{what}-{case}")
        for what, case, value, message in [
            ("A", "shape", [[1.0, 1.0, 1.0]], "has shape"),
            ("A", "nan", [[np.nan, 1.0]], "must be finite"),
            ("A", "inf", [[1.0, INF]], "must be finite"),
            ("x_tilde", "shape", [0.5, 0.5, 0.5], "has shape"),
            ("x_tilde", "nan", [np.nan, 0.5], "must be finite"),
            ("x_tilde", "inf", [0.5, INF], "must be finite"),
            ("x_tilde", "minus-inf", [-INF, 0.5], "must be finite")]
    ])
    def test_each_bad_input_is_named(self, spy_calls, what, value, message):
        """One pass checks every input; each bad one on its own raises the
        ValueError naming it, at construction and when reassigned before
        solve, before any callback call."""
        row = {"m_A": 1, "A": np.array([[1.0, 1.0]]),
               "bounds_A": (np.array([-INF]), np.array([10.0]))}
        match = rf"^{what}\b.*{message}"
        with pytest.raises(ValueError, match=match):
            _disc(**{**row, what: value})
        p = _disc(**row)
        calls = spy_calls(p)
        setattr(p, what, value)
        with pytest.raises(ValueError, match=match):
            solve(p)
        assert calls == []
        assert (p.n_feval, p.n_geval, p.n_ceval, p.n_jeval) == (0, 0, 0, 0)

    def test_bounds_reassigned_as_lists_are_used(self):
        p = _disc()
        p.bounds_x = ([0.4, 0.0], [0.4, INF])
        rep = solve(p)
        assert rep.status == "Optimal"
        np.testing.assert_allclose(rep.x, [0.4, np.sqrt(0.84)], atol=1e-6)


def _sphere_and_plane():
    """min |x - (2, -1, -1)|^2 over x >= 0 on x.x = 1 and x1 + x2 + x3 = 1,
    from (1/3, 1/3, 1/3), where the linearized sphere is parallel to the
    plane: major 0's start step keeps the base point (the linear-row
    fallback), and the kernel's one step from there meets x2 = 0 and
    x3 = 0 together, so it moves the second onto its bound after
    evaluating the point."""
    t = np.array([2.0, -1.0, -1.0])
    return NlpProblem(
        n=3, m_c=1, m_A=1, eval_f=lambda x: float((x - t) @ (x - t)),
        eval_g=lambda x: 2.0 * (x - t), eval_c=lambda x: np.array([x @ x]),
        eval_J=lambda x: 2.0 * x.reshape(1, 3), A=np.ones((1, 3)),
        bounds_x=(np.zeros(3), np.full(3, INF)), bounds_c=(np.ones(1), np.ones(1)),
        bounds_A=(np.ones(1), np.ones(1)), x_tilde=np.full(3, 1.0 / 3.0))


class TestSolve:
    def test_circle_proj_defaults(self):
        """The report's minors are its majors' kernel iterations.  From
        circle-proj's own start each start step, from the identity at major
        0 and from the carried matrix after, solves its subproblem, so the
        kernels take none; from (1, 1) they take some."""
        entry = catalog_get("circle-proj")
        rep = solve(entry.problem)
        assert rep.status == "Optimal"
        assert abs(rep.final_objective - (np.sqrt(5.0) - 1.0) ** 2) <= 1e-6
        assert rep.majors <= 40
        assert rep.minors == sum(t.inner_iterations for t in rep.trace) == 0
        assert (rep.f_evals, rep.g_evals, rep.c_evals, rep.J_evals) == (
            entry.problem.n_feval, entry.problem.n_geval,
            entry.problem.n_ceval, entry.problem.n_jeval)
        rep = solve(entry.problem, x_start=[1.0, 1.0])
        assert rep.status == "Optimal"
        assert rep.minors == sum(t.inner_iterations for t in rep.trace) > 0

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

    def test_start_at_large_x(self):
        """min x^2 from x = 1e10: the derivative check's relative step
        passes the correct gradient there."""
        p = NlpProblem(
            n=1, m_c=0, m_A=0, eval_f=lambda x: x[0] ** 2,
            eval_g=lambda x: 2.0 * x, eval_c=None, eval_J=None,
            A=np.zeros((0, 1)), bounds_x=([-INF], [INF]), bounds_c=((), ()),
            bounds_A=((), ()), x_tilde=[1e10])
        assert solve(p).status == "Optimal"

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
        """Linear rows that no point of the box meets end the run before
        any major, at the proximal start's least-squares point: (1, 1) for
        x1 + x2 = 10 on [0, 1]^2, where the row misses by 8, and for
        x1 + x2 >= 3 from (0.2, 0.1), where the squared residual is
        stationary.  The clipped start itself misses by 9 and by 2.7."""
        def rows_on_the_unit_box(lA, uA, x_tilde):
            return NlpProblem(
                n=2, m_c=0, m_A=1,
                eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(2),
                eval_c=None, eval_J=None, A=np.array([[1.0, 1.0]]),
                bounds_x=(np.zeros(2), np.ones(2)),
                bounds_c=(np.zeros(0), np.zeros(0)),
                bounds_A=(np.array([lA]), np.array([uA])),
                x_tilde=np.array(x_tilde))

        rep = solve(rows_on_the_unit_box(10.0, 10.0, [0.5, 0.5]))
        assert rep.status == "Infeasible"
        assert rep.majors == 0
        assert rep.f_norm_0 == rep.residual.f_norm
        np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-12)
        assert rep.residual.primal_inf == pytest.approx(8.0, abs=1e-12)

        p = rows_on_the_unit_box(3.0, INF, [0.2, 0.1])
        rep = solve(p)
        assert rep.status == "Infeasible" and rep.majors == 0
        np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-12)
        lin = linearize_constraints(build_slack_form(p), rep.x_ext)
        assert min_norm_stationarity(lin) <= 1e-12

    def test_several_infeasible_rows_give_a_stationary_certificate(self):
        """x1 >= 2 and x1 + x2 <= -1 on [0, 1]^2: the points of least
        elastic sum form a segment, on which phase 1 stops at (2/3, 0), where
        the squared residual's measure is 1/3; the report is the point where
        that measure is 0, (1/2, 0)."""
        p = NlpProblem(
            n=2, m_c=0, m_A=2,
            eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(2),
            eval_c=None, eval_J=None, A=np.array([[1.0, 0.0], [1.0, 1.0]]),
            bounds_x=(np.zeros(2), np.ones(2)),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.array([2.0, -INF]), np.array([INF, -1.0])),
            x_tilde=np.array([0.5, 0.5]))
        rep = solve(p)
        assert rep.status == "Infeasible" and rep.majors == 0
        lin = linearize_constraints(build_slack_form(p), rep.x_ext)
        assert min_norm_stationarity(lin) <= 1e-8
        np.testing.assert_allclose(rep.x, [0.5, 0.0], atol=1e-8)

    def test_linear_only_problem_takes_one_major(self):
        """Linear rows are their own linearization, so the first subproblem
        is the whole problem: it is solved at omega_star and accepted."""
        entry = catalog_get("scaled-quads")
        rep = solve(entry.problem)
        assert rep.status == "Optimal" and rep.majors == 1
        (t,) = rep.trace
        assert t.accepted and t.omega == OuterOptions().omega_star
        assert abs(rep.final_objective - entry.known_objective) <= 1e-5

    def test_start_measure_is_defined_on_every_exit(self):
        """f_norm_0, F at the start, is a finite float on every exit of the
        catalog's runs, Infeasible before the loop included."""
        statuses = set()
        for name in catalog_names():
            rep = solve(catalog_get(name).problem)
            statuses.add(rep.status)
            assert isinstance(rep.f_norm_0, float), name
            assert 0.0 <= rep.f_norm_0 < INF, name
        assert {"Optimal", "Infeasible", "Unbounded"} <= statuses

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

    @staticmethod
    def _sqrt_problem(x_tilde, eval_g=None):
        """min (sqrt(x) - 2)^2 with sqrt(x) <= 1.5 on 1 <= x <= 10, whose
        callbacks fail outside x >= 0; the solution is x = 2.25."""
        return NlpProblem(
            n=1, m_c=1, m_A=0,
            eval_f=lambda x: (math.sqrt(x[0]) - 2.0) ** 2,
            eval_g=eval_g or (lambda x: np.array([1.0 - 2.0 / math.sqrt(x[0])])),
            eval_c=lambda x: np.array([math.sqrt(x[0])]),
            eval_J=lambda x: np.array([[0.5 / math.sqrt(x[0])]]),
            A=np.zeros((0, 1)),
            bounds_x=(np.array([1.0]), np.array([10.0])),
            bounds_c=(np.array([-INF]), np.array([1.5])),
            bounds_A=(np.zeros(0), np.zeros(0)),
            x_tilde=np.array(x_tilde))

    def test_start_outside_the_callbacks_domain(self):
        """The callbacks are called only at points in the bounds, so a start
        outside them and outside the callbacks' domain solves as one inside."""
        for x_tilde in ([-1.0], [2.0]):
            rep = solve(self._sqrt_problem(x_tilde))
            assert rep.status == "Optimal", x_tilde
            np.testing.assert_allclose(rep.x, [2.25], atol=1e-6)

    def test_wrong_shaped_gradient_is_rejected(self):
        p = self._sqrt_problem([2.0], eval_g=lambda x: np.zeros((1, 1)))
        with pytest.raises(ValueError, match="eval_g shape does not match n"):
            solve(p)

    def test_start_overrides(self):
        entry = catalog_get("circle-proj")
        rep = solve(entry.problem, x_start=entry.known_x + 1e-2,
                    y_start=entry.known_y + 1e-2)
        assert rep.status == "Optimal"
        assert rep.majors <= 5

    def test_local_major_converges_at_its_start(self, spy_calls):
        """saddle-channel from near its solution: each kernel starts at the
        minimizer of its model on the linearized row, the identity's at
        major 0 and the carried matrix's after.  From 1e-3 off, that solves
        the second major's subproblem, so its kernel takes no minor, and
        the solve calls g 4 times.  From 1e-2 off the two majors take one
        minor each, and the solve calls g 5 times."""
        known = catalog_get("saddle-channel")
        for offset, minors, g_calls in ((1e-3, [1, 0], 4), (1e-2, [1, 1], 5)):
            problem = catalog_get("saddle-channel").problem
            calls = spy_calls(problem)
            rep = solve(problem, x_start=known.known_x + offset,
                        y_start=known.known_y + offset)
            assert rep.status == "Optimal" and rep.majors == 2
            assert all(t.accepted for t in rep.trace)
            assert [t.inner_iterations for t in rep.trace] == minors
            assert rep.g_evals == sum(kind == "g" for kind, _ in calls) == g_calls

    def test_rejection_reuses_the_residual(self, monkeypatch):
        """A rejected major leaves x, y and z alone, so the KKT residual is
        evaluated once at the start and once at each accepted major, one
        pass giving both the residual in the problem's units the optimality
        test reads and the measure in the scaled units the schedule follows;
        the report takes the last one."""
        original = driver.kkt_residual
        calls = []

        def counted(*args):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(driver, "kkt_residual", counted)
        rep = solve(catalog_get("sphere-min-sum").problem)
        accepted = sum(rec.accepted for rec in rep.trace)
        assert accepted < rep.majors
        assert len(calls) == 1 + accepted
        assert rep.residual is calls[-1][0]

    @staticmethod
    def _spy_records(monkeypatch):
        """Lists filled by a solve: the records linearize_constraints builds
        (the start's), the kernel's records of its candidates (a new one
        where the kernel moved the point onto a bound after evaluating it),
        and each subproblem's base record."""
        built, kernel, bases = [], [], []
        linearize, solve_lc = driver.linearize_constraints, driver.solve_lc
        assemble = driver.assemble_elastic

        def spied_linearize(*args):
            built.append(linearize(*args))
            return built[-1]

        def spied_solve_lc(*args, **kwargs):
            sol = solve_lc(*args, **kwargs)
            kernel.append(sol.point)
            return sol

        def spied_assemble(lin, *args):
            bases.append(lin)
            return assemble(lin, *args)

        monkeypatch.setattr(driver, "linearize_constraints", spied_linearize)
        monkeypatch.setattr(driver, "solve_lc", spied_solve_lc)
        monkeypatch.setattr(driver, "assemble_elastic", spied_assemble)
        return built, kernel, bases

    @staticmethod
    def _spy_kernel(monkeypatch):
        """Lists filled by a solve: the bytes of x at every point a
        subproblem's kernel evaluates, at every point it gives a gradient,
        and one entry per subproblem kernel call saying whether the
        candidate's record is a new one at a point moved onto a bound
        after the last evaluation."""
        evaluated, gradients, snapped = [], [], []
        kernel = innersolve.bound_solve
        evaluate, gradient = ElasticSubproblem.evaluate, ElasticSubproblem.gradient

        def spied_evaluate(sub, u):
            evaluated.append(sub.split(u)[0][:sub.lin.sf.n].tobytes())
            return evaluate(sub, u)

        def spied_gradient(sub, u, point):
            gradients.append(point.x_k[:sub.lin.sf.n].tobytes())
            return gradient(sub, u, point)

        def spied(evaluate, *args, **kwargs):
            res = kernel(evaluate, *args, **kwargs)
            if isinstance(getattr(evaluate, "__self__", None), ElasticSubproblem):
                snapped.append(res.aux is None)
            return res

        monkeypatch.setattr(ElasticSubproblem, "evaluate", spied_evaluate)
        monkeypatch.setattr(ElasticSubproblem, "gradient", spied_gradient)
        monkeypatch.setattr(innersolve, "bound_solve", spied)
        return evaluated, gradients, snapped

    def test_each_point_is_evaluated_once(self, monkeypatch, spy_calls):
        """Each callback is called once at each point it is needed at, and
        nowhere else.  f: the derivative check's probes, every point a
        kernel evaluates, and the reported point.  c: the check's probes,
        x0 (the start's embedding), every point a kernel evaluates, and
        every candidate.  g and J: the check's probe, x0, every point a
        kernel gives a gradient, and every candidate.  A kernel starts at a
        point already evaluated, as sphere-min-sum's rejected major and
        infeas-affine's later ones do, and the derivative check probes x0
        on these problems, so without the problem's memory of its last
        calls these lists would repeat points.  A candidate the kernel moved
        onto a bound after evaluating it (the sphere-and-plane problem's
        first) gets c, g and J there once, which a KKT residual reads.
        There is one record at the start and one per major, and every
        subproblem's base record is one of them.  The report's residual is
        the loop's, equal to a fresh one.  The spies see the subproblems'
        kernels only, not the proximal start's projection onto the
        sphere-and-plane problem's linear row, which calls no callback."""
        probes, check = [], driver.check_derivatives

        def spied_check(p, x):
            probes.append((x.tobytes(), len(seen)))
            out = check(p, x)
            probes.append(len(seen))
            return out

        monkeypatch.setattr(driver, "check_derivatives", spied_check)
        evaluated, gradients, snapped = self._spy_kernel(monkeypatch)
        built, from_kernel, bases = self._spy_records(monkeypatch)
        for name, status, problem in (
                ("two-circles", "Optimal", catalog_get("two-circles").problem),
                ("sphere-min-sum", "Optimal", catalog_get("sphere-min-sum").problem),
                ("infeas-affine", "Infeasible", catalog_get("infeas-affine").problem),
                ("sphere-and-plane", "Optimal", _sphere_and_plane())):
            seen = spy_calls(problem)
            for spied in (probes, evaluated, gradients, snapped, built, from_kernel,
                          bases):
                spied.clear()
            rep = solve(problem)
            assert rep.status == status and rep.majors > 1
            rejects = name in ("sphere-min-sum", "infeas-affine")
            assert rejects == (not all(t.accepted for t in rep.trace))
            assert sum(snapped) == (name == "sphere-and-plane")
            (probe, first), last = probes
            x0 = built[0].x_k[:problem.n].tobytes()
            assert probe == x0
            candidates = {rec.x_k[:problem.n].tobytes() for rec in from_kernel}
            in_check, outside = seen[first:last], seen[:first] + seen[last:]

            def called(kind, calls):
                return sorted(x for k, x in calls if k == kind)

            assert called("g", in_check) == called("J", in_check) == [probe]
            assert called("f", outside) == sorted(set(evaluated) | {rep.x.tobytes()})
            assert called("c", outside) == sorted(set(evaluated) | {x0} | candidates)
            for kind in "gJ":
                assert called(kind, seen) == sorted(set(gradients) | {x0} | candidates)
            assert len(set(seen)) == len(seen), name
            assert not rejects or len(evaluated) > len(set(evaluated))
            assert rep.final_objective == float(problem.eval_f(rep.x))
            assert len(built) == 1 and len(built + from_kernel) == rep.majors + 1
            assert all(any(base is rec for rec in built + from_kernel) for base in bases)

            fresh, _ = kkt_residual(
                linearize_constraints(build_slack_form(problem), rep.x_ext), rep.y, rep.z)
            assert rep.residual == fresh

    def test_every_record_equals_a_fresh_one(self, monkeypatch):
        """Each record the driver reads, the start's, the kernel's at a
        candidate, a new one at a candidate the kernel moved onto a bound
        after evaluating it (the sphere-and-plane problem's), and each
        subproblem's base, holds what a fresh record of the same scaled
        form gives, bit for bit, when the problem remembers no call."""
        _, _, snapped = self._spy_kernel(monkeypatch)
        built, from_kernel, bases = self._spy_records(monkeypatch)
        moved = []
        problems = [(name, catalog_get(name).problem) for name in catalog_names()]
        for name, problem in problems + [("sphere-and-plane", _sphere_and_plane())]:
            for spied in (snapped, built, from_kernel, bases):
                spied.clear()
            solve(problem)
            assert built, name
            moved += [name] * sum(snapped)
            for rec in built + from_kernel + bases:
                problem._last.clear()
                fresh = linearize_constraints(rec.sf, rec.x_k)
                for field in ("c_k", "J_x", "J_k", "g", "offset"):
                    assert np.array_equal(getattr(rec, field),
                                          getattr(fresh, field)), (name, field)
                assert rec.f == fresh.f, name
        assert moved == ["sphere-and-plane"]

    def test_solving_twice_gives_equal_counts(self):
        """A second solve of the same problem instance calls every callback
        as often as the first and returns the same report: building the
        slack form forgets the last calls of the solve before.  The last
        case starts at its minimizer, so its first solve ends at the point
        where its second one first calls g."""
        at_minimizer = NlpProblem(
            n=2, m_c=0, m_A=0, eval_f=lambda x: float((x - 1.0) @ (x - 1.0)),
            eval_g=lambda x: 2.0 * (x - 1.0), eval_c=None, eval_J=None,
            A=np.zeros((0, 2)), bounds_x=(np.full(2, -INF), np.full(2, INF)),
            bounds_c=(np.zeros(0), np.zeros(0)), bounds_A=(np.zeros(0), np.zeros(0)),
            x_tilde=np.ones(2))
        problems = [catalog_get(name).problem for name in
                    ("circle-proj", "ridge-eq", "infeas-affine", "linear-as-nl")]
        for problem in problems + [at_minimizer]:
            first, second = solve(problem), solve(problem)
            assert first.f_evals > 0 and first.g_evals > 0
            for field in ("f_evals", "g_evals", "c_evals", "J_evals", "majors",
                          "minors", "status", "final_objective"):
                assert getattr(first, field) == getattr(second, field), field
            np.testing.assert_array_equal(first.x_ext, second.x_ext)
        np.testing.assert_array_equal(first.x, at_minimizer.x_tilde)

    def test_large_multiplier_starts_keep_every_status(self):
        """Every catalog entry with rows, from y_start = 1e4 on each row,
        ends at the status of its classification with no RuntimeWarning.
        This stops holding from about 3e6: quarter-ellipse ends Infeasible
        there, and at 1e8 eleven of the seventeen entries end wrong."""
        expected = {SOLVABLE: "Optimal", "infeasible": "Infeasible",
                    "unbounded": "Unbounded"}
        runs = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for name in catalog_names():
                entry = catalog_get(name)
                m = entry.problem.m_c + entry.problem.m_A
                if m:
                    rep = solve(entry.problem, y_start=np.full(m, 1e4))
                    assert rep.status == expected[entry.classification], name
                    runs += 1
        assert runs == 17

    def test_no_callback_repeats_a_point(self, spy_calls):
        """Within one solve each callback is called at most once at any x,
        on every catalog entry from its own start and from warm starts near
        its known solution and multipliers."""
        runs = [(name, None, None) for name in catalog_names()]
        rng = np.random.default_rng(19)
        for name in catalog_names():
            entry = catalog_get(name)
            if entry.known_x is None or entry.known_y is None:
                continue
            for r in (1e-1, 1e-3):
                d = rng.standard_normal(entry.problem.n)
                runs.append((name, entry.known_x + r * d / np.abs(d).max(),
                             entry.known_y + r))
        for name, x_start, y_start in runs:
            problem = catalog_get(name).problem
            seen = spy_calls(problem)
            solve(problem, x_start=x_start, y_start=y_start)
            assert len(set(seen)) == len(seen), (name, x_start)

    @pytest.mark.parametrize("mode", [BCL, CANONICAL])
    def test_other_modes_repeat_no_callback_at_a_point(self, mode):
        """bcl and canonical call each callback at most once at any point
        too, on every catalog entry from its own start, counted with the
        identity tool's spy as it counts repeats."""
        spy = _identity_tool().spy_calls
        for name in catalog_names():
            problem = catalog_get(name).problem
            calls = spy(problem)
            solve(problem, OuterOptions(mode=mode))
            assert calls and len(set(calls)) == len(calls), name

    def test_identity_tool_exits_quietly_when_stdout_closes(self):
        """As when `--per-case | head` stops reading: exit 1, no traceback."""
        proc = subprocess.Popen(
            [sys.executable, str(IDENTITY_TOOL), "--workload", "catalog", "--per-case"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.communicate()[1]
        assert proc.returncode == 1 and err == b""

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
        trace = self._trace("sphere-min-sum")
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
        """eta falls below eta_star, which the schedule reads in the units of
        the scaled rows; the test used the larger one."""
        rep = solve(catalog_get("sphere-min-sum").problem,
                    OuterOptions(eta_star=1e-2, omega_star=1e-8))
        eta_star = 1e-2 * rep.row_scale.min()
        trace = rep.trace
        assert any(rec.eta < eta_star for rec in trace)
        for rec in trace:
            assert rec.eta_target == max(rec.eta, eta_star)
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


def _sweep_starts():
    """(name, x) for each solvable catalog entry's 10 random starts: uniform
    in [-3, 3]^n from one default_rng(7), drawn in catalog order and
    clipped into the entry's bounds."""
    rng = np.random.default_rng(7)
    names = [n for n in catalog_names() if catalog_get(n).classification == SOLVABLE]
    assert len(names) == 16
    return [(name, np.clip(rng.uniform(-3.0, 3.0, catalog_get(name).problem.n),
                           *catalog_get(name).problem.bounds_x))
            for name in names for _ in range(10)]


class TestRandomStarts:
    """The global phase from anywhere: each solvable catalog entry from its
    10 sweep starts (_sweep_starts) with max_major = 100.  At 1e-6 targets
    157 of the 160 end Optimal, and 152 at the listed f* to 1e-5; the
    misses are quarter-ellipse from starts clipped onto an axis, which end
    Infeasible at the origin where J = 0 or Optimal at its other KKT point
    (2, 0), and product-cap from starts clipped to its saddle (0, 0).  At
    1e-9 targets the counts are the same."""

    def test_random_starts_ratchet(self):
        starts = _sweep_starts()
        for target in (1e-6, 1e-9):
            opts = OuterOptions(omega_star=target, eta_star=target, max_major=100)
            optimal = at_f_star = 0
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for name, x in starts:
                    entry = catalog_get(name)
                    rep = solve(entry.problem, opts, x_start=x)
                    f_star = entry.known_objective
                    if rep.status == "Optimal":
                        optimal += 1
                        at_f_star += (abs(rep.final_objective - f_star)
                                      <= 1e-5 * (1.0 + abs(f_star)))
            assert optimal >= 157 and at_f_star >= 152, (target, optimal, at_f_star)


class TestNoiseLevelSearch:
    """scaled-quads, a convex quadratic on one linear row, at targets near
    the noise level of f.  The kernel's search tests the reduced slope z.d:
    the full slope g.d also holds y.(R d), the multipliers times the step's
    cancelling of the rows' rounding drift, which at these targets is as
    large as z.d and of either sign.  When it took that drift's sign, a
    search was skipped, the matrix reset to the identity, and the next
    search failed, so the run ended CannotImprove after 2 majors."""

    @pytest.mark.parametrize("mode", [STABILIZED, BCL])
    @pytest.mark.parametrize("target", [1e-9, 1e-10, 1e-12, 1e-14])
    def test_scaled_quads_from_every_sweep_start(self, mode, target):
        opts = OuterOptions(mode=mode, omega_star=target, eta_star=target,
                            max_major=100)
        entry = catalog_get("scaled-quads")
        starts = [x for name, x in _sweep_starts() if name == "scaled-quads"]
        statuses = [solve(entry.problem, opts, x_start=x).status for x in starts]
        assert statuses == ["Optimal"] * 10, statuses

    @pytest.mark.parametrize("mode", [STABILIZED, BCL])
    @pytest.mark.parametrize("x_start", [
        [2.63507975, 2.0581504, 1.66269485, -0.62988471],
        [0.28817261, 1.32984131, -0.71123478, 1.98384404]])
    def test_scaled_quads_pinned_starts(self, mode, x_start):
        """Sweep starts 4 and 8, which ended with complementarity 2.7e-9 and
        7.3e-9 from every target at 1e-9 and below."""
        entry = catalog_get("scaled-quads")
        opts = OuterOptions(mode=mode, omega_star=1e-12, eta_star=1e-12)
        rep = solve(entry.problem, opts, x_start=np.array(x_start))
        assert rep.status == "Optimal"
        assert abs(rep.final_objective - entry.known_objective) <= 1e-9 * (
            1.0 + abs(entry.known_objective))
