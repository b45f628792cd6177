"""Tests for the inner solver: active-set kernel, subproblems, proximal start."""

import numpy as np
import pytest

from slcl import driver, innersolve
from slcl.catalog import catalog_get
from slcl.driver import OuterOptions, solve
from slcl.innersolve import (CONVERGED, ITERATION_LIMIT, UNBOUNDED,
                             PpInfeasible, SubproblemSolution, bound_solve,
                             solve_lc, solve_proximal)
from slcl.linearize import (ElasticSubproblem, assemble_elastic,
                            linearize_constraints)
from slcl.merit import comp_measure
from slcl.model import INF, NlpProblem, build_slack_form


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


def _quadratic(Q, a):
    """Kernel evaluate/gradient closures for 0.5 (x-a)' Q (x-a)."""

    def evaluate(x):
        d = x - a
        return 0.5 * float(d @ Q @ d), None

    def gradient(x, _):
        return Q @ (x - a)

    return evaluate, gradient


class TestBoundSolve:
    def test_scalar_clipped_minimizer(self):
        """min (x - 3)^2 over [0, 2] stops at the upper bound."""
        evaluate = lambda x: ((x[0] - 3.0) ** 2, None)
        gradient = lambda x, _: np.array([2.0 * (x[0] - 3.0)])
        res = bound_solve(evaluate, gradient, np.array([0.0]), np.array([2.0]),
                          np.array([0.0]), tol=1e-8)
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, [2.0], atol=1e-10)

    def test_componentwise_projection(self):
        a = np.array([-1.0, 5.0])
        evaluate = lambda x: (float(((x - a) ** 2).sum()), None)
        gradient = lambda x, _: 2.0 * (x - a)
        res = bound_solve(evaluate, gradient, np.zeros(2), np.full(2, INF),
                          np.ones(2), tol=1e-8)
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, [0.0, 5.0], atol=1e-8)

    def test_interior_minimizer(self):
        evaluate = lambda x: (float((x ** 2).sum()), None)
        gradient = lambda x, _: 2.0 * x
        res = bound_solve(evaluate, gradient, np.full(2, -1.0), np.full(2, 1.0),
                          np.ones(2), tol=1e-10)
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, 0.0, atol=1e-10)

    def test_matches_grid_on_random_convex_quadratics(self):
        """Brute-force oracle: argmin over a 1e-3 grid of the box."""
        rng = np.random.default_rng(101)
        for _ in range(5):
            B = rng.standard_normal((2, 2))
            Q = B.T @ B + 0.5 * np.eye(2)
            a = rng.uniform(-1.5, 1.5, size=2)
            lo = rng.uniform(-1.0, -0.2, size=2)
            hi = rng.uniform(0.2, 1.0, size=2)
            evaluate, gradient = _quadratic(Q, a)
            res = bound_solve(evaluate, gradient, lo, hi,
                              0.5 * (lo + hi), tol=1e-9)
            assert res.status == CONVERGED
            g0 = np.append(np.arange(lo[0], hi[0], 1e-3), hi[0])
            g1 = np.append(np.arange(lo[1], hi[1], 1e-3), hi[1])
            X, Y = np.meshgrid(g0, g1)
            D0, D1 = X - a[0], Y - a[1]
            F = 0.5 * (Q[0, 0] * D0 ** 2 + 2 * Q[0, 1] * D0 * D1
                       + Q[1, 1] * D1 ** 2)
            j = np.unravel_index(int(np.argmin(F)), F.shape)
            grid_x = np.array([X[j], Y[j]])
            np.testing.assert_allclose(res.x, grid_x, atol=2e-3)
            assert evaluate(res.x)[0] <= F[j] + 1e-9

    def test_iteration_cap_reported(self):
        # 1 iteration cannot reach the flat tolerance from this start
        evaluate = lambda x: (float((x ** 2).sum()), None)
        gradient = lambda x, _: 2.0 * x
        res = bound_solve(evaluate, gradient, np.full(2, -INF), np.full(2, INF),
                          np.full(2, 3.0), tol=1e-14, iter_cap=1)
        assert res.status == ITERATION_LIMIT

    def test_descending_ray_flags_unbounded(self):
        evaluate = lambda x: (float(-x[0]), None)
        gradient = lambda x, _: np.array([-1.0])
        res = bound_solve(evaluate, gradient, np.array([0.0]), np.array([INF]),
                          np.array([1.0]), tol=1e-8)
        assert res.status == UNBOUNDED

    def test_non_finite_trial_is_backtracked(self):
        """sqrt(x) is nan left of 0; a first step landing there is cut back."""
        value = lambda x: float(100.0 * (0.5 * x[0] - np.sqrt(x[0])))
        gradient = lambda x, _: np.array([100.0 * (0.5 - 0.5 / np.sqrt(x[0]))])
        with np.errstate(invalid="ignore"):
            # the first step goes from 4 to -21, then -8.5 and -2.25
            res = bound_solve(lambda x: (value(x), None), gradient,
                              np.array([-INF]), np.array([INF]),
                              np.array([4.0]), tol=1e-10)
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, [1.0], atol=1e-8)
        assert res.f == value(res.x)

    def test_non_finite_start_raises(self):
        evaluate = lambda x: (float("nan"), None)
        gradient = lambda x, _: np.zeros(1)
        with pytest.raises(ValueError, match="start"):
            bound_solve(evaluate, gradient, np.array([-INF]), np.array([INF]),
                        np.array([1.0]), tol=1e-8)

    def test_stiff_quadratic_reaches_its_active_set_solution(self):
        """A rotated quadratic with condition 1e4 over [-1, 1]^10.

        Its minimizer has x7 at the lower bound and x8 at the upper; the
        free coordinates then solve the KKT system of that active set.  A
        first-order step needs hundreds of iterations here.
        """
        rng = np.random.default_rng(5)
        V, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        Q = V @ np.diag(np.geomspace(1.0, 1e4, 10)) @ V.T
        a = rng.uniform(-2.0, 2.0, 10)
        evaluate, gradient = _quadratic(Q, a)
        res = bound_solve(evaluate, gradient, np.full(10, -1.0),
                          np.full(10, 1.0), np.zeros(10), tol=1e-9)
        assert res.status == CONVERGED
        assert res.iterations <= 150

        act = np.array([7, 8])
        free = np.setdiff1d(np.arange(10), act)
        x = np.empty(10)
        x[act] = [-1.0, 1.0]
        x[free] = a[free] - np.linalg.solve(Q[np.ix_(free, free)],
                                            Q[np.ix_(free, act)] @ (x[act] - a[act]))
        g = Q @ (x - a)
        assert np.all(np.abs(x[free]) < 1.0)
        assert g[7] > 0.0 and g[8] < 0.0
        np.testing.assert_allclose(res.x, x, atol=1e-8)


class TestLinearRows:
    """Degenerate inputs for the kernel's rows and working set."""

    def test_duplicate_rows(self):
        """Projecting (2, 0) onto x1 + x2 = 1, stated twice, gives (1.5, -0.5).

        The KKT matrix is singular; only the sum of the two multipliers is
        determined, and it is -0.5.
        """
        evaluate, gradient = _quadratic(np.eye(2), np.array([2.0, 0.0]))
        R = np.ones((2, 2))
        res = bound_solve(evaluate, gradient, np.full(2, -10.0),
                          np.full(2, 10.0), np.array([0.5, 0.5]), tol=1e-10,
                          rows=R, offset=np.full(2, -1.0))
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, [1.5, -0.5], atol=1e-10)
        np.testing.assert_allclose(res.y.sum(), -0.5, atol=1e-10)
        np.testing.assert_allclose(R @ res.x - 1.0, 0.0, atol=1e-15)

    def test_bound_within_rounding_blocks_the_first_step(self):
        """min (x1 + 1)^2 + (x2 - 1)^2 over x >= 0 from x1 = 1e-16: (0, 1).

        x1 joins the working set without a line search, and one step along
        x2 alone reaches the solution.
        """
        evaluate, gradient = _quadratic(2.0 * np.eye(2), np.array([-1.0, 1.0]))
        res = bound_solve(evaluate, gradient, np.zeros(2), np.full(2, INF),
                          np.array([1e-16, 1.5]), tol=1e-10)
        assert res.status == CONVERGED
        assert res.iterations == 1
        assert res.x[0] == 0.0
        np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-10)

    def test_bounds_released_to_reach_the_solution(self):
        """min (x1 - 0.5)^2 + (x2 - 1.5)^2 on x1 + x2 = 2 in [0, 2]^2.

        The start (0, 2) holds both bounds with wrong-signed multipliers;
        the solution (0.5, 1.5) is interior with a zero row multiplier.
        """
        evaluate, gradient = _quadratic(2.0 * np.eye(2), np.array([0.5, 1.5]))
        res = bound_solve(evaluate, gradient, np.zeros(2), np.full(2, 2.0),
                          np.array([0.0, 2.0]), tol=1e-10,
                          rows=np.ones((1, 2)), offset=np.array([-2.0]))
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, [0.5, 1.5], atol=1e-10)
        np.testing.assert_allclose(res.y, [0.0], atol=1e-10)

    def test_negative_curvature_along_the_row(self):
        """min -(x1 - x2)^2 on x1 + x2 = 10 in [0, 10]^2 from (5.5, 4.5).

        Along the row the objective is -(2 x1 - 10)^2, concave, so the
        minimizer on the side of the start is the corner (10, 0).  The first
        step sees the negative curvature; the damped update keeps B positive
        definite, so the next step runs on to the corner.
        """
        Q = -2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        evaluate, gradient = _quadratic(Q, np.zeros(2))
        res = bound_solve(evaluate, gradient, np.zeros(2), np.full(2, 10.0),
                          np.array([5.5, 4.5]), tol=1e-10,
                          rows=np.ones((1, 2)), offset=np.array([-10.0]))
        assert res.status == CONVERGED
        assert res.iterations >= 2
        np.testing.assert_allclose(res.x, [10.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(res.f, -100.0, rtol=1e-14)

    def test_descent_ray_along_a_row_is_unbounded(self):
        """-x1 - x2 on x1 = x2 over x >= 0 decreases without bound."""
        evaluate = lambda x: (float(-x.sum()), None)
        gradient = lambda x, _: -np.ones(2)
        res = bound_solve(evaluate, gradient, np.zeros(2), np.full(2, INF),
                          np.ones(2), tol=1e-8,
                          rows=np.array([[1.0, -1.0]]), offset=np.zeros(1))
        assert res.status == UNBOUNDED
        assert res.x[0] == res.x[1] > 1e9


def _subproblem(name, x, y, rho, sigma):
    sf = build_slack_form(catalog_get(name).problem)
    x0 = sf.embed(np.asarray(x, dtype=float))
    lin = linearize_constraints(sf, x0)
    m = sf.m
    return sf, assemble_elastic(lin, np.full(m, float(y)), rho, sigma)


class TestSolveLc:
    def test_affine_row_equality_qp(self):
        """min x1^2 + x2^2 on x1 + x2 = 2 gives (1, 1) with row price 2."""
        # grid oracle: min over x1 of x1^2 + (2 - x1)^2 at 1e-3 resolution
        g = np.arange(0.0, 2.0001, 1e-3)
        fg = g ** 2 + (2.0 - g) ** 2
        i = int(np.argmin(fg))
        assert abs(g[i] - 1.0) <= 1e-3 and abs(fg[i] - 2.0) <= 1e-5

        sf, sub = _subproblem("linear-as-nl", [0.0, 0.0], 0.0, 0.0, 100.0)
        sol = solve_lc(sub, 1e-6)
        assert sol.status == CONVERGED
        np.testing.assert_allclose(sol.x_star, [1.0, 1.0, 2.0], atol=1e-5)
        np.testing.assert_allclose(sol.delta_y, [2.0], atol=1e-5)
        np.testing.assert_allclose(sol.z_star[:2], 0.0, atol=1e-5)
        np.testing.assert_allclose(sol.v_star, 0.0, atol=1e-9)
        np.testing.assert_allclose(sol.w_star, 0.0, atol=1e-9)
        assert verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)

    def test_zero_price_reduces_to_box_minimization(self):
        """sigma = 0, rho = 2: minimize x1^2 + x2^2 + (x1 + x2 - 2)^2 over x >= 0."""
        # grid oracle at 1e-3 resolution puts the minimizer at (2/3, 2/3)
        g = np.arange(0.0, 2.0001, 1e-3)
        X, Y = np.meshgrid(g, g)
        F = X ** 2 + Y ** 2 + (X + Y - 2.0) ** 2
        j = np.unravel_index(int(np.argmin(F)), F.shape)
        np.testing.assert_allclose([X[j], Y[j]], [2.0 / 3.0] * 2, atol=2e-3)

        sf, sub = _subproblem("linear-as-nl", [0.0, 0.0], 0.0, 2.0, 0.0)
        sol = solve_lc(sub, 1e-6)
        assert sol.status == CONVERGED
        np.testing.assert_allclose(sol.x_star[:2], [2.0 / 3.0] * 2, atol=1e-4)
        # the row is absorbed by the elastics: v - w = 2 - x1 - x2
        np.testing.assert_allclose(sol.v_star - sol.w_star, [2.0 / 3.0],
                                   atol=1e-4)
        assert verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)

    def test_descent_ray_is_flagged(self):
        """Linearizing x2^2 = 0 at x2 = 0 frees the -x1 ray in x >= 0."""
        sf, sub = _subproblem("unbounded-ray", [1.0, 0.0], 0.0, 0.0, 100.0)
        sol = solve_lc(sub, 1e-6)
        assert sol.status == UNBOUNDED

    def test_elastic_complementarity_at_convergence(self):
        for sigma in (0.0, 1.0, 100.0):
            sf, sub = _subproblem("circle-proj", [0.5, 0.5], 0.0, 10.0, sigma)
            sol = solve_lc(sub, 1e-6)
            assert sol.status == CONVERGED
            assert np.minimum(sol.v_star, sol.w_star).max(initial=0.0) <= 1e-8
            assert np.all(sol.v_star >= 0.0) and np.all(sol.w_star >= 0.0)

    def test_high_price_zeroes_elastics(self):
        """A consistent linearization plus a large price leaves no elastic use."""
        sf, sub = _subproblem("circle-proj", [0.5, 0.5], 0.0, 10.0, 100.0)
        sol = solve_lc(sub, 1e-6)
        assert sol.status == CONVERGED
        assert np.abs(sol.v_star).max() + np.abs(sol.w_star).max() <= 1e-6

    def test_warm_start_is_cheaper(self):
        sf, sub = _subproblem("two-circles", [1.0, 0.5], 0.0, 10.0, 100.0)
        cold = solve_lc(sub, 1e-6)
        warm = solve_lc(sub, 1e-6, warm_start=cold)
        assert warm.status == CONVERGED
        assert warm.inner_iterations <= cold.inner_iterations

    def test_converged_triples_verify(self):
        rng = np.random.default_rng(67)
        for name in ("circle-proj", "two-circles", "ball-proj", "sphere-min-sum"):
            sf = build_slack_form(catalog_get(name).problem)
            x0 = sf.embed(sf.nlp.x_tilde + 0.1 * rng.standard_normal(sf.n))
            lin = linearize_constraints(sf, x0)
            sub = assemble_elastic(lin, rng.standard_normal(sf.m), 10.0, 50.0)
            sol = solve_lc(sub, 1e-6)
            assert sol.status == CONVERGED, name
            assert verify_relaxed_kkt(sub, sol, 1e-6, 1e-6), name

    def test_cycles_reuse_their_end_point(self):
        """A cycle starts from the value and gradient the last one ended on.

        g and J are then called once at the first start and once per
        accepted kernel step, with no extra call per cycle or at the end.
        """
        sf, sub = _subproblem("two-circles", [1.0, 0.5], 0.3, 10.0, 5.0)
        calls = _counted(sf.nlp)
        sol = solve_lc(sub, 1e-6)
        assert sol.status == CONVERGED
        assert calls["g"] == calls["J"] == sol.inner_iterations + 1


def _counted(problem):
    """Wrap the raw callbacks with per-kind call counters."""
    calls = dict.fromkeys("fgcJ", 0)
    for kind in calls:
        fn = getattr(problem, f"eval_{kind}")

        def counted(x, fn=fn, kind=kind):
            calls[kind] += 1
            return fn(x)

        setattr(problem, f"eval_{kind}", counted)
    return calls


class TestEvaluationBudget:
    def _cycle(self):
        sf, sub = _subproblem("two-circles", [1.0, 0.5], 0.3, 10.0, 5.0)
        return sub, _counted(sf.nlp)

    def test_trial_and_accepted_gradient_call_each_callback_once(self):
        sub, calls = self._cycle()
        u = np.clip(np.concatenate([sub.lin.x_k + 0.05, np.zeros(2 * sub.m)]),
                    sub.lo, sub.hi)
        _, aux = sub.evaluate(u)
        grad = sub.gradient(u, aux)
        assert calls == {"f": 1, "g": 1, "c": 1, "J": 1}
        assert grad.shape == (sub.n_lifted,)

    def test_gradient_matches_a_fresh_evaluation(self):
        """The residual evaluate returned gives the same gradient as
        computing it anew."""
        sub, _ = self._cycle()
        u = np.clip(np.concatenate([sub.lin.x_k - 0.1, [0.1, 0.0, 0.0, 0.2]]),
                    sub.lo, sub.hi)
        _, aux = sub.evaluate(u)
        np.testing.assert_array_equal(sub.gradient(u, aux),
                                      sub.gradient(u.copy()))

    def test_kernel_counts_points_and_accepted_points(self):
        """f and c once per evaluated point, g and J once per accepted point."""
        sub, calls = self._cycle()
        u0 = np.clip(np.concatenate([sub.lin.x_k, np.zeros(2 * sub.m)]),
                     sub.lo, sub.hi)
        res = bound_solve(sub.evaluate, sub.gradient, sub.lo, sub.hi, u0,
                          tol=1e-8)
        assert res.status == CONVERGED and res.iterations > 5
        assert calls["f"] == calls["c"] == res.n_evals
        assert calls["g"] == calls["J"] == res.iterations + 1


class TestExactRows:
    """The subproblem rows hold to roundoff, whatever the outer targets."""

    @pytest.mark.parametrize("name", ["circle-proj", "two-circles",
                                      "rosenbrock-ball"])
    def test_converged_subproblems_meet_their_rows(self, name, monkeypatch):
        seen = []

        def recorded(sub, omega, warm_start=None):
            sol = solve_lc(sub, omega, warm_start)
            seen.append((sub, sol, omega))
            return sol

        monkeypatch.setattr(driver, "solve_lc", recorded)
        assert solve(catalog_get(name).problem).status == "Optimal"
        converged = [(sub, sol, omega) for sub, sol, omega in seen
                     if sol.status == CONVERGED]
        assert converged
        for sub, sol, omega in converged:
            assert verify_relaxed_kkt(sub, sol, omega, 1e-12)

    def test_tight_targets_from_the_capture_start(self):
        """circle-proj at omega_star = eta_star = 1e-9 from criterion 7's start.

        Row errors that a loose row tolerance leaves in each accepted step
        used to push the constraint residual back up after acceptance,
        forcing rejections before the tight target was met.
        """
        entry = catalog_get("circle-proj")
        d = np.array([1.0, -1.0]) / np.sqrt(2.0)
        rep = solve(entry.problem, OuterOptions(omega_star=1e-9, eta_star=1e-9),
                    x_start=entry.known_x + 1e-2 * d,
                    y_start=entry.known_y + 1e-2)
        assert rep.status == "Optimal"
        assert rep.majors <= 4, rep.majors
        assert all(t.accepted for t in rep.trace)


def _recorded_starts(monkeypatch):
    """Record the start point and start matrix of every kernel call."""
    seen = []
    original = innersolve.bound_solve

    def recorded(evaluate, gradient, lo, hi, start, tol, **kwargs):
        seen.append((np.array(start), kwargs.get("hess")))
        return original(evaluate, gradient, lo, hi, start, tol, **kwargs)

    monkeypatch.setattr(innersolve, "bound_solve", recorded)
    return seen


class TestSubproblemStart:
    """Where the kernel starts: rows met at a new base point, the candidate
    after a rejection, and the BFGS matrix carried from major to major."""

    def test_accepted_major_starts_on_its_rows(self, monkeypatch):
        """Relinearizing at the last candidate: its linearized row can be met
        inside the box, so the kernel starts with both elastics at zero."""
        sf, sub0 = _subproblem("circle-proj", [0.5, 0.5], 0.0, 10.0, 100.0)
        sol0 = solve_lc(sub0, 1e-6)
        sub = assemble_elastic(linearize_constraints(sf, sol0.x_star),
                               sol0.delta_y, 10.0, 100.0)
        assert np.abs(sub.lin.cbar(sub.lin.x_k)).max() > 1e-3
        starts = _recorded_starts(monkeypatch)
        sol = solve_lc(sub, 1e-6, warm_start=sol0)
        (u0, _), = starts
        assert np.all(u0[sub.n_ext:] == 0.0)
        assert sol.status == CONVERGED
        u = np.concatenate([sol.x_star, sol.v_star, sol.w_star])
        assert np.abs(sub.row_residual(u)).max() <= 1e-12

    def test_rejected_major_restarts_from_the_candidate(self, monkeypatch):
        """Same linearization, rho raised tenfold: the kernel starts at the
        candidate with its elastics and from its BFGS matrix plus
        (rho_k - rho) J_k^T J_k on the x_ext block."""
        sf, sub0 = _subproblem("circle-proj", [0.5, 0.5], 0.0, 10.0, 100.0)
        sol0 = solve_lc(sub0, 1e-6)
        sub = assemble_elastic(sub0.lin, sub0.y_k, 100.0, 10.0)
        starts = _recorded_starts(monkeypatch)
        sol = solve_lc(sub, 1e-6, warm_start=sol0)
        (u0, hess), = starts
        n_ext, J = sub.n_ext, sub.lin.J_k
        np.testing.assert_array_equal(u0[:n_ext], sol0.x_star)
        np.testing.assert_allclose(
            u0[n_ext:], np.concatenate([sol0.v_star, sol0.w_star]), atol=1e-12)
        expected = sol0.hess.copy()
        expected[:n_ext, :n_ext] += 90.0 * J.T @ J
        np.testing.assert_allclose(hess, expected, rtol=1e-15)
        assert sol.status == CONVERGED
        assert sol.rho == 100.0

    def test_row_parallel_to_a_linear_row_keeps_it_met(self, monkeypatch):
        """x1^2 + x2^2 = 1 linearized at (0.5, 0.5) has gradient (1, 1), the
        linear row x1 + x2 = 1.  No step meets both, so the least-squares
        step would break the linear row; the start keeps it and the
        nonlinear row's elastic takes up the 0.5 left over."""
        p = NlpProblem(
            n=2, m_c=1, m_A=1,
            eval_f=lambda x: float((x[0] - 2.0) ** 2 + x[1] ** 2),
            eval_g=lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * x[1]]),
            eval_c=lambda x: np.array([x @ x]),
            eval_J=lambda x: 2.0 * x.reshape(1, 2),
            A=np.ones((1, 2)), bounds_x=(np.zeros(2), np.full(2, INF)),
            bounds_c=(np.ones(1), np.ones(1)),
            bounds_A=(np.ones(1), np.ones(1)), x_tilde=np.full(2, 0.5))
        sf = build_slack_form(p)
        sub = assemble_elastic(linearize_constraints(sf, sf.embed(p.x_tilde)),
                               np.zeros(2), 10.0, 100.0)
        starts = _recorded_starts(monkeypatch)
        sol = solve_lc(sub, 1e-6)
        (u0, _), = starts
        assert abs(u0[0] + u0[1] - 1.0) <= 1e-12
        assert np.abs(sub.row_residual(u0)).max() <= 1e-12
        assert sol.status == CONVERGED
        assert abs(sol.x_star[0] + sol.x_star[1] - 1.0) <= 1e-12
        np.testing.assert_allclose(sol.v_star[0] - sol.w_star[0], 0.5,
                                   atol=1e-12)


class TestVerifyRelaxedKkt:
    def _converged(self):
        sf, sub = _subproblem("linear-as-nl", [0.0, 0.0], 0.0, 0.0, 100.0)
        return sub, solve_lc(sub, 1e-6)

    def test_exact_solution_passes(self):
        sub, sol = self._converged()
        assert verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)

    def test_oversized_dual_step_fails(self):
        sub, sol = self._converged()
        sol.delta_y = np.array([sub.sigma_k + 2e-6])
        assert not verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)

    def test_negative_elastic_fails(self):
        sub, sol = self._converged()
        sol.v_star = np.array([-1e-3])
        assert not verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)

    def test_row_violation_fails(self):
        sub, sol = self._converged()
        sol.x_star = sol.x_star + np.array([0.1, 0.0, 0.0])
        assert not verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)

    def test_inconsistent_reduced_costs_fail(self):
        sub, sol = self._converged()
        sol.z_star = sol.z_star + 1.0
        assert not verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)


class TestSolveProximal:
    def test_projects_onto_box(self):
        sf = build_slack_form(catalog_get("box-quadratic").problem)
        x0 = solve_proximal(sf, np.array([-1.0, 5.0]))
        np.testing.assert_allclose(x0[:2], [0.0, 2.0], atol=1e-8)
        np.testing.assert_allclose(sf.residual(x0), 0.0, atol=1e-6)

    def test_feasible_guess_is_kept(self):
        sf = build_slack_form(catalog_get("box-quadratic").problem)
        x0 = solve_proximal(sf, np.array([1.0, 1.0]))
        np.testing.assert_allclose(x0[:2], [1.0, 1.0], atol=1e-4)
        np.testing.assert_allclose(sf.residual(x0), 0.0, atol=1e-6)

    def test_equality_rows_are_met(self):
        sf = build_slack_form(catalog_get("lin-eq-quadratic").problem)
        x0 = solve_proximal(sf, np.array([5.0, 0.0, 0.0]))
        np.testing.assert_allclose(sf.residual(x0), 0.0, atol=1e-6)
        x = x0[:3]
        assert abs(x[0] + x[1] + x[2] - 4.0) <= 1e-6
        assert abs(x[0] - x[1]) <= 1e-6

    def test_start_is_the_projection(self):
        """Projecting (0.3, 2) onto x1 + x2 <= 1, 0 <= x1 <= 0.3 gives (0, 1).

        Both the row and the lower bound on x1 are active there: the
        multiplier of the row is 1 and the bound's reduced cost is 0.7.
        """
        p = NlpProblem(
            n=2, m_c=0, m_A=1,
            eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(2),
            eval_c=None, eval_J=None, A=np.array([[1.0, 1.0]]),
            bounds_x=(np.array([0.0, -INF]), np.array([0.3, INF])),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.array([-INF]), np.array([1.0])),
            x_tilde=np.array([0.3, 2.0]))
        sf = build_slack_form(p)
        x0 = solve_proximal(sf, p.x_tilde)
        np.testing.assert_allclose(x0[:2], [0.0, 1.0], atol=1e-5)
        np.testing.assert_allclose(sf.residual(x0), 0.0, atol=1e-6)

    def test_violated_equality_row_is_met_exactly(self):
        """The start (0, 0) violates x1 + 2 x2 = 3; its projection is (0.6, 1.2)."""
        p = NlpProblem(
            n=2, m_c=0, m_A=1,
            eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(2),
            eval_c=None, eval_J=None, A=np.array([[1.0, 2.0]]),
            bounds_x=(np.zeros(2), np.full(2, 10.0)),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.array([3.0]), np.array([3.0])),
            x_tilde=np.zeros(2))
        sf = build_slack_form(p)
        x0 = solve_proximal(sf, p.x_tilde)
        assert abs(x0[0] + 2.0 * x0[1] - 3.0) <= 1e-12
        np.testing.assert_allclose(sf.residual(x0), 0.0, atol=1e-12)
        np.testing.assert_allclose(x0[:2], [0.6, 1.2], atol=1e-5)

    def test_badly_scaled_row_is_met(self):
        """1e-7 x = 1 in [0, 1e8] from x = 0: the start is x = 1e7.

        Finding a point on the row is a linear program whose reduced cost is
        1e-7, so its steps must run to the blocking bound.
        """
        p = NlpProblem(
            n=1, m_c=0, m_A=1,
            eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(1),
            eval_c=None, eval_J=None, A=np.array([[1e-7]]),
            bounds_x=(np.zeros(1), np.array([1e8])),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.array([1.0]), np.array([1.0])),
            x_tilde=np.zeros(1))
        sf = build_slack_form(p)
        x0 = solve_proximal(sf, p.x_tilde)
        np.testing.assert_allclose(x0[0], 1e7, rtol=1e-12)
        np.testing.assert_allclose(sf.residual(x0), 0.0, atol=1e-12)

    def test_impossible_rows_raise(self):
        """x1 + x2 = 10 cannot hold inside [0, 1]^2."""
        p = NlpProblem(
            n=2, m_c=0, m_A=1,
            eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(2),
            eval_c=None, eval_J=None, A=np.array([[1.0, 1.0]]),
            bounds_x=(np.zeros(2), np.ones(2)),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.array([10.0]), np.array([10.0])),
            x_tilde=np.array([0.5, 0.5]))
        sf = build_slack_form(p)
        with pytest.raises(PpInfeasible):
            solve_proximal(sf, p.x_tilde)

    def test_no_linear_rows_is_plain_embedding(self):
        sf = build_slack_form(catalog_get("circle-proj").problem)
        x0 = solve_proximal(sf, np.array([-2.0, 0.5]))
        np.testing.assert_allclose(x0[:2], [0.0, 0.5])
