"""Tests for the inner solver: active-set kernel, subproblems, proximal start."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from slcl import driver, innersolve
from slcl.catalog import catalog_get
from slcl.driver import OuterOptions, solve
from slcl.innersolve import (CONVERGED, ITERATION_LIMIT, UNBOUNDED,
                             SubproblemSolution, bound_solve, solve_lc,
                             solve_proximal)
from slcl.linearize import (ElasticSubproblem, assemble_elastic,
                            linearize_constraints)
from slcl.merit import aug_lagrangian_grad, comp_measure
from slcl.model import INF, NlpProblem, build_slack_form


def verify_relaxed_kkt(sub: ElasticSubproblem, sol: SubproblemSolution,
                       omega: float, delta_lin: float) -> bool:
    """Check the relaxed subproblem conditions on a returned triple."""
    u = np.concatenate([sol.point.x_k, sol.v_star, sol.w_star])
    slack = 1e-9 * (1.0 + np.abs(u).max(initial=0.0))
    if np.any(u < sub.lo - slack) or np.any(u > sub.hi + slack):
        return False
    r = sub.rows @ u + sub.lin.offset
    if np.abs(r).max(initial=0.0) > delta_lin + 1e-12:
        return False
    grad_l = sub.gradient(u, sub.evaluate(u)[1])[:sub.n_ext]
    z_def = grad_l - sub.lin.J_k.T @ sol.delta_y
    if np.abs(z_def - sol.z_star).max(initial=0.0) > 1e-8 * (1.0 + np.abs(z_def).max(initial=0.0)):
        return False
    # only the nonlinear rows have elastics
    dy_c = sol.delta_y[:sub.m_c]
    z_lifted = np.concatenate([sol.z_star, sub.sigma_k - dy_c, sub.sigma_k + dy_c])
    comp = comp_measure(u, z_lifted, sub.lo, sub.hi)
    if np.abs(comp).max(initial=0.0) > omega + 1e-12:
        return False
    dy_elastic = np.abs(dy_c).max(initial=0.0)
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

    def test_iteration_cap_reported(self, monkeypatch):
        # 1 iteration cannot reach the flat tolerance from this start
        monkeypatch.setattr(innersolve, "_MAX_INNER_ITERS", 1)
        evaluate = lambda x: (float((x ** 2).sum()), None)
        gradient = lambda x, _: 2.0 * x
        res = bound_solve(evaluate, gradient, np.full(2, -INF), np.full(2, INF),
                          np.full(2, 3.0), tol=1e-14)
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

    @staticmethod
    def _matrices(monkeypatch):
        """The B of every KKT step the kernel solves."""
        seen, kkt_step = [], innersolve._kkt_step

        def recorded(B, *args):
            seen.append(B.copy())
            return kkt_step(B, *args)

        monkeypatch.setattr(innersolve, "_kkt_step", recorded)
        return seen

    def test_failed_search_resets_a_carried_matrix(self, monkeypatch):
        """From hess = -I the step climbs, so no trial is evaluated and B
        resets to the identity; the solve then runs as one started from
        it, evaluating the same points."""
        evaluate, gradient = _quadratic(np.diag([1.0, 4.0]), np.array([0.5, 0.8]))
        lo, hi, start = np.full(2, -1.0), np.full(2, 1.0), np.zeros(2)
        plain = bound_solve(evaluate, gradient, lo, hi, start, tol=1e-10)
        seen = self._matrices(monkeypatch)
        res = bound_solve(evaluate, gradient, lo, hi, start, tol=1e-10,
                          hess=-np.identity(2))
        assert res.status == CONVERGED
        np.testing.assert_array_equal(seen[0], -np.identity(2))
        np.testing.assert_array_equal(seen[1], np.identity(2))
        np.testing.assert_array_equal(res.x, plain.x)
        assert (res.n_evals, res.iterations) == (plain.n_evals, plain.iterations)

    def test_matrix_singular_along_the_step_is_reset(self, monkeypatch):
        """From hess = diag(1, 1e-20) the first step runs along x2 to its
        bound, where s'Bs is lost against s's length: B resets to the
        identity instead of taking the update, which would hold the
        curvature 4 of x2."""
        evaluate, gradient = _quadratic(np.diag([1.0, 4.0]), np.array([0.5, 0.8]))
        seen = self._matrices(monkeypatch)
        res = bound_solve(evaluate, gradient, np.full(2, -1.0), np.full(2, 1.0),
                          np.zeros(2), tol=1e-10, hess=np.diag([1.0, 1e-20]))
        assert res.status == CONVERGED
        np.testing.assert_allclose(res.x, [0.5, 0.8], atol=1e-10)
        np.testing.assert_array_equal(seen[1], np.identity(2))

    @pytest.mark.parametrize("H", [np.diag([2.0, 3.0]), -np.identity(2)],
                             ids=["updated", "reset"])
    def test_carried_matrix_is_never_written(self, H):
        """The kernel updates its own copy of hess: after a solve that
        updates B, and after one that resets it to the identity (see
        test_failed_search_resets_a_carried_matrix), hess holds its bits
        and shares no memory with the matrix returned, which moved."""
        evaluate, gradient = _quadratic(np.diag([1.0, 4.0]), np.array([0.5, 0.8]))
        given = H.copy()
        res = bound_solve(evaluate, gradient, np.full(2, -1.0), np.full(2, 1.0),
                          np.zeros(2), tol=1e-10, hess=H)
        assert res.status == CONVERGED and res.iterations >= 1
        np.testing.assert_array_equal(H, given)
        assert not np.shares_memory(res.hess, H)
        assert not np.array_equal(res.hess, H)

    def test_a_kernel_that_takes_no_step_returns_hess_itself(self):
        """Started at its minimizer, the kernel converges before any step
        and returns the matrix it was given, unwritten: the kernel copies
        hess at its first update, not at entry."""
        evaluate, gradient = _quadratic(np.diag([1.0, 4.0]), np.array([0.5, 0.8]))
        H = np.diag([2.0, 3.0])
        given = H.copy()
        res = bound_solve(evaluate, gradient, np.full(2, -1.0), np.full(2, 1.0),
                          np.array([0.5, 0.8]), tol=1e-10, hess=H)
        assert res.status == CONVERGED and res.iterations == 0
        assert res.hess is H
        assert H.tobytes() == given.tobytes()

    def test_step_lost_in_rounding_ends_the_solve(self):
        """The minimizer of (x - a)^2 is one unit in the last place away:
        the step cannot move x, so the solve ends without a trial."""
        a = np.nextafter(1.0, 2.0)
        res = bound_solve(lambda x: (float((x[0] - a) ** 2), None),
                          lambda x, _: np.array([2.0 * (x[0] - a)]),
                          np.array([-INF]), np.array([INF]), np.ones(1), tol=1e-20)
        assert res.status == ITERATION_LIMIT
        assert (res.iterations, res.n_evals) == (0, 1)
        np.testing.assert_array_equal(res.x, [1.0])

    def test_search_that_backtracks_below_the_least_step_ends_the_solve(self):
        """The value is nan at every point but the start, so every trial
        fails and the search halves the step from 1 until it is below
        1e-14, which takes 47 trials."""
        evaluate = lambda x: (0.0 if x[0] == 0.0 else float("nan"), None)
        res = bound_solve(evaluate, lambda x, _: np.array([-1.0]),
                          np.array([-INF]), np.array([INF]), np.zeros(1), tol=1e-8)
        assert res.status == ITERATION_LIMIT
        assert (res.iterations, res.n_evals) == (0, 48)
        np.testing.assert_array_equal(res.x, [0.0])

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


class TestStepAlgebra:
    """_ratio_test and _kkt_step against the expressions they were written
    with before their buffers were trimmed, bit for bit."""

    def test_ratio_test_matches_the_full_expression(self):
        """At seeded steps with zero entries, infinite bounds, points on
        their bounds and tied ratios, the index, alpha and bound are those
        of the np.full expression, signed zeros included."""
        def reference(x, d, lo, hi):
            ratios = np.divide(lo - x, d, out=np.full(x.size, np.inf), where=d < 0.0)
            np.divide(hi - x, d, out=ratios, where=d > 0.0)
            i = int(np.argmin(ratios))
            return i, float(ratios[i]), float(lo[i] if d[i] < 0.0 else hi[i])

        rng = np.random.default_rng(23)
        for k in range(400):
            n = 1 + k % 7
            lo, hi = rng.uniform(-2.0, 0.0, n), rng.uniform(0.0, 2.0, n)
            lo[rng.uniform(size=n) < 0.3] = -INF
            hi[rng.uniform(size=n) < 0.3] = INF
            x = np.clip(rng.uniform(-1.0, 1.0, n), lo, hi)
            d = rng.standard_normal(n)
            d[rng.uniform(size=n) < 0.3] = 0.0
            if k % 4 == 1:
                # every coordinate the same: ratios tie
                lo, hi, x, d = (np.full(n, v[0]) for v in (lo, hi, x, d))
            elif k % 4 == 2:
                on = rng.uniform(size=n) < 0.5
                x[on] = np.where(d[on] < 0.0, lo[on], hi[on])
                x[~np.isfinite(x)] = 0.0
            assert (repr(innersolve._ratio_test(x, d, lo, hi))
                    == repr(reference(x, d, lo, hi))), k

    def test_kkt_step_matches_the_block_assembly(self):
        """At seeded systems, with a free set that leads the coordinates or
        not, empty or full, and with dependent rows, which take the
        least-squares solution, the step and multipliers are those of the
        empty-matrix assembly with its zero block written."""
        def reference(B, R, free, g, r):
            nf = free.size
            size = nf + R.shape[0]
            RF = R.take(free, axis=1)
            K = np.empty((size, size))
            K[:nf, :nf] = B.take(free, axis=0).take(free, axis=1)
            K[:nf, nf:], K[nf:, :nf], K[nf:, nf:] = RF.T, RF, 0.0
            rhs = -np.concatenate([g[free], r])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            d = np.zeros(g.size)
            d[free] = sol[:nf]
            return d, -sol[nf:]

        rng = np.random.default_rng(31)
        for k in range(200):
            n, m = 2 + k % 6, k % 3
            M = rng.standard_normal((n, n))
            B = M @ M.T + np.identity(n)
            R = np.asfortranarray(rng.standard_normal((m, n)))
            if m == 2 and k % 2:
                R[1] = R[0]
            free = np.sort(rng.choice(n, size=(k // 3) % (n + 1), replace=False))
            if k % 5 == 0:
                free = np.arange((k // 5) % (n + 1))
            g, r = rng.standard_normal(n), rng.standard_normal(m)
            got, want = innersolve._kkt_step(B, R, free, g, r), reference(B, R, free, g, r)
            assert got[0].tobytes() == want[0].tobytes(), k
            assert got[1].tobytes() == want[1].tobytes(), k


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

    def test_aux_is_the_last_point_s_unless_snapped(self, monkeypatch):
        """On the problem above, one iteration ends on the move of x1 onto
        its bound, made after the start was evaluated: aux is None and f is
        the start's value.  Run on, the kernel ends at an accepted point,
        and aux is what gradient received there."""
        Q, a = 2.0 * np.eye(2), np.array([-1.0, 1.0])
        received = []

        def evaluate(x):
            d = x - a
            return 0.5 * float(d @ Q @ d), d

        def gradient(x, d):
            received.append((np.array(x), d))
            return Q @ d

        start = np.array([1e-16, 1.5])
        monkeypatch.setattr(innersolve, "_MAX_INNER_ITERS", 1)
        res = bound_solve(evaluate, gradient, np.zeros(2), np.full(2, INF),
                          start, tol=1e-10)
        assert res.x[0] == 0.0 and res.iterations == 0
        assert res.aux is None
        assert res.f == evaluate(start)[0]

        received.clear()
        monkeypatch.undo()
        res = bound_solve(evaluate, gradient, np.zeros(2), np.full(2, INF),
                          start, tol=1e-10)
        assert res.status == CONVERGED
        x_last, aux_last = received[-1]
        assert np.array_equal(x_last, res.x)
        assert res.aux is aux_last

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
        np.testing.assert_allclose(sol.point.x_k, [1.0, 1.0, 2.0], atol=1e-5)
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
        np.testing.assert_allclose(sol.point.x_k[:2], [2.0 / 3.0] * 2, atol=1e-4)
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

    @pytest.mark.parametrize("rho", [10.0, 40.0])
    def test_chained_solutions_keep_their_matrices(self, rho):
        """A subproblem warm-started from another, at the same penalty or a
        higher one, updates its BFGS matrix without writing into the first
        solution's."""
        sf = build_slack_form(catalog_get("two-circles").problem)
        lin = linearize_constraints(sf, sf.embed(sf.nlp.x_tilde + 0.3))
        first = solve_lc(assemble_elastic(lin, np.zeros(sf.m), 10.0, 100.0), 1e-6)
        kept = first.hess.copy()
        lin = linearize_constraints(sf, first.point.x_k)
        second = solve_lc(assemble_elastic(lin, np.full(sf.m, 0.5), rho, 100.0),
                          1e-6, warm_start=first)
        assert first.status == second.status == CONVERGED
        assert second.inner_iterations >= 1
        np.testing.assert_array_equal(first.hess, kept)
        assert not np.shares_memory(second.hess, first.hess)

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

    def test_kernel_started_at_the_base_point_calls_nothing_there(self, monkeypatch,
                                                                  spy_calls):
        """Where the start step keeps the base point, as the linear-row
        fallback does here, the kernel starts there and reads the base
        record: once the driver has read it, the solve calls no callback at
        the base point, and before that it calls f and g there once each
        (the embedding called c there, and building the subproblem read J)."""
        starts = _recorded_starts(monkeypatch)
        for read_first, calls_there in ((True, []), (False, ["f", "g"])):
            sub = _base_kept_subproblem()
            lin, sf = sub.lin, sub.lin.sf
            if read_first:
                lin.c_k, lin.f, lin.g, lin.J_x
            calls = spy_calls(sf.nlp)
            sol = solve_lc(sub, 1e-6)
            assert sol.status == CONVERGED and sol.inner_iterations > 0
            np.testing.assert_array_equal(starts[-1][0][:sub.n_ext], lin.x_k)
            base = lin.x_k[:sf.n].tobytes()
            assert sorted(kind for kind, x in calls if x == base) == sorted(calls_there)

    def test_kernel_started_at_the_last_kernel_s_point_calls_nothing_there(
            self, monkeypatch, spy_calls):
        """A re-solve at a raised penalty starts at the candidate, the point
        the kernel before it evaluated last: it reads the candidate's
        record, so the re-solve calls none of f, c, g and J at that point."""
        sf, sub = _subproblem("two-circles", [1.0, 0.5], 0.3, 10.0, 5.0)
        calls = spy_calls(sf.nlp)
        sol = solve_lc(sub, 1e-6)
        last = sol.point.x_k[:sf.n].tobytes()
        assert sorted(kind for kind, x in calls[-4:] if x == last) == list("Jcfg")
        starts = _recorded_starts(monkeypatch)
        calls.clear()
        raised = assemble_elastic(sub.lin, sub.y_k, 10.0 * sub.rho_k, 0.1 * sub.sigma_k)
        sol_warm = solve_lc(raised, 1e-6, warm_start=sol)
        assert sol_warm.status == CONVERGED and sol_warm.inner_iterations > 0
        np.testing.assert_array_equal(starts[0][0][:sub.n_ext], sol.point.x_k)
        assert calls and all(x != last for _, x in calls)

    def test_kernel_started_where_the_last_kernel_started_reads_its_record(
            self, spy_calls):
        """A solution carries its kernel's start record, and a later kernel
        that starts at that point, bit for bit, reads it: here a re-solve
        at the same base point with no carried matrix takes the same
        identity-model step, and calls nothing at the start the problem no
        longer remembers."""
        sf, sub = _subproblem("circle-proj", [0.5, 0.5], 0.0, 10.0, 100.0)
        calls = spy_calls(sf.nlp)
        sol = solve_lc(sub, 1e-6)
        start = sol.start.x_k[:sf.n].tobytes()
        assert sol.inner_iterations > 0 and sol.start is not sub.lin
        assert sorted(kind for kind, x in calls if x == start) == list("Jcfg")
        calls.clear()
        again = solve_lc(assemble_elastic(sub.lin, sub.y_k, sub.rho_k, sub.sigma_k),
                         1e-6, warm_start=dataclasses.replace(sol, point=sub.lin,
                                                               hess=None))
        assert again.start is sol.start
        assert calls and all(x != start for _, x in calls)

    def test_cycles_reuse_their_end_point(self, monkeypatch, spy_calls):
        """A kernel start at a record the caller holds calls no callback
        there: the base record, which the linear-row fallback keeps as the
        start and which is read first as the driver's start reads it, and
        the candidate a re-solve at a raised penalty starts from.  Each
        kernel call then calls f and c once per line-search trial and g and
        J once per accepted step, with no call at its start or at its end."""
        sub = _base_kept_subproblem()
        lin, sf = sub.lin, sub.lin.sf
        lin.c_k, lin.f, lin.g, lin.J_x
        kernel, results = innersolve.bound_solve, []

        def spied(*args, **kwargs):
            results.append(kernel(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(innersolve, "bound_solve", spied)
        calls = spy_calls(sf.nlp)
        sol = solve_lc(sub, 1e-6)
        cold = _tally(calls)
        calls.clear()
        raised = assemble_elastic(lin, sub.y_k, 10.0 * sub.rho_k, 0.1 * sub.sigma_k)
        sol_warm = solve_lc(raised, 1e-6, warm_start=sol)
        assert sol.status == sol_warm.status == CONVERGED
        assert sol.point is not lin and sol_warm.inner_iterations > 0
        for res, counts in zip(results, (cold, _tally(calls))):
            assert counts["f"] == counts["c"] == res.n_evals - 1
            assert counts["g"] == counts["J"] == res.iterations


def _tally(calls):
    """Calls by kind from a spy_calls list."""
    return Counter(kind for kind, _ in calls)


class TestEvaluationBudget:
    def _cycle(self):
        return _subproblem("two-circles", [1.0, 0.5], 0.3, 10.0, 5.0)[1]

    def test_trial_and_accepted_gradient_call_each_callback_once(self, spy_calls):
        sub = self._cycle()
        calls = spy_calls(sub.lin.sf.nlp)
        u = np.clip(np.concatenate([sub.lin.x_k + 0.05, np.zeros(2 * sub.m_c)]),
                    sub.lo, sub.hi)
        _, aux = sub.evaluate(u)
        grad = sub.gradient(u, aux)
        assert _tally(calls) == {"f": 1, "g": 1, "c": 1, "J": 1}
        assert grad.shape == (sub.lo.size,)

    def test_gradient_matches_a_fresh_evaluation(self):
        """The record evaluate returned gives the gradient a fresh record
        at the point gives, and holds the same values bit for bit."""
        sub = self._cycle()
        sf, n_ext = sub.lin.sf, sub.n_ext
        u = np.clip(np.concatenate([sub.lin.x_k - 0.1, [0.1, 0.0, 0.0, 0.2]]),
                    sub.lo, sub.hi)
        _, point = sub.evaluate(u)
        grad = sub.gradient(u, point)
        fresh = linearize_constraints(sf, u[:n_ext])
        np.testing.assert_array_equal(
            grad[:n_ext], aug_lagrangian_grad(fresh, sub.y_k, sub.rho_k))
        np.testing.assert_array_equal(grad[n_ext:], sub.sigma_k)
        assert point.f == fresh.f
        for field in ("c_k", "g", "J_x", "J_k", "offset"):
            np.testing.assert_array_equal(getattr(point, field), getattr(fresh, field))

    def test_rejected_trial_records_call_neither_g_nor_J(self, monkeypatch, rescaled):
        """A trial the line search rejects costs f and c alone: after a
        whole solve, reading g and J from its record calls each of them for
        the first time.  rosenbrock-ball with f a thousand times smaller,
        which the solve does not scale back up, backtracks often."""
        evaluate, gradient = ElasticSubproblem.evaluate, ElasticSubproblem.gradient
        evaluated, accepted = [], []

        def spied_evaluate(sub, u):
            evaluated.append(evaluate(sub, u))
            return evaluated[-1]

        def spied_gradient(sub, u, point):
            accepted.append(point)
            return gradient(sub, u, point)

        monkeypatch.setattr(ElasticSubproblem, "evaluate", spied_evaluate)
        monkeypatch.setattr(ElasticSubproblem, "gradient", spied_gradient)
        problem = rescaled(catalog_get("rosenbrock-ball").problem, 1e-3, 1.0)
        solve(problem, OuterOptions(omega_star=1e-9))
        rejected = [rec for _, rec in evaluated
                    if not any(rec is point for point in accepted)]
        assert len(rejected) >= 10
        for rec in rejected:
            before = problem.n_geval, problem.n_jeval
            rec.g, rec.J_x
            assert (problem.n_geval - before[0], problem.n_jeval - before[1]) == (1, 1)

    def test_kernel_counts_points_and_accepted_points(self, spy_calls):
        """f once per evaluated point and c once per trial point; g once per
        accepted point and at the start and J once per accepted point.  The
        start is the base point, where the embedding called c and building
        the subproblem read J."""
        sub = self._cycle()
        calls = spy_calls(sub.lin.sf.nlp)
        u0 = np.clip(np.concatenate([sub.lin.x_k, np.zeros(2 * sub.m_c)]),
                     sub.lo, sub.hi)
        res = bound_solve(sub.evaluate, sub.gradient, sub.lo, sub.hi, u0,
                          tol=1e-8)
        assert res.status == CONVERGED and res.iterations > 5
        counts = _tally(calls)
        assert counts["f"] == counts["c"] + 1 == res.n_evals
        assert counts["g"] == counts["J"] + 1 == res.iterations + 1


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
        sub = assemble_elastic(linearize_constraints(sf, sol0.point.x_k),
                               sol0.delta_y, 10.0, 100.0)
        assert np.abs(sub.lin.cbar(sub.lin.x_k)).max() > 1e-3
        starts = _recorded_starts(monkeypatch)
        sol = solve_lc(sub, 1e-6, warm_start=sol0)
        (u0, _), = starts
        assert np.all(u0[sub.n_ext:] == 0.0)
        assert sol.status == CONVERGED
        u = np.concatenate([sol.point.x_k, sol.v_star, sol.w_star])
        assert np.abs(sub.rows @ u + sub.lin.offset).max() <= 1e-12

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
        np.testing.assert_array_equal(u0[:n_ext], sol0.point.x_k)
        np.testing.assert_allclose(
            u0[n_ext:], np.concatenate([sol0.v_star, sol0.w_star]), atol=1e-12)
        expected = sol0.hess.copy()
        expected[:n_ext, :n_ext] += 90.0 * J.T @ J
        np.testing.assert_allclose(hess, expected, rtol=1e-15)
        assert sol.status == CONVERGED
        assert sol.rho == 100.0

    def test_row_parallel_to_a_linear_row_keeps_it_met(self, monkeypatch):
        """x1^2 + x2^2 = 1 linearized at (0.5, 0.5) has gradient (1, 1), the
        linear row x1 + x2 = 1.  No step meets both, so the identity
        model's step would break the linear row; the start keeps it and the
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
        assert np.abs(sub.rows @ u0 + sub.lin.offset).max() <= 1e-12
        assert sol.status == CONVERGED
        assert abs(sol.point.x_k[0] + sol.point.x_k[1] - 1.0) <= 1e-12
        np.testing.assert_allclose(sol.v_star[0] - sol.w_star[0], 0.5,
                                   atol=1e-12)

    def test_accepted_major_starts_at_its_model_s_minimizer(self, monkeypatch):
        """A kernel at a new base point starts at the minimizer of a
        quadratic model on the linearized rows: at major 0, which carries no
        matrix, of the identity's, and after an accepted major, of the last
        kernel's BFGS matrix.  With B that matrix's x_ext block, g the
        objective's gradient at the base point x_k and F the free
        coordinates, B_FF (x0 - x_k)_F + g_F = J_F^T y for some y, and
        J_k x0 + offset = 0.  Major 0 is circle-proj's, solved from its own
        start."""
        subs, assemble = [], driver.assemble_elastic

        def spied_assemble(*args):
            subs.append(assemble(*args))
            return subs[-1]

        monkeypatch.setattr(driver, "assemble_elastic", spied_assemble)
        starts = _recorded_starts(monkeypatch)
        assert solve(catalog_get("circle-proj").problem).status == "Optimal"
        major_0 = subs[0], starts[0][0], np.identity(subs[0].n_ext)
        assert starts[0][1] is None

        sf, sub0 = _subproblem("circle-proj", [0.5, 0.5], 0.0, 10.0, 100.0)
        sol0 = solve_lc(sub0, 1e-6)
        sub = assemble_elastic(linearize_constraints(sf, sol0.point.x_k),
                               sol0.delta_y, 10.0, 100.0)
        sol = solve_lc(sub, 1e-6, warm_start=sol0)
        (u0, hess) = starts[-1]
        assert sol.status == CONVERGED
        for s, start, B in (major_0, (sub, u0, hess[:sub.n_ext, :sub.n_ext])):
            lin, x0 = s.lin, start[:s.n_ext]
            free = np.flatnonzero((lin.sf.lo < lin.x_k) & (lin.x_k < lin.sf.hi))
            assert free.size == 2 and np.abs(x0 - lin.x_k).max() > 0.1
            model_grad = (B @ (x0 - lin.x_k)
                          + aug_lagrangian_grad(lin, s.y_k, s.rho_k))[free]
            J_F = lin.J_k[:, free]
            y = np.linalg.lstsq(J_F.T, model_grad, rcond=None)[0]
            assert np.abs(J_F.T @ y - model_grad).max() <= 1e-12
            assert np.abs(lin.cbar(x0)).max() <= 1e-12

    def test_linear_only_subproblem_starts_at_its_model_step(self, monkeypatch):
        """A subproblem with no nonlinear rows starts as every other one does:
        at the minimizer of its model on its rows, the identity's at major 0,
        which meets the conditions of
        test_accepted_major_starts_at_its_model_s_minimizer.  scaled-quads'
        start moves off its base point; box-quadratic's identity model is
        its objective up to a constant, so its kernel starts at the solution
        and takes no iteration."""
        subs, assemble = [], driver.assemble_elastic

        def spied_assemble(*args):
            subs.append(assemble(*args))
            return subs[-1]

        monkeypatch.setattr(driver, "assemble_elastic", spied_assemble)
        starts = _recorded_starts(monkeypatch)
        for name in ("scaled-quads", "box-quadratic"):
            subs.clear()
            rep = solve(catalog_get(name).problem)
            (s,), (u0, hess) = subs, starts[-1]
            assert s.m_c == 0 and hess is None
            assert rep.status == "Optimal", name
            if name == "box-quadratic":
                assert rep.minors == 0
            lin, x0 = s.lin, u0[:s.n_ext]
            free = np.flatnonzero((lin.sf.lo < lin.x_k) & (lin.x_k < lin.sf.hi))
            assert np.abs(x0 - lin.x_k).max() > 0.1
            model_grad = (x0 - lin.x_k + aug_lagrangian_grad(lin, s.y_k, s.rho_k))[free]
            J_F = lin.J_k[:, free]
            y = np.linalg.lstsq(J_F.T, model_grad, rcond=None)[0]
            assert np.abs(J_F.T @ y - model_grad).max() <= 1e-12
            assert np.abs(lin.cbar(x0)).max() <= 1e-12

    def test_model_step_parallel_to_a_linear_row_keeps_it_met(self, monkeypatch):
        """The row-parallel case above with a carried matrix: the model's
        KKT system is singular on the free coordinates, so its step would
        break the linear row; the start keeps the base point and the
        nonlinear row's elastic takes up the 0.5 left over."""
        sub = _circle_and_plane_subproblem(
            lambda x: float((x[0] - 2.0) ** 2 + x[1] ** 2),
            lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * x[1]]), [0.5, 0.5])
        warm = _carried_at_base(sub)
        starts = _recorded_starts(monkeypatch)
        sol = solve_lc(sub, 1e-6, warm_start=warm)
        (u0, hess), = starts
        assert hess is not None
        np.testing.assert_array_equal(u0[:sub.n_ext], sub.lin.x_k)
        assert np.abs(sub.rows @ u0 + sub.lin.offset).max() <= 1e-12
        assert sol.status == CONVERGED
        assert abs(sol.point.x_k[0] + sol.point.x_k[1] - 1.0) <= 1e-12
        np.testing.assert_allclose(sol.v_star[0] - sol.w_star[0], 0.5,
                                   atol=1e-12)

    def test_model_step_cut_by_a_bound_keeps_the_rows_met(self, monkeypatch):
        """With a carried matrix the model's step from (0.6, 0.3, 0.1) on
        x1 + x2 + x3 = 1 and the linearized x.x = 1 drives x3 below its
        bound 0: the step stops there, the linear row stays met, and the
        nonlinear row's elastic takes up what the cut step leaves."""
        sub = _circle_and_plane_subproblem(
            lambda x: float((x[0] - 2.0) ** 2 + x[1] ** 2 + (x[2] + 1.0) ** 2),
            lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * x[1], 2.0 * (x[2] + 1.0)]),
            [0.6, 0.3, 0.1])
        warm = _carried_at_base(sub)
        starts = _recorded_starts(monkeypatch)
        sol = solve_lc(sub, 1e-6, warm_start=warm)
        (u0, hess), = starts
        x0, v0, w0 = sub.split(u0)
        assert hess is not None and x0[2] == 0.0 and not np.array_equal(x0, sub.lin.x_k)
        assert abs(x0[:3].sum() - 1.0) <= 1e-12
        assert v0[0] + w0[0] > 0.1
        assert np.abs(sub.rows @ u0 + sub.lin.offset).max() <= 1e-12
        assert sol.status == CONVERGED
        assert abs(sol.point.x_k[:3].sum() - 1.0) <= 1e-12


def _circle_and_plane_subproblem(f, g, x_tilde):
    """The subproblem at x_tilde of min f over x >= 0 on the nonlinear row
    x.x = 1 and the linear row sum(x) = 1, with y = 0, rho = 10 and
    sigma = 100."""
    n = len(x_tilde)
    p = NlpProblem(
        n=n, m_c=1, m_A=1, eval_f=f, eval_g=g,
        eval_c=lambda x: np.array([x @ x]), eval_J=lambda x: 2.0 * x.reshape(1, n),
        A=np.ones((1, n)), bounds_x=(np.zeros(n), np.full(n, INF)),
        bounds_c=(np.ones(1), np.ones(1)), bounds_A=(np.ones(1), np.ones(1)),
        x_tilde=np.asarray(x_tilde, dtype=float))
    sf = build_slack_form(p)
    return assemble_elastic(linearize_constraints(sf, sf.embed(p.x_tilde)),
                            np.zeros(2), 10.0, 100.0)


def _base_kept_subproblem():
    """The circle-and-plane subproblem at (0.5, 0.5), where the linearized
    x.x = 1 is parallel to the linear row x1 + x2 = 1, with y = 0.3 and
    sigma = 5: no step meets both rows, so the start step keeps the base
    point (the linear-row fallback).  Its f, (x1 - 0.9)^2 + (x2 - 0.6)^2,
    takes the kernel a few steps along the linear row from there."""
    sub = _circle_and_plane_subproblem(
        lambda x: float((x[0] - 0.9) ** 2 + (x[1] - 0.6) ** 2),
        lambda x: np.array([2.0 * (x[0] - 0.9), 2.0 * (x[1] - 0.6)]), [0.5, 0.5])
    return assemble_elastic(sub.lin, np.full(2, 0.3), 10.0, 5.0)


def _carried_at_base(sub):
    """A warm start at sub's base point carrying the BFGS matrix a first
    solve of sub ends with, as after an accepted major whose candidate is
    this base point."""
    return dataclasses.replace(solve_lc(sub, 1e-6), point=sub.lin)


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
        sol.point = linearize_constraints(sub.lin.sf,
                                          sol.point.x_k + np.array([0.1, 0.0, 0.0]))
        assert not verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)

    def test_inconsistent_reduced_costs_fail(self):
        sub, sol = self._converged()
        sol.z_star = sol.z_star + 1.0
        assert not verify_relaxed_kkt(sub, sol, 1e-6, 1e-6)


def _projected(problem, x_tilde):
    """The unit form, solve_proximal's point embedded in it, and whether
    the point meets the rows."""
    x, meets_rows = solve_proximal(problem, x_tilde)
    sf = build_slack_form(problem)
    return sf, sf.embed(x), meets_rows


class TestSolveProximal:
    def test_projects_onto_box(self):
        sf, x0, meets_rows = _projected(catalog_get("box-quadratic").problem,
                                        np.array([-1.0, 5.0]))
        assert meets_rows
        np.testing.assert_allclose(x0[:2], [0.0, 2.0], atol=1e-8)
        np.testing.assert_allclose(sf.residual(x0), 0.0, atol=1e-6)

    def test_feasible_guess_is_kept(self, monkeypatch):
        """A clipped start that meets its rows is its own projection: it
        comes back bit for bit, with no kernel call."""
        def no_kernel(*args, **kwargs):
            raise AssertionError("the kernel was called")

        monkeypatch.setattr(innersolve, "bound_solve", no_kernel)
        x_tilde = np.array([1.0, 1.0])
        sf, x0, meets_rows = _projected(catalog_get("box-quadratic").problem, x_tilde)
        assert meets_rows
        assert solve_proximal(sf.nlp, x_tilde)[0].tobytes() == x_tilde.tobytes()
        assert x0.tobytes() == sf.embed(x_tilde).tobytes()
        np.testing.assert_array_equal(sf.residual(x0), 0.0)

    def test_equality_rows_are_met(self):
        sf, x0, meets_rows = _projected(catalog_get("lin-eq-quadratic").problem,
                                        np.array([5.0, 0.0, 0.0]))
        assert meets_rows
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
        sf, x0, meets_rows = _projected(p, p.x_tilde)
        assert meets_rows
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
        sf, x0, meets_rows = _projected(p, p.x_tilde)
        assert meets_rows
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
        sf, x0, meets_rows = _projected(p, p.x_tilde)
        assert meets_rows
        np.testing.assert_allclose(x0[0], 1e7, rtol=1e-12)
        np.testing.assert_allclose(sf.residual(x0), 0.0, atol=1e-12)

    def test_impossible_rows_give_least_elastic_sum(self):
        """x1 + x2 = 10 cannot hold inside [0, 1]^2; the point of least
        elastic sum, (1, 1), also has the least squared residual."""
        p = NlpProblem(
            n=2, m_c=0, m_A=1,
            eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(2),
            eval_c=None, eval_J=None, A=np.array([[1.0, 1.0]]),
            bounds_x=(np.zeros(2), np.ones(2)),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.array([10.0]), np.array([10.0])),
            x_tilde=np.array([0.5, 0.5]))
        sf, x0, meets_rows = _projected(p, p.x_tilde)
        assert not meets_rows
        np.testing.assert_allclose(x0, [1.0, 1.0, 10.0], atol=1e-12)

    def test_no_linear_rows_is_plain_embedding(self):
        sf, x0, meets_rows = _projected(catalog_get("circle-proj").problem,
                                        np.array([-2.0, 0.5]))
        assert meets_rows
        np.testing.assert_allclose(x0[:2], [0.0, 0.5])
