"""Tests for the augmented Lagrangian, multiplier estimates, and KKT residuals."""

import numpy as np

from slcl.catalog import catalog_get, catalog_names
from slcl.innersolve import solve_proximal
from slcl.linearize import linearize_constraints
from slcl.merit import (KktResidual, aug_lagrangian, aug_lagrangian_grad,
                        comp_measure, is_optimal, kkt_residual,
                        min_norm_stationarity)
from slcl.model import INF, NlpProblem, bound_violation, build_slack_form


def _linear_as_nl_form():
    entry = catalog_get("linear-as-nl")
    return build_slack_form(entry.problem)


def _sample_point(sf, rng, spread=1.0):
    """Random extended point near the start, clipped into finite bounds."""
    base = sf.embed(sf.nlp.x_tilde)
    x_ext = base + spread * rng.standard_normal(sf.n_ext)
    return np.clip(x_ext, np.maximum(sf.lo, -10.0), np.minimum(sf.hi, 10.0))


class TestAugLagrangian:
    def test_penalty_only_value(self):
        """x=(0,0), y=0, rho=2: residual is -2, L = 0 + 0.5 * 2 * 4 = 4."""
        sf = _linear_as_nl_form()
        lin = linearize_constraints(sf, np.array([0.0, 0.0, 2.0]))
        assert aug_lagrangian(lin, np.zeros(1), 2.0) == 4.0

    def test_zero_rho_zero_y_is_objective(self):
        sf = _linear_as_nl_form()
        rng = np.random.default_rng(11)
        for _ in range(5):
            lin = linearize_constraints(sf, _sample_point(sf, rng))
            np.testing.assert_allclose(
                aug_lagrangian(lin, np.zeros(1), 0.0),
                sf.nlp.f(lin.x_k[:sf.n]), rtol=1e-14)

    def test_feasible_point_drops_row_terms(self):
        """At zero residual the multiplier and penalty terms vanish."""
        sf = _linear_as_nl_form()
        lin = linearize_constraints(sf, np.array([1.0, 1.0, 2.0]))
        assert aug_lagrangian(lin, np.array([3.0]), 0.0) == 2.0
        assert aug_lagrangian(lin, np.array([3.0]), 50.0) == 2.0

    def test_rho_shift_identity(self):
        """L(x, y, rho) = L(x, y, 0) + (rho/2) ||residual||^2 exactly."""
        rng = np.random.default_rng(23)
        for name in ("circle-proj", "two-circles", "ball-proj"):
            sf = build_slack_form(catalog_get(name).problem)
            for _ in range(20):
                x_ext = _sample_point(sf, rng)
                y = rng.standard_normal(sf.m)
                rho = float(rng.uniform(0.0, 100.0))
                r = sf.residual(x_ext)
                lin = linearize_constraints(sf, x_ext)
                lhs = aug_lagrangian(lin, y, rho)
                rhs = aug_lagrangian(lin, y, 0.0) + 0.5 * rho * (r @ r)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestAugLagrangianGrad:
    def test_penalty_gradient_example(self):
        """x=(0,0), y=0, rho=2 on the affine row: x block is (-4, -4)."""
        sf = _linear_as_nl_form()
        lin = linearize_constraints(sf, np.array([0.0, 0.0, 2.0]))
        grad = aug_lagrangian_grad(lin, np.zeros(1), 2.0)
        np.testing.assert_allclose(grad, [-4.0, -4.0, 4.0], atol=1e-14)

    def test_zero_rho_zero_y_is_objective_gradient(self):
        sf = _linear_as_nl_form()
        x_ext = np.array([0.7, 0.3, 2.0])
        np.testing.assert_allclose(
            aug_lagrangian_grad(linearize_constraints(sf, x_ext), np.zeros(1), 0.0),
            np.concatenate([sf.nlp.g(x_ext[:sf.n]), np.zeros(1)]), rtol=1e-14)

    def test_gradient_rho_free_at_feasible_points(self):
        sf = _linear_as_nl_form()
        lin = linearize_constraints(sf, np.array([1.5, 0.5, 2.0]))
        y = np.array([1.2])
        g0 = aug_lagrangian_grad(lin, y, 0.0)
        g9 = aug_lagrangian_grad(lin, y, 90.0)
        np.testing.assert_allclose(g0, g9, atol=1e-12)

    def test_two_evaluation_orders_agree(self):
        """g - J'(y - rho c) equals g - J'y + rho J'c to roundoff."""
        rng = np.random.default_rng(5)
        for name in ("circle-proj", "sphere-min-sum"):
            sf = build_slack_form(catalog_get(name).problem)
            for _ in range(20):
                x_ext = _sample_point(sf, rng)
                y = rng.standard_normal(sf.m)
                rho = float(rng.uniform(0.0, 100.0))
                lin = linearize_constraints(sf, x_ext)
                lhs = aug_lagrangian_grad(lin, y, rho)
                J = sf.jacobian(sf.nlp.J(x_ext[:sf.n]))
                r = sf.residual(x_ext)
                rhs = lin.g - J.T @ y + rho * (J.T @ r)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(99)
        h = 1e-6
        for name in ("circle-proj", "linear-as-nl", "two-circles"):
            sf = build_slack_form(catalog_get(name).problem)
            for _ in range(10):
                x_ext = _sample_point(sf, rng)
                y = rng.standard_normal(sf.m)
                rho = float(rng.uniform(0.0, 50.0))
                grad = aug_lagrangian_grad(linearize_constraints(sf, x_ext), y, rho)
                for j in range(sf.n_ext):
                    d = np.zeros(sf.n_ext)
                    d[j] = h
                    fd = (aug_lagrangian(linearize_constraints(sf, x_ext + d), y, rho)
                          - aug_lagrangian(linearize_constraints(sf, x_ext - d), y, rho)
                          ) / (2 * h)
                    assert abs(fd - grad[j]) / (1.0 + abs(grad[j])) <= 1e-6


class TestFirstOrderMultiplier:
    """The gradient prices the rows at the shifted estimate y - rho * ctil.

    With c(x) = x and f = 0 the residual at (x, s) is x - s, and the slack
    block of the gradient is exactly that estimate.
    """

    @staticmethod
    def _estimate(x, y, rho):
        p = NlpProblem(
            n=2, m_c=2, m_A=0, eval_f=lambda x: 0.0,
            eval_g=lambda x: np.zeros(2), eval_c=lambda x: np.array(x),
            eval_J=lambda x: np.identity(2), A=np.zeros((0, 2)),
            bounds_x=(np.full(2, -INF), np.full(2, INF)),
            bounds_c=(np.full(2, -INF), np.full(2, INF)),
            bounds_A=(np.zeros(0), np.zeros(0)), x_tilde=np.zeros(2))
        x_ext = np.concatenate([x, np.zeros(2)])
        lin = linearize_constraints(build_slack_form(p), x_ext)
        return aug_lagrangian_grad(lin, y, rho)[2:]

    def test_direct_substitution(self):
        got = self._estimate(np.array([0.1, 0.2]), np.array([1.0, -1.0]), 10.0)
        np.testing.assert_allclose(got, [0.0, -3.0])

    def test_zero_rho_identity(self):
        y = np.array([2.0, -4.0])
        np.testing.assert_allclose(self._estimate(np.ones(2), y, 0.0), y)

    def test_zero_residual_identity(self):
        y = np.array([2.0, -4.0])
        np.testing.assert_allclose(self._estimate(np.zeros(2), y, 7.0), y)


class TestCompMeasure:
    def test_active_lower_bound_with_positive_cost(self):
        lo, hi = np.zeros(2), np.full(2, INF)
        comp = comp_measure(np.zeros(2), np.array([1.0, 1.0]), lo, hi)
        np.testing.assert_allclose(comp, 0.0)

    def test_free_variable_contributes_abs_z(self):
        lo, hi = np.full(3, -INF), np.full(3, INF)
        comp = comp_measure(np.array([5.0, -2.0, 0.0]),
                            np.array([0.5, -1.5, 0.0]), lo, hi)
        np.testing.assert_allclose(comp, [0.5, 1.5, 0.0])

    def test_fixed_variable_contributes_zero(self):
        lo = hi = np.array([2.0])
        comp = comp_measure(np.array([2.0]), np.array([-9.0]), lo, hi)
        np.testing.assert_allclose(comp, 0.0)

    def test_interior_point_needs_zero_cost(self):
        lo, hi = np.zeros(1), np.full(1, 4.0)
        assert comp_measure(np.array([2.0]), np.array([0.3]), lo, hi)[0] == 0.3
        assert comp_measure(np.array([2.0]), np.array([0.0]), lo, hi)[0] == 0.0


class TestKktResidual:
    def test_exact_kkt_point(self):
        """(1, 1) with y = 2 and slack cost 2 is a clean KKT triple."""
        sf = _linear_as_nl_form()
        x_ext = np.array([1.0, 1.0, 2.0])
        res, f_norm = kkt_residual(linearize_constraints(sf, x_ext), np.array([2.0]),
                                   np.array([0.0, 0.0, 2.0]))
        assert res.primal_inf == 0.0
        assert res.dual_inf <= 1e-15
        assert res.comp <= 1e-15
        assert res.f_norm <= 1e-15 and f_norm == res.f_norm

    def test_missing_multiplier_shows_in_dual(self):
        sf = _linear_as_nl_form()
        x_ext = np.array([1.0, 1.0, 2.0])
        res, f_norm = kkt_residual(linearize_constraints(sf, x_ext), np.zeros(1),
                                   np.zeros(3))
        assert res.primal_inf == 0.0
        assert res.dual_inf == 2.0
        # a form with unit factors: the scaled measure is the residual's
        assert f_norm == res.f_norm == 2.0

    def test_f_norm_is_componentwise_max(self):
        res = KktResidual(primal_inf=0.3, dual_inf=0.1, comp=0.7)
        assert res.f_norm == 0.7

    def test_bound_violation_enters_primal(self):
        sf = _linear_as_nl_form()
        x_ext = np.array([-0.5, 1.0, 2.0])
        res, _ = kkt_residual(linearize_constraints(sf, x_ext), np.zeros(1),
                              np.zeros(3))
        assert res.primal_inf >= 0.5


    def test_one_pass_matches_the_two_pass_expressions(self):
        """kkt_residual forms x - lo and hi - x once for the bound violation
        and the complementarity; at seeded points inside and outside the
        box of every entry's scaled form, with random multipliers, it gives
        the bits of the separate expressions in both units."""
        def two_pass(x, r, z, dual_vec, lo, hi):
            violation = np.maximum(np.maximum(lo - x, x - hi), 0.0).max(initial=0.0)
            comp = np.maximum(np.minimum(x - lo, np.maximum(z, 0.0)),
                              np.minimum(hi - x, np.maximum(-z, 0.0)))
            return KktResidual(primal_inf=max(float(np.abs(r).max(initial=0.0)),
                                              float(violation)),
                               dual_inf=float(np.abs(dual_vec).max(initial=0.0)),
                               comp=float(np.abs(comp).max(initial=0.0)))

        rng = np.random.default_rng(29)
        for name in catalog_names():
            problem = catalog_get(name).problem
            x0 = solve_proximal(problem, problem.x_tilde)[0]
            sf = build_slack_form(problem, x0)
            base, d = sf.embed(x0), sf.col_scale
            for k in range(60):
                x = base + 0.5 * rng.standard_normal(sf.n_ext)
                if k % 2:
                    x = np.minimum(np.maximum(x, sf.lo), sf.hi)
                lin = linearize_constraints(sf, x)
                y = rng.standard_normal(sf.m)
                z = 3.0 * rng.standard_normal(sf.n_ext)
                r, to_user = lin.c_k, d / sf.f_scale
                dual_vec = lin.g - lin.jacobian_t(y) - z
                expected = (two_pass(x / d, r / d[sf.n:], z * to_user, dual_vec * to_user,
                                     sf.lo / d, sf.hi / d),
                            two_pass(x, r, z, dual_vec, sf.lo, sf.hi).f_norm)
                assert repr(kkt_residual(lin, y, z)) == repr(expected), name


class TestIsOptimal:
    def test_strictly_inside(self):
        res = KktResidual(primal_inf=1e-7, dual_inf=0.0, comp=1e-8)
        assert is_optimal(res, 1e-6, 1e-6)

    def test_primal_violation(self):
        res = KktResidual(primal_inf=1e-5, dual_inf=0.0, comp=0.0)
        assert not is_optimal(res, 1e-6, 1e-6)

    def test_exact_point(self):
        res = KktResidual(primal_inf=0.0, dual_inf=0.0, comp=0.0)
        assert is_optimal(res, 1e-12, 1e-12)


class TestInfeasibilityMeasures:
    def test_bound_violation_norm(self):
        lo, hi = np.zeros(2), np.full(2, 1.0)
        assert bound_violation(np.array([-0.25, 1.5]), lo, hi) == 0.5
        assert bound_violation(np.array([0.5, 0.5]), lo, hi) == 0.0

    def test_min_norm_stationarity_at_residual_minimizer(self):
        """The origin minimizes the squared residual of x1 + x2 + 1 over x >= 0."""
        sf = build_slack_form(catalog_get("infeas-affine").problem)
        x_ext = sf.embed(np.zeros(2))
        assert min_norm_stationarity(linearize_constraints(sf, x_ext)) <= 1e-12
        x_ext = sf.embed(np.array([0.5, 0.5]))
        assert min_norm_stationarity(linearize_constraints(sf, x_ext)) > 0.1


class TestGradientSweep:
    def test_all_catalog_problems_sampled(self):
        """Spot sweep preceding the larger acceptance sweep: 10 samples each."""
        rng = np.random.default_rng(2718)
        h = 1e-6
        for name in catalog_names():
            sf = build_slack_form(catalog_get(name).problem)
            for _ in range(10):
                x_ext = _sample_point(sf, rng, spread=0.5)
                y = 2.0 * rng.standard_normal(sf.m)
                rho = float(rng.uniform(0.0, 30.0))
                grad = aug_lagrangian_grad(linearize_constraints(sf, x_ext), y, rho)
                d = rng.standard_normal(sf.n_ext)
                d /= np.abs(d).max()
                fd = (aug_lagrangian(linearize_constraints(sf, x_ext + h * d), y, rho)
                      - aug_lagrangian(linearize_constraints(sf, x_ext - h * d), y, rho)
                      ) / (2 * h)
                assert abs(fd - grad @ d) / (1.0 + abs(grad @ d)) <= 1e-6, name
