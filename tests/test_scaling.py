"""Scaling of f and the nonlinear rows at the start of a solve.

The solver multiplies f by f_scale and each nonlinear row by its row_scale,
powers of two read from g and J at the start point, and reports in the
problem's own units.  These tests check the factor rule, that a problem
stated in other units is solved as well, bit for bit where the factors
take the change of units back exactly, that the report's residual is
the problem's own, and that the KKT measure the schedule follows is the
scaled form's.
"""
from __future__ import annotations

import numpy as np
import pytest

from slcl.catalog import SOLVABLE, catalog_get, catalog_names
from slcl.driver import OuterOptions, solve
from slcl.innersolve import solve_proximal
from slcl.linearize import ElasticSubproblem, linearize_constraints
from slcl.merit import _measures, kkt_residual
from slcl.model import INF, SlackForm, build_slack_form, scale_factors

# the solvable entries with nonlinear rows, whose rows the scaling touches
ROW_NAMES = [n for n in catalog_names()
             if catalog_get(n).classification == SOLVABLE
             and catalog_get(n).problem.m_c > 0]
# f or c multiplied by 10^-3 or 10^3, and the problem as stated
UNITS = [(1.0, 1.0), (1e-3, 1.0), (1e3, 1.0), (1.0, 1e-3), (1.0, 1e3)]


def _start_gradient_norm(problem) -> float:
    """||g||_inf at the start the solve scales at: x_tilde projected onto
    the bounds and linear rows."""
    x0 = solve_proximal(problem, problem.x_tilde)[0]
    return float(np.abs(problem.eval_g(x0)).max())


class TestFactorRule:
    def test_powers_of_two_that_only_divide(self):
        norms = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1000.0, 1024.0])
        np.testing.assert_array_equal(
            scale_factors(norms),
            [1.0, 1.0, 1.0, 0.5, 0.5, 0.25, 2.0 ** -10, 2.0 ** -10])

    def test_huge_norms_stop_at_two_to_the_minus_ten(self):
        for norm in (2.0 ** 10 + 1.0, 1e300, np.inf):
            assert scale_factors(norm) == 2.0 ** -10

    def test_a_nan_norm_gets_a_factor_of_one(self):
        assert scale_factors(np.nan) == 1.0

    def test_zero_gradient_keeps_f_unscaled(self):
        """linear-as-nl starts at (0, 0), where g = 2x is zero."""
        problem = catalog_get("linear-as-nl").problem
        assert not problem.eval_g(problem.x_tilde).any()
        assert solve(problem).f_scale == 1.0

    def test_zero_jacobian_row_keeps_its_row_unscaled(self):
        """rosenbrock-ball starts at (0, 0), where its row's J = 2x is zero
        and its g = (-2, 0) is not."""
        problem = catalog_get("rosenbrock-ball").problem
        assert not problem.eval_J(problem.x_tilde).any()
        rep = solve(problem)
        assert rep.f_scale == 0.5
        np.testing.assert_array_equal(rep.row_scale, [1.0])

    def test_every_catalog_factor_is_a_power_of_two_at_most_one(self):
        for name in catalog_names():
            rep = solve(catalog_get(name).problem)
            factors = np.append(rep.row_scale, rep.f_scale)
            assert factors.shape == (catalog_get(name).problem.m_c + 1,)
            mantissa, _ = np.frexp(factors)
            assert (mantissa == 0.5).all() and (factors <= 1.0).all(), name


class TestFormArrays:
    def test_arrays_follow_the_factors(self):
        """The lifted box an ElasticSubproblem reads and kkt_residual's
        result equal, bit for bit, the expressions the form's held arrays
        stand for, on every catalog entry with unit factors and scaled at
        the proximal start, at that start and at a point moved off it: an
        array that is unset, stale or computed before the factors fails
        here."""
        rng = np.random.default_rng(3)
        scaled = 0
        for name in catalog_names():
            problem = catalog_get(name).problem
            x0 = solve_proximal(problem, problem.x_tilde)[0]
            for stage in ("built", "scaled"):
                sf = build_slack_form(problem, x0 if stage == "scaled" else None)
                x_ext = sf.embed(x0)
                if stage == "scaled":
                    scaled += sf.f_scale != 1.0 or (sf.col_scale != 1.0).any()
                pad = 2 * sf.m_c
                moved = np.clip(x_ext + 0.1 * rng.standard_normal(sf.n_ext), sf.lo, sf.hi)
                for x in (x_ext, moved):
                    lin = linearize_constraints(sf, x)
                    sub = ElasticSubproblem(lin=lin, y_k=np.zeros(sf.m), rho_k=1.0,
                                            sigma_k=1.0)
                    assert sub.lo.tobytes() == np.concatenate(
                        [sf.lo, np.zeros(pad)]).tobytes(), (name, stage)
                    assert sub.hi.tobytes() == np.concatenate(
                        [sf.hi, np.full(pad, INF)]).tobytes(), (name, stage)
                    y = rng.standard_normal(sf.m)
                    z = 10.0 * rng.standard_normal(sf.n_ext)
                    r, d = lin.c_k, sf.col_scale
                    dual_vec = lin.g - lin.jacobian_t(y) - z
                    to_user = d / sf.f_scale
                    expected = (
                        _measures(x / d, r / d[sf.n:], z * to_user, dual_vec * to_user,
                                  sf.lo / d, sf.hi / d),
                        _measures(x, r, z, dual_vec, sf.lo, sf.hi).f_norm)
                    assert kkt_residual(lin, y, z) == expected, (name, stage)
        assert scaled == 13


def _rescaled_unit_form(problem, x):
    """What the solve's one scaled form at x replaces, written out: the unit
    form, its embedding of x (the rows clipped into the unit box), the
    factors from g and J at x, then the box and the embedding multiplied by
    col_scale, with the arrays that follow."""
    unit = build_slack_form(problem)
    n = problem.n
    rows = np.concatenate([problem.c(x), problem.A @ x])
    x_ext = np.concatenate([x, np.clip(rows, unit.lo[n:], unit.hi[n:])])
    f_scale = float(scale_factors(np.abs(problem.g(x)).max(initial=0.0)))
    row_scale = scale_factors(np.abs(problem.J(x)).max(axis=1, initial=0.0))
    d = np.concatenate([np.ones(n), row_scale, np.ones(problem.m_A)])
    lo, hi, pad = unit.lo * d, unit.hi * d, 2 * problem.m_c
    return dict(
        f_scale=f_scale, row_scale=row_scale, col_scale=d, lo=lo, hi=hi,
        lifted_lo=np.concatenate([lo, np.zeros(pad)]),
        lifted_hi=np.concatenate([hi, np.full(pad, INF)]),
        to_user=d / f_scale, user_lo=lo / d, user_hi=hi / d), x_ext * d


class TestOneForm:
    def test_the_scaled_form_is_the_rescaled_unit_form(self):
        """On all 18 entries, from their own starts and from a shifted one,
        the form built scaled at the proximal point has the factors, box,
        held arrays and embedded start of the unit form rescaled, bit for
        bit, and its Jacobian and elastic rows are the dense blocks built
        whole, in the same memory order."""
        rng = np.random.default_rng(5)
        for name in catalog_names():
            problem = catalog_get(name).problem
            for shift in (0.0, 0.3, 2.0):
                x_tilde = problem.x_tilde + shift * rng.standard_normal(problem.n)
                x0 = solve_proximal(problem, x_tilde)[0]
                sf = build_slack_form(problem, x0)
                expected, x_ext = _rescaled_unit_form(problem, x0)
                assert sf.f_scale == expected.pop("f_scale"), name
                for attr, value in expected.items():
                    assert getattr(sf, attr).tobytes() == value.tobytes(), (name, attr)
                assert sf.embed(x0).tobytes() == x_ext.tobytes(), name
                n, m, m_c = sf.n, sf.m, sf.m_c
                lin = linearize_constraints(sf, x_ext)
                jac = np.zeros((m, sf.n_ext))
                jac[:m_c, :n], jac[m_c:, :n] = lin.J_x, problem.A
                jac[np.arange(m), n + np.arange(m)] = -1.0
                assert lin.J_k.tobytes() == jac.tobytes(), name
                rows = np.zeros((m, sf.n_ext + 2 * m_c), order="F")
                rows[:, :sf.n_ext] = jac
                i = np.arange(m_c)
                rows[i, sf.n_ext + i], rows[i, sf.n_ext + m_c + i] = 1.0, -1.0
                sub = ElasticSubproblem(lin=lin, y_k=np.zeros(m), rho_k=1.0, sigma_k=2.0)
                assert sub.rows.flags.f_contiguous, name
                assert sub.rows.tobytes(order="A") == rows.tobytes(order="A"), name

    def test_a_solve_builds_one_form(self, monkeypatch):
        """Every catalog solve constructs exactly one SlackForm."""
        built = []
        post_init = SlackForm.__post_init__

        def counted(sf):
            built.append(sf)
            post_init(sf)

        monkeypatch.setattr(SlackForm, "__post_init__", counted)
        for name in catalog_names():
            del built[:]
            solve(catalog_get(name).problem)
            assert len(built) == 1, name


class TestUnits:
    def test_units_grid(self, rescaled):
        """The 11 solvable entries with nonlinear rows, each as stated and
        with f or c multiplied by 10^-3 or 10^3, the targets in the same
        units: Optimal at f* on at least 53 of the 55.  The two misses keep
        a row factor of 1: quarter-ellipse with c x 10^-3, whose row
        gradient is already below 1, ends CannotImprove at the omega floor
        (see the next test), and rosenbrock-ball with c x 10^3, whose row
        gradient is 0 at its start.  Without scaling 47 of 55."""
        assert len(ROW_NAMES) == 11
        misses = []
        for name in ROW_NAMES:
            entry = catalog_get(name)
            for a, b in UNITS:
                opts = OuterOptions(omega_star=1e-6 * a, eta_star=1e-6 * b,
                                    max_major=100)
                rep = solve(rescaled(entry.problem, a, b), opts)
                f_star = a * entry.known_objective
                if not (rep.status == "Optimal" and abs(rep.final_objective - f_star)
                        <= 1e-5 * (1.0 + abs(f_star))):
                    misses.append((name, a, b, rep.status))
        assert len(misses) <= 2, misses

    def test_quarter_ellipse_with_small_rows_stops_at_the_floor(self, rescaled):
        """With c x 10^-3 quarter-ellipse reaches (0, 0), where J = 0, in
        major 0, and every later major converges where it started.  The
        second such major at the omega floor ends the run, which used to
        accept majors that changed nothing until max_major."""
        entry = catalog_get("quarter-ellipse")
        rep = solve(rescaled(entry.problem, 1.0, 1e-3),
                    OuterOptions(omega_star=1e-6, eta_star=1e-9, max_major=100))
        assert rep.status == "CannotImprove" and rep.majors <= 10
        assert all(t.inner_iterations == 0 for t in rep.trace[1:])

    def test_quarter_ellipse_with_a_large_objective(self, rescaled):
        """With f x 10^3 the unscaled schedule rejected every major and ended
        Infeasible on this feasible problem."""
        entry = catalog_get("quarter-ellipse")
        rep = solve(rescaled(entry.problem, 1e3, 1.0), OuterOptions(omega_star=1e-3))
        assert rep.status == "Optimal"
        assert rep.final_objective == pytest.approx(1e3 * entry.known_objective, rel=1e-5)

    @pytest.mark.parametrize("a", [4.0, 16.0])
    def test_objective_units_do_not_change_the_iterates(self, rescaled, a):
        """f multiplied by a, with omega_star and omega_0 multiplied by a
        too, gives the same majors, minors and x bit for bit on every entry
        whose start ||g||_inf is at least 1: the factor takes a back
        exactly, so the kernel and the schedule see the same numbers."""
        checked = 0
        for name in catalog_names():
            problem = catalog_get(name).problem
            if _start_gradient_norm(problem) < 1.0:
                continue
            base = solve(problem)
            rep = solve(rescaled(catalog_get(name).problem, a, 1.0),
                        OuterOptions(omega_star=1e-6 * a,
                                     omega_0=OuterOptions().omega_0 * a))
            assert rep.f_scale == base.f_scale / a, name
            assert (rep.status, rep.majors, rep.minors) == (
                base.status, base.majors, base.minors), name
            np.testing.assert_array_equal(rep.x, base.x, err_msg=name)
            checked += 1
        assert checked == 15


class TestReportUnits:
    @pytest.mark.parametrize("name", ["two-circles", "ridge-eq", "circle-chord"])
    def test_residual_is_the_problem_s_own(self, name):
        """On problems whose f and rows the solve scaled, the report's
        residual is what the raw callbacks give at the report's x_ext, y
        and z in the problem's units, and its objective is f there."""
        problem = catalog_get(name).problem
        rep = solve(problem)
        assert rep.status == "Optimal"
        assert rep.f_scale < 1.0 and (rep.row_scale < 1.0).all()
        n = problem.n
        x, s = rep.x_ext[:n], rep.x_ext[n:]
        rows = np.concatenate([problem.eval_c(x), problem.A @ x])
        lo = np.concatenate([problem.bounds_x[0], problem.bounds_c[0], problem.bounds_A[0]])
        hi = np.concatenate([problem.bounds_x[1], problem.bounds_c[1], problem.bounds_A[1]])
        jac = np.vstack([problem.eval_J(x), problem.A])
        primal = max(np.abs(rows - s).max(),
                     np.maximum(lo - rep.x_ext, rep.x_ext - hi).max(initial=0.0))
        grad = np.concatenate([problem.eval_g(x) - jac.T @ rep.y, rep.y])
        dual = np.abs(grad - rep.z).max()
        comp = np.maximum(np.minimum(rep.x_ext - lo, np.maximum(rep.z, 0.0)),
                          np.minimum(hi - rep.x_ext, np.maximum(-rep.z, 0.0)))
        res = rep.residual
        assert res.primal_inf == pytest.approx(primal, rel=1e-9, abs=1e-15)
        assert res.dual_inf == pytest.approx(dual, rel=1e-9, abs=1e-15)
        assert res.comp == pytest.approx(np.abs(comp).max(), rel=1e-9, abs=1e-15)
        assert rep.final_objective == problem.eval_f(rep.x)
        assert np.array_equal(x, rep.x) and not np.shares_memory(rep.x, rep.x_ext)

    @pytest.mark.parametrize("name", ["two-circles", "ridge-eq", "circle-chord"])
    def test_kkt_measure_is_the_scaled_form_s(self, name):
        """With the residual in the problem's units, kkt_residual gives the
        KKT measure F the omega schedule follows: max(primal, dual, comp)
        of the raw callbacks times f_scale, row_scale and col_scale, here
        at the scaled start with multipliers off the solution."""
        problem = catalog_get(name).problem
        x0 = solve_proximal(problem, problem.x_tilde)[0]
        sf = build_slack_form(problem, x0)
        x_ext = sf.embed(x0)
        assert sf.f_scale < 1.0 and (sf.row_scale < 1.0).all()
        rng = np.random.default_rng(3)
        y, z = rng.standard_normal(sf.m), rng.standard_normal(sf.n_ext)
        res, f_norm = kkt_residual(linearize_constraints(sf, x_ext), y, z)
        n, d = problem.n, sf.col_scale
        x = x_ext[:n]
        rows = np.concatenate([sf.row_scale * problem.eval_c(x), problem.A @ x])
        lo = d * np.concatenate([problem.bounds_x[0], problem.bounds_c[0], problem.bounds_A[0]])
        hi = d * np.concatenate([problem.bounds_x[1], problem.bounds_c[1], problem.bounds_A[1]])
        jac = np.vstack([sf.row_scale[:, None] * problem.eval_J(x), problem.A])
        primal = max(np.abs(rows - x_ext[n:]).max(),
                     np.maximum(lo - x_ext, x_ext - hi).max(initial=0.0))
        grad = np.concatenate([sf.f_scale * problem.eval_g(x) - jac.T @ y, y])
        dual = np.abs(grad - z).max()
        comp = np.maximum(np.minimum(x_ext - lo, np.maximum(z, 0.0)),
                          np.minimum(hi - x_ext, np.maximum(-z, 0.0)))
        assert f_norm == pytest.approx(max(primal, dual, np.abs(comp).max()), rel=1e-12)
        assert f_norm != res.f_norm
