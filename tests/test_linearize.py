"""Tests for constraint linearization and the elastic lifted subproblem."""

import numpy as np
import pytest

from slcl.catalog import catalog_get, catalog_names
from slcl.linearize import (assemble_elastic, linearize_constraints,
                            optimal_elastics)
from slcl.merit import aug_lagrangian
from slcl.model import INF, NlpProblem, build_slack_form


def _ring_form():
    """One row x1^2 + x2^2 pinned to 1 by its slack."""
    p = NlpProblem(
        n=2, m_c=1, m_A=0,
        eval_f=lambda x: x[0] ** 2 + x[1] ** 2,
        eval_g=lambda x: 2.0 * x,
        eval_c=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        eval_J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        A=np.zeros((0, 2)),
        bounds_x=(np.full(2, -INF), np.full(2, INF)),
        bounds_c=(np.array([1.0]), np.array([1.0])),
        bounds_A=(np.zeros(0), np.zeros(0)),
        x_tilde=np.array([1.0, 1.0]))
    return build_slack_form(p)


class TestLinearization:
    def test_base_point_reproduction(self):
        """cbar at the base point equals the residual there: 1 + 1 - 1 = 1."""
        sf = _ring_form()
        x_k = np.array([1.0, 1.0, 1.0])
        lin = linearize_constraints(sf, x_k)
        np.testing.assert_allclose(sf.residual(x_k), [1.0])
        np.testing.assert_allclose(lin.cbar(x_k), [1.0])
        # tangent model 2 x1 + 2 x2 - s - 2 away from the base
        np.testing.assert_allclose(lin.cbar([0.5, 0.5, 1.0]), [-1.0])

    def test_affine_rows_linearize_to_themselves(self):
        sf = build_slack_form(catalog_get("linear-as-nl").problem)
        lin = linearize_constraints(sf, sf.embed(np.array([0.3, 1.7])))
        rng = np.random.default_rng(17)
        for _ in range(10):
            x_ext = rng.uniform(-3.0, 3.0, size=sf.n_ext)
            np.testing.assert_allclose(lin.cbar(x_ext), sf.residual(x_ext),
                                       atol=1e-12)

    def test_zero_jacobian_row_is_harmless(self):
        """c(x) = x1^2 at the flat point x1 = 0 gives a zero x-column."""
        p = NlpProblem(
            n=1, m_c=1, m_A=0,
            eval_f=lambda x: float(x[0]),
            eval_g=lambda x: np.ones(1),
            eval_c=lambda x: np.array([x[0] ** 2]),
            eval_J=lambda x: np.array([[2.0 * x[0]]]),
            A=np.zeros((0, 1)),
            bounds_x=(np.full(1, -INF), np.full(1, INF)),
            bounds_c=(np.array([0.0]), np.array([0.0])),
            bounds_A=(np.zeros(0), np.zeros(0)),
            x_tilde=np.zeros(1))
        sf = build_slack_form(p)
        lin = linearize_constraints(sf, np.zeros(2))
        assert lin.J_k[0, 0] == 0.0
        np.testing.assert_allclose(lin.cbar(np.zeros(2)), [0.0])
        # the model ignores x1 entirely; only the slack column remains
        np.testing.assert_allclose(lin.cbar(np.array([5.0, 0.0])), [0.0])

    def test_jacobian_matches_model_gradient(self):
        sf = _ring_form()
        lin = linearize_constraints(sf, np.array([0.6, -0.8, 1.0]))
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        gap = lin.cbar(a) - lin.cbar(b)
        np.testing.assert_allclose(gap, lin.J_k @ (a - b), atol=1e-12)


    def test_record_holds_the_point_values(self):
        """The record's c_k is the residual at x_k, and its J^T y equals the
        block product from a fresh J(x) bit for bit: it reads J(x), not the
        strided block of J_k, whose products NumPy sums in another order
        with 20 rows in two variables."""
        m = 20
        a = np.linspace(0.5, 2.0, m)
        p = NlpProblem(
            n=2, m_c=m, m_A=0, eval_f=lambda x: float(x @ x),
            eval_g=lambda x: 2.0 * x,
            eval_c=lambda x: a * x[0] ** 2 + np.sin(a * x[1]),
            eval_J=lambda x: np.column_stack([2.0 * a * x[0],
                                              a * np.cos(a * x[1])]),
            A=np.zeros((0, 2)), bounds_x=(np.full(2, -INF), np.full(2, INF)),
            bounds_c=(np.zeros(m), np.zeros(m)),
            bounds_A=(np.zeros(0), np.zeros(0)), x_tilde=np.array([0.3, 0.7]))
        sf = build_slack_form(p)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x_ext = rng.standard_normal(sf.n_ext)
            y = rng.standard_normal(m) * 10.0 ** rng.uniform(-5, 5, m)
            lin = linearize_constraints(sf, x_ext)
            assert np.array_equal(lin.c_k, sf.residual(x_ext))
            assert np.array_equal(lin.jacobian_t(y),
                                  np.concatenate([p.J(x_ext[:2]).T @ y + p.A.T @ y[m:], -y]))

    def test_fields_are_evaluated_on_first_read_only(self):
        """Building a record calls no callback; reading every field twice
        calls f, g, c and J once each.  A second record of the same point
        reads them all from the problem's memory of its last calls, and a
        record of another point calls each once more."""
        sf = _ring_form()
        p = sf.nlp
        x_k = np.array([0.6, -0.8, 1.0])

        def counts():
            return np.array([p.n_feval, p.n_geval, p.n_ceval, p.n_jeval])

        def read(lin):
            for _ in range(2):
                for field in ("c_k", "f", "g", "J_x", "J_k", "offset"):
                    getattr(lin, field)
                lin.cbar(lin.x_k)
                lin.jacobian_t(np.ones(1))

        for x_ext, calls in ((x_k, 1), (x_k.copy(), 0), (x_k + 0.5, 1)):
            before = counts()
            lin = linearize_constraints(sf, x_ext)
            assert (counts() == before).all()
            read(lin)
            assert (counts() - before).tolist() == [calls] * 4

    def test_jacobian_t_is_the_general_block_expression(self):
        """J_k^T y by blocks has the bytes of (J(x)^T y_c + A^T y_A; -y),
        signed zeros included: on every catalog entry, and with and without
        a linear row on c = (x1^2 + x2, x1 x2), whose J(x) has a zero third
        column and, at x1 = 0, a zero first entry, for y of both signs.
        Without linear rows the empty A^T y_A is not formed; its zeros'
        place in the sum is kept, so an entry reads +0.0 as there."""
        def ring(m_A):
            return NlpProblem(
                n=3, m_c=2, m_A=m_A, eval_f=lambda x: float(x @ x), eval_g=lambda x: 2.0 * x,
                eval_c=lambda x: np.array([x[0] ** 2 + x[1], x[0] * x[1]]),
                eval_J=lambda x: np.array([[2.0 * x[0], 1.0, 0.0], [x[1], x[0], 0.0]]),
                A=np.ones((m_A, 3)), bounds_x=(np.full(3, -INF), np.full(3, INF)),
                bounds_c=(np.zeros(2), np.zeros(2)),
                bounds_A=(np.zeros(m_A), np.ones(m_A)), x_tilde=np.zeros(3))

        rng = np.random.default_rng(41)
        problems = [catalog_get(name).problem for name in catalog_names()] + [ring(0), ring(1)]
        for problem in problems:
            sf = build_slack_form(problem)
            for k in range(12):
                x_ext = rng.standard_normal(sf.n_ext)
                x_ext[0] *= k % 2
                y = rng.standard_normal(sf.m) * (-1.0) ** k
                lin = linearize_constraints(sf, x_ext)
                general = np.concatenate([lin.J_x.T @ y[:sf.m_c] + sf.nlp.A.T @ y[sf.m_c:],
                                          -y])
                assert lin.jacobian_t(y).tobytes() == general.tobytes(), problem.name


class TestElasticSubproblem:
    def test_lifted_dimensions(self):
        sf = build_slack_form(catalog_get("two-circles").problem)
        lin = linearize_constraints(sf, sf.embed(sf.nlp.x_tilde))
        sub = assemble_elastic(lin, np.zeros(2), 1.0, 1.0)
        assert sf.n_ext == 4 and sub.m_c == 2
        assert sub.lo.size == sub.hi.size == 8

    def test_blockwise_rows_match_dense_matrix(self):
        """On every catalog entry (m_c or m_A zero, or both, or neither) the
        dense rows and the blockwise row residual agree with [J_k, E, -E],
        E the nonlinear rows' columns of the identity; the rows are
        column-major."""
        rng = np.random.default_rng(61)
        for name in catalog_names():
            sf = build_slack_form(catalog_get(name).problem)
            lin = linearize_constraints(sf, sf.embed(sf.nlp.x_tilde))
            m = sf.m
            sub = assemble_elastic(lin, np.zeros(m), 1.0, 1.0)
            E = np.eye(m, sf.m_c)
            R = np.hstack([lin.J_k, E, -E])
            np.testing.assert_array_equal(sub.rows, R)
            assert sub.rows.flags.f_contiguous, name
            for _ in range(20):
                u = rng.standard_normal(sub.lo.size)
                # rows that cancel are compared at the rounding of their terms
                terms = np.abs(R) @ np.abs(u) + np.abs(lin.offset)
                np.testing.assert_allclose(sub.row_residual(u), R @ u + lin.offset,
                                           rtol=1e-14, atol=1e-14 * terms.max(initial=0.0))

    def test_zero_sigma_reduces_to_merit(self):
        """With sigma = 0 the elastics drop out of value and gradient."""
        sf = _ring_form()
        x_k = np.array([1.0, 1.0, 1.0])
        lin = linearize_constraints(sf, x_k)
        y = np.array([0.7])
        sub = assemble_elastic(lin, y, 3.0, 0.0)
        u = np.concatenate([x_k, [2.0], [1.5]])
        value, point = sub.evaluate(u)
        assert value == aug_lagrangian(linearize_constraints(sf, x_k), y, 3.0)
        np.testing.assert_allclose(sub.gradient(u, point)[sf.n_ext:], 0.0)

    def test_evaluate_reads_the_base_record_at_the_base_point(self):
        """At the base point, bit for bit, evaluate returns the base record
        and reads f and c from it; anywhere else it builds a new record."""
        sf = _ring_form()
        lin = linearize_constraints(sf, np.array([0.0, 1.0, 1.0]))
        sub = assemble_elastic(lin, np.zeros(1), 1.0, 1.0)
        elastics = np.zeros(2)
        value, point = sub.evaluate(np.concatenate([lin.x_k, elastics]))
        assert point is lin and value == aug_lagrangian(lin, sub.y_k, 1.0)
        for x_ext in (np.array([-0.0, 1.0, 1.0]), np.array([0.5, 1.0, 1.0])):
            _, point = sub.evaluate(np.concatenate([x_ext, elastics]))
            assert point is not lin
            assert point.x_k.tobytes() == x_ext.tobytes()

    def test_base_point_with_signed_split_is_row_feasible(self):
        sf = _ring_form()
        x_k = np.array([1.0, 1.0, 1.0])
        lin = linearize_constraints(sf, x_k)
        sub = assemble_elastic(lin, np.zeros(1), 1.0, 1.0)
        v, w = optimal_elastics(lin.cbar(lin.x_k))
        u = np.concatenate([x_k, v, w])
        np.testing.assert_allclose(sub.rows @ u + lin.offset, 0.0, atol=1e-14)

    def test_objective_prices_elastics(self):
        sf = _ring_form()
        lin = linearize_constraints(sf, np.array([1.0, 1.0, 1.0]))
        sub = assemble_elastic(lin, np.zeros(1), 0.0, 2.5)
        u0 = np.concatenate([lin.x_k, [0.0], [0.0]])
        u1 = np.concatenate([lin.x_k, [0.5], [0.25]])
        assert sub.evaluate(u1)[0] - sub.evaluate(u0)[0] == 2.5 * 0.75

    def test_lifted_value_equals_l1_penalty_form(self):
        """Minimal elastics turn the lifted objective into L + sigma ||cbar||_1."""
        rng = np.random.default_rng(29)
        sf = build_slack_form(catalog_get("two-circles").problem)
        lin = linearize_constraints(sf, sf.embed(sf.nlp.x_tilde))
        for _ in range(15):
            y = rng.standard_normal(2)
            rho = float(rng.uniform(0.0, 20.0))
            sigma = float(rng.uniform(0.0, 5.0))
            sub = assemble_elastic(lin, y, rho, sigma)
            x_ext = rng.uniform(-2.0, 2.0, size=sf.n_ext)
            v, w = optimal_elastics(lin.cbar(x_ext))
            lifted = sub.evaluate(np.concatenate([x_ext, v, w]))[0]
            direct = (aug_lagrangian(linearize_constraints(sf, x_ext), y, rho)
                      + sigma * np.abs(lin.cbar(x_ext)).sum())
            np.testing.assert_allclose(lifted, direct, rtol=1e-12, atol=1e-12)

    def test_linear_rows_get_no_elastic_range(self):
        """Only the m_c nonlinear rows get an elastic pair: on entries with
        a linear row the lifted problem has n_ext + 2 m_c coordinates, the
        elastics' columns are zero on the linear rows, and each elastic is
        free above zero."""
        for name in ("circle-chord", "ball-proj", "product-cap"):
            sf = build_slack_form(catalog_get(name).problem)
            lin = linearize_constraints(sf, sf.embed(sf.nlp.x_tilde))
            sub = assemble_elastic(lin, np.zeros(sf.m), 1.0, 1.0)
            m_c, n_ext = sf.m_c, sf.n_ext
            assert sf.m_A == 1 and sub.m_c == m_c
            assert sub.lo.size == sub.hi.size == sub.rows.shape[1] == n_ext + 2 * m_c
            np.testing.assert_array_equal(sub.rows[m_c:, n_ext:], 0.0)
            np.testing.assert_array_equal(sub.lo[n_ext:], 0.0)
            np.testing.assert_array_equal(sub.hi[n_ext:], INF)
            x_ext, v, w = sub.split(np.arange(n_ext + 2.0 * m_c))
            assert x_ext.size == n_ext and v.size == w.size == m_c

    def test_negative_prices_rejected(self):
        sf = _ring_form()
        lin = linearize_constraints(sf, np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            assemble_elastic(lin, np.zeros(1), 1.0, -0.5)
        with pytest.raises(ValueError):
            assemble_elastic(lin, np.zeros(1), -1.0, 0.5)


class TestOptimalElastics:
    def test_signed_decomposition(self):
        v, w = optimal_elastics(np.array([1.5, -0.25, 0.0]))
        np.testing.assert_allclose(v, [0.0, 0.25, 0.0])
        np.testing.assert_allclose(w, [1.5, 0.0, 0.0])
        assert (v + w).sum() == 1.75

    def test_zero_case(self):
        v, w = optimal_elastics(np.zeros(3))
        np.testing.assert_allclose(v, 0.0)
        np.testing.assert_allclose(w, 0.0)

    def test_single_negative_row(self):
        v, w = optimal_elastics(np.array([-3.0]))
        np.testing.assert_allclose(v, [3.0])
        np.testing.assert_allclose(w, [0.0])

    def test_feasibility_and_complementarity(self):
        rng = np.random.default_rng(41)
        cbar = rng.standard_normal(6)
        v, w = optimal_elastics(cbar)
        assert np.all(v >= 0.0) and np.all(w >= 0.0)
        np.testing.assert_allclose(cbar + v - w, 0.0, atol=1e-15)
        np.testing.assert_allclose(np.minimum(v, w), 0.0)

    def test_minimality_against_parametrized_family(self):
        """Feasible pairs are (v* + t, w* + t), t >= 0; the sum grows with t."""
        rng = np.random.default_rng(53)
        for _ in range(10):
            cbar = rng.standard_normal(4)
            v0, w0 = optimal_elastics(cbar)
            best = (v0 + w0).sum()
            for t in np.arange(0.0, 2.0, 1e-2):
                cand = (v0 + t).sum() + (w0 + t).sum()
                np.testing.assert_allclose(cbar + (v0 + t) - (w0 + t), 0.0,
                                           atol=1e-15)
                assert cand >= best - 1e-12

