"""Tests for problem definition, the slack form, and derivative checking."""

import math

import numpy as np
import pytest

from slcl.catalog import catalog_get, catalog_names
from slcl.driver import solve
from slcl.linearize import linearize_constraints
from slcl.model import (_DERIV_STEP, _DERIV_TOL, INF, DerivReport, NlpProblem,
                        _direction, build_slack_form, check_derivatives,
                        scale_factors)


def _bilinear_problem(swap_gradient=False):
    """f(x) = x1 * x2, no rows, unbounded box."""
    if swap_gradient:
        g = lambda x: np.array([x[0], x[1]])
    else:
        g = lambda x: np.array([x[1], x[0]])
    return NlpProblem(
        n=2, m_c=0, m_A=0,
        eval_f=lambda x: x[0] * x[1], eval_g=g,
        eval_c=None, eval_J=None, A=np.zeros((0, 2)),
        bounds_x=(np.full(2, -INF), np.full(2, INF)),
        bounds_c=(np.zeros(0), np.zeros(0)),
        bounds_A=(np.zeros(0), np.zeros(0)),
        x_tilde=np.array([2.0, 3.0]))


def _circle_problem():
    """f = x1^2 + x2^2 with one ring row x1^2 + x2^2 - 1 in [0, inf)."""
    return NlpProblem(
        n=2, m_c=1, m_A=0,
        eval_f=lambda x: x[0] ** 2 + x[1] ** 2,
        eval_g=lambda x: 2.0 * x,
        eval_c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
        eval_J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        A=np.zeros((0, 2)),
        bounds_x=(np.full(2, -INF), np.full(2, INF)),
        bounds_c=(np.array([0.0]), np.array([INF])),
        bounds_A=(np.zeros(0), np.zeros(0)),
        x_tilde=np.array([1.0, 1.0]))


def _square_problem(**changes):
    """f = x^2 with g = 2x on one free variable, with some fields replaced."""
    fields = dict(
        n=1, m_c=0, m_A=0, eval_f=lambda x: x[0] ** 2, eval_g=lambda x: 2.0 * x,
        eval_c=None, eval_J=None, A=np.zeros((0, 1)),
        bounds_x=([-INF], [INF]), bounds_c=((), ()), bounds_A=((), ()),
        x_tilde=[1.0])
    fields.update(changes)
    return NlpProblem(**fields)


def _circles_problem(k=100, bad_g=None, bad_J=None):
    """k unit-circle projections in 2k variables, like the benchmark's
    circles instances, with g[bad_g] or J[bad_J] off by a relative 1e-3."""
    rng = np.random.default_rng(16)
    a = 0.5 + 2.5 * rng.uniform(size=2 * k)
    n, rows = 2 * k, np.arange(k)

    def g(x):
        out = 2.0 * (x - a)
        if bad_g is not None:
            out[bad_g] *= 1.0 + 1e-3
        return out

    def J(x):
        out = np.zeros((k, n))
        out[rows, 2 * rows] = 2.0 * x[0::2]
        out[rows, 2 * rows + 1] = 2.0 * x[1::2]
        if bad_J is not None:
            out[bad_J] *= 1.0 + 1e-3
        return out

    return NlpProblem(
        n=n, m_c=k, m_A=1, eval_f=lambda x: float((x - a) @ (x - a)),
        eval_g=g, eval_c=lambda x: x[0::2] ** 2 + x[1::2] ** 2, eval_J=J,
        A=np.ones((1, n)), bounds_x=(np.zeros(n), np.full(n, INF)),
        bounds_c=(np.ones(k), np.ones(k)),
        bounds_A=(np.array([-INF]), np.array([10.0 * n])),
        x_tilde=np.full(n, 0.5))


def _old_check_derivatives(problem, x):
    """check_derivatives as it was written before its direction was cached
    and its probe points were formed once: the reference its reports and
    calls must match."""
    lx, ux = problem.bounds_x
    x = np.minimum(np.maximum(np.asarray(x, dtype=float).reshape(problem.n), lx), ux)
    h = _DERIV_STEP * np.maximum(1.0, np.abs(x))
    margin = np.minimum(2 * h, 0.5 * (ux - lx))
    x = np.minimum(np.maximum(x, lx + margin), ux - margin)
    free = lx < ux
    step = np.minimum(h, 0.2 * (ux - lx))
    g = problem.g(x)
    Jmat = problem.J(x)
    if not free.any():
        return DerivReport(0.0, 0.0, "g.d", passed=True)
    k = np.arange(problem.n)
    sign = np.where(k * 1.4142135623730951 % 1.0 < 0.5, 1.0, -1.0)
    weight = 0.5 + 0.5 * (k * 0.6180339887498949 % 1.0)
    d = np.where(free, step * sign * weight, 0.0)
    scale = float(step[free].min())
    slope_f = 0.5 * (problem.f(x + d) - problem.f(x - d))
    slope_c = 0.5 * (problem.c(x + d) - problem.c(x - d))
    dir_g = abs(slope_f - g @ d) / scale / (1.0 + np.abs(g).max())
    dir_J = np.abs(slope_c - Jmat @ d) / scale / (1.0 + np.abs(Jmat).max(axis=1))
    max_g, max_J = float(dir_g), float(dir_J.max(initial=0.0))
    if max_g <= _DERIV_TOL and max_J <= _DERIV_TOL:
        worst = "g.d" if max_g >= max_J else f"J[{int(np.argmax(dir_J))}].d"
        return DerivReport(max_g, max_J, worst, passed=True)
    err_g = np.zeros(problem.n)
    err_J = np.zeros((problem.m_c, problem.n))
    for j in free.nonzero()[0]:
        e = np.zeros(problem.n)
        e[j] = step[j]
        fp, fm = problem.f(x + e), problem.f(x - e)
        err_g[j] = abs((fp - fm) / (2 * step[j]) - g[j]) / (1.0 + abs(g[j]))
        cp, cm = problem.c(x + e), problem.c(x - e)
        col = (cp - cm) / (2 * step[j])
        err_J[:, j] = np.abs(col - Jmat[:, j]) / (1.0 + np.abs(Jmat[:, j]))
    max_g = float(err_g.max(initial=0.0))
    max_J = float(err_J.max(initial=0.0))
    if max_g >= max_J:
        worst = f"g[{int(np.argmax(err_g))}]"
    else:
        i, j = np.unravel_index(int(np.argmax(err_J)), err_J.shape)
        worst = f"J[{i},{j}]"
    return DerivReport(max_g, max_J, worst, max_g <= _DERIV_TOL and max_J <= _DERIV_TOL)


class TestSlackForm:
    def test_nonlinear_row_layout(self):
        """One nonlinear row in [0, inf) adds one slack with those bounds."""
        sf = build_slack_form(_circle_problem())
        assert sf.n_ext == 3
        assert sf.m == 1
        assert sf.lo[2] == 0.0 and sf.hi[2] == INF
        # residual is c(x) - s
        x_ext = np.array([1.0, 1.0, 0.5])
        np.testing.assert_allclose(sf.residual(x_ext), [0.5])

    def test_linear_row_layout(self):
        """x1 + x2 <= 4 becomes the equality A x - s = 0 with s in (-inf, 4]."""
        p = NlpProblem(
            n=2, m_c=0, m_A=1,
            eval_f=lambda x: float(x[0]), eval_g=lambda x: np.array([1.0, 0.0]),
            eval_c=None, eval_J=None, A=np.array([[1.0, 1.0]]),
            bounds_x=(np.zeros(2), np.full(2, INF)),
            bounds_c=(np.zeros(0), np.zeros(0)),
            bounds_A=(np.array([-INF]), np.array([4.0])),
            x_tilde=np.array([1.0, 1.0]))
        sf = build_slack_form(p)
        assert sf.n_ext == 3
        assert sf.lo[2] == -INF and sf.hi[2] == 4.0
        x_ext = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(sf.residual(x_ext), [0.0])
        np.testing.assert_allclose(sf.residual([1.0, 2.0, 2.5]), [0.5])

    def test_embed_zeroes_residual_at_feasible_point(self):
        entry = catalog_get("circle-proj")
        sf = build_slack_form(entry.problem)
        x_ext = sf.embed(entry.known_x)
        np.testing.assert_array_equal(x_ext[:sf.n], entry.known_x)
        np.testing.assert_allclose(sf.residual(x_ext), 0.0, atol=1e-12)

    def test_round_trip_feasibility(self):
        """Zero slack-form residual at in-bounds slacks == row feasibility."""
        entry = catalog_get("ball-proj")
        sf = build_slack_form(entry.problem)
        p = entry.problem
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, size=3)
            x_ext = sf.embed(x)
            cval = p.c(x)
            aval = p.A @ x
            in_rows = (np.all(cval >= p.bounds_c[0] - 1e-12)
                       and np.all(cval <= p.bounds_c[1] + 1e-12)
                       and np.all(aval >= p.bounds_A[0] - 1e-12)
                       and np.all(aval <= p.bounds_A[1] + 1e-12))
            zero_res = np.abs(sf.residual(x_ext)).max() <= 1e-12
            assert zero_res == in_rows

    def test_jacobian_matches_residual_differences(self):
        sf = build_slack_form(_circle_problem())
        rng = np.random.default_rng(7)
        x_ext = rng.standard_normal(3)
        J = sf.jacobian(sf.nlp.J(x_ext[:sf.n]))
        h = 1e-6
        for j in range(3):
            d = np.zeros(3)
            d[j] = h
            col = (sf.residual(x_ext + d) - sf.residual(x_ext - d)) / (2 * h)
            np.testing.assert_allclose(J[:, j], col, atol=1e-7)

    def test_blockwise_transpose_matches_dense_jacobian(self):
        """On every catalog entry (m_c or m_A zero, or both, or neither) the
        dense slack-form Jacobian is [J(x), -I, 0; A, 0, -I], and J^T y by
        blocks equals its transpose times y."""
        for name in catalog_names():
            sf = build_slack_form(catalog_get(name).problem)
            rng = np.random.default_rng(11)
            for _ in range(10):
                x_ext = rng.standard_normal(sf.n_ext)
                y = rng.standard_normal(sf.m)
                J_x = sf.nlp.J(x_ext[:sf.n])
                dense = np.hstack([np.vstack([J_x, sf.nlp.A]), -np.eye(sf.m)])
                np.testing.assert_array_equal(sf.jacobian(J_x), dense)
                np.testing.assert_allclose(linearize_constraints(sf, x_ext).jacobian_t(y),
                                           sf.jacobian(J_x).T @ y,
                                           rtol=1e-14, atol=1e-15)

    def test_jacobian_is_the_old_dense_build(self):
        """jacobian(J_x) copies the leading n_ext columns of the elastic
        rows: C-contiguous, with the bytes of the dense build it replaced,
        [J(x), -I, 0; A, 0, -I] written into zeros, on every catalog entry,
        with a column of J(x) zero and one -0.0."""
        rng = np.random.default_rng(5)
        for name in catalog_names():
            sf = build_slack_form(catalog_get(name).problem)
            n, m_c, m = sf.n, sf.m_c, sf.m
            J_x = rng.standard_normal((m_c, n))
            J_x[:, 0], J_x[:, -1] = 0.0, -0.0
            old = np.zeros((m, sf.n_ext))
            old[m_c:, :n], old[np.arange(m), n + np.arange(m)] = sf.nlp.A, -1.0
            dense = old.copy()
            dense[:m_c, :n] = J_x
            Jt = sf.jacobian(J_x)
            assert Jt.flags.c_contiguous, name
            assert Jt.tobytes() == dense.tobytes(), name

    def test_residual_is_the_general_block_expression(self):
        """On every catalog entry's scaled form the residual has the bytes of
        (row_scale c(x) - s_c; A x - s_A), signed zeros included; without
        linear rows it is the nonlinear block alone, with no empty block
        joined.  Every other sample sets s_c to row_scale c(x), where a row
        reads +0.0."""
        rng = np.random.default_rng(8)
        for name in catalog_names():
            problem = catalog_get(name).problem
            sf = build_slack_form(problem, problem.x_tilde)
            for k in range(10):
                x_ext = sf.embed(problem.x_tilde) + rng.standard_normal(sf.n_ext)
                x, s_c, s_A = sf.split(x_ext)
                if k % 2:
                    s_c[:] = sf.row_scale * problem.c(x)
                general = np.concatenate([sf.row_scale * problem.c(x) - s_c,
                                          problem.A @ x - s_A])
                assert sf.residual(x_ext).tobytes() == general.tobytes(), name

    def test_scale_factors_are_the_two_call_expressions(self):
        """One scale_factors call on the stacked norms [||g||_inf, the row
        norms of J] gives the factors of one call on each, on every catalog
        entry at its start and at seeded points with norms up to 1e4."""
        rng = np.random.default_rng(12)
        for name in catalog_names():
            problem = catalog_get(name).problem
            for k in range(6):
                x = problem.x_tilde * (1.0 + (k > 0) * 10.0 ** rng.uniform(-2, 4))
                sf = build_slack_form(problem, x)
                f_scale = float(scale_factors(np.abs(problem.g(x)).max(initial=0.0)))
                row_scale = scale_factors(np.abs(problem.J(x)).max(axis=1, initial=0.0))
                assert repr(sf.f_scale) == repr(f_scale), name
                assert sf.row_scale.tobytes() == row_scale.tobytes(), name

    def test_dimension_probe_rejects_bad_callbacks(self):
        """Building the slack form leaves a wrong-shaped callback alone; the
        derivative check's first counted calls reject it."""
        p = _circle_problem()
        p.eval_J = lambda x: np.zeros((2, 2))
        build_slack_form(p)
        with pytest.raises(ValueError, match=r"eval_J shape does not match \(m_c, n\)"):
            check_derivatives(p, p.x_tilde)
        p = _circle_problem()
        p.eval_c = lambda x: np.zeros(2)
        with pytest.raises(ValueError, match="eval_c shape does not match m_c"):
            check_derivatives(p, p.x_tilde)

    def test_bounds_pair_ordering_enforced(self):
        with pytest.raises(ValueError):
            NlpProblem(
                n=1, m_c=0, m_A=0,
                eval_f=lambda x: 0.0, eval_g=lambda x: np.zeros(1),
                eval_c=None, eval_J=None, A=np.zeros((0, 1)),
                bounds_x=(np.array([1.0]), np.array([0.0])),
                bounds_c=(np.zeros(0), np.zeros(0)),
                bounds_A=(np.zeros(0), np.zeros(0)),
                x_tilde=np.zeros(1))

    @pytest.mark.parametrize("sizes", [{"n": 0}, {"m_c": -1}])
    def test_bad_dimensions_rejected(self, sizes):
        with pytest.raises(ValueError, match="dimensions must satisfy"):
            _square_problem(**sizes)

    @pytest.mark.parametrize("missing", ["eval_c", "eval_J"])
    def test_nonlinear_rows_need_both_callbacks(self, missing):
        rows = {"m_c": 1, "bounds_c": ([0.0], [0.0]),
                "eval_c": lambda x: x, "eval_J": lambda x: np.ones((1, 1))}
        with pytest.raises(ValueError, match="m_c > 0 requires eval_c and eval_J"):
            _square_problem(**{**rows, missing: None})


class TestDerivativeCheck:
    def test_direction_is_the_formula_and_read_only(self):
        """The cached direction is the signs times the weights of the
        formula, bit for bit, for n = 1 to 64, one array per n, which no
        caller can write."""
        for n in range(1, 65):
            k = np.arange(n)
            sign = np.where(k * 1.4142135623730951 % 1.0 < 0.5, 1.0, -1.0)
            weight = 0.5 + 0.5 * (k * 0.6180339887498949 % 1.0)
            d = _direction(n)
            assert d.tobytes() == (sign * weight).tobytes(), n
            assert d is _direction(n) and not d.flags.writeable
            with pytest.raises(ValueError):
                d[0] = 1.0

    def test_reports_and_calls_are_the_old_expressions(self):
        """On every catalog entry, at its start and at shifted starts, and on
        problems whose check fails or skips fixed coordinates, the report
        and the points f and c are called at are those of the expressions
        the check was written with before its direction was cached."""
        def fixed(problem):
            problem.bounds_x = (np.array([-INF, 0.5]), np.array([INF, 0.5]))
            return problem

        rng = np.random.default_rng(27)
        cases = [(lambda: catalog_get(name).problem, shift)
                 for name in catalog_names() for shift in (0.0, 0.5, 3.0)]
        cases += [(_bilinear_problem, 0.0),
                  (lambda: _bilinear_problem(swap_gradient=True), 0.0),
                  (lambda: fixed(_circle_problem()), 0.0),
                  (lambda: _circles_problem(k=6, bad_g=5), 0.0),
                  (lambda: _circles_problem(k=6, bad_J=(2, 4)), 0.2)]
        for make, shift in cases:
            new, old = make(), make()
            x = new.x_tilde + shift * rng.standard_normal(new.n)
            calls = []
            for p in (new, old):
                f, c = p.eval_f, p.eval_c
                p.eval_f = lambda z, f=f, p=p: calls.append((id(p), "f", z.tobytes())) or f(z)
                if c is not None:
                    p.eval_c = lambda z, c=c, p=p: calls.append((id(p), "c", z.tobytes())) or c(z)
            got, want = check_derivatives(new, x), _old_check_derivatives(old, x)
            assert repr(got) == repr(want), new.name
            assert ([call[1:] for call in calls if call[0] == id(new)]
                    == [call[1:] for call in calls if call[0] == id(old)]), new.name

    def test_bilinear_gradient_passes(self):
        """Central differences are exact for f = x1 x2 up to roundoff."""
        rep = check_derivatives(_bilinear_problem(), np.array([2.0, 3.0]))
        assert rep.passed
        assert rep.max_rel_err_g <= 1e-8

    def test_quadratic_jacobian_passes(self):
        rep = check_derivatives(_circle_problem(), np.array([1.0, 1.0]))
        assert rep.passed
        assert rep.max_rel_err_J <= 1e-8

    def test_swapped_gradient_fails_and_is_located(self):
        """g reporting (x1, x2) instead of (x2, x1) at (2, 3) trips g[0]."""
        rep = check_derivatives(_bilinear_problem(swap_gradient=True),
                                np.array([2.0, 3.0]))
        assert not rep.passed
        assert rep.worst_index == "g[0]"

    def test_point_on_a_bound_is_probed_two_steps_inside(self, spy_calls):
        """x1 = 0 on its lower bound checks clean: the directional test's
        two calls of f are centred two steps inside, at (2 step, 1)."""
        p = _circle_problem()
        p.bounds_x = (np.zeros(2), np.full(2, INF))
        calls = spy_calls(p)
        rep = check_derivatives(p, np.array([0.0, 1.0]))
        assert rep.passed and rep.worst_index in ("g.d", "J[0].d")
        at = [np.frombuffer(x) for kind, x in calls if kind == "f"]
        assert len(at) == 2 and min(at[0][0], at[1][0]) > 0.0
        np.testing.assert_allclose(0.5 * (at[0] + at[1]), [2 * _DERIV_STEP, 1.0],
                                   rtol=1e-12)

    def test_fixed_coordinates_are_skipped(self):
        """A fixed x2 sits on its bounds; only x1 is differenced."""
        p = _circle_problem()
        p.bounds_x = (np.array([-INF, 0.5]), np.array([INF, 0.5]))
        rep = check_derivatives(p, np.array([1.0, 0.5]))
        assert rep.passed
        assert p.n_feval == 2 and p.n_ceval == 2

    def test_thin_coordinate_is_stepped_inside_its_box(self):
        """x1 in [1, 1 + 1e-5] is differenced at a fifth of its width."""
        p = _circle_problem()
        p.bounds_x = (np.array([1.0, -INF]), np.array([1.0 + 1e-5, INF]))
        rep = check_derivatives(p, np.array([1.0 + 5e-6, 1.0]))
        assert rep.passed
        assert rep.max_rel_err_J <= 1e-8
        assert p.n_feval == 2 and p.n_ceval == 2

    def test_all_fixed_coordinates_call_neither_f_nor_c(self):
        p = _circle_problem()
        p.bounds_x = (np.array([1.0, 0.5]), np.array([1.0, 0.5]))
        rep = check_derivatives(p, np.array([1.0, 0.5]))
        assert rep.passed
        assert p.n_feval == 0 and p.n_ceval == 0

    def test_passing_check_costs_two_f_and_two_c_calls(self):
        """One central difference along one direction, whatever n is."""
        p = _circles_problem()
        rep = check_derivatives(p, p.x_tilde)
        assert rep.passed
        assert rep.max_rel_err_g <= 1e-8 and rep.max_rel_err_J <= 1e-8
        assert (p.n_feval, p.n_geval, p.n_ceval, p.n_jeval) == (2, 1, 2, 1)

    @pytest.mark.parametrize("planted, worst", [
        ({"bad_g": 37}, "g[37]"), ({"bad_J": (5, 11)}, "J[5,11]")])
    def test_planted_error_fails_and_is_located(self, planted, worst):
        """A relative error of 1e-3 in one of 200 gradient entries, or in
        one Jacobian entry, fails the directional test; the per-coordinate
        differences that follow name it, at 2 + 2n calls of f and of c."""
        p = _circles_problem(**planted)
        rep = check_derivatives(p, p.x_tilde)
        assert not rep.passed
        assert rep.worst_index == worst
        assert p.n_feval == p.n_ceval == 2 + 2 * p.n

    @pytest.mark.parametrize("rows", [0, 1])
    def test_nan_gradient_error_is_located(self, rows):
        """f = sqrt(x1 - 1) + x2^2, NaN where x1 <= 1, from (0.5, 0.5) on
        x >= 0: g's NaN error is the worst, so the report names g[0], with
        no nonlinear row and with a row x1^2 whose J checks clean."""
        def f(x):
            return math.sqrt(x[0] - 1.0) + x[1] ** 2 if x[0] > 1.0 else math.nan

        def g(x):
            return np.array([0.5 / math.sqrt(x[0] - 1.0) if x[0] > 1.0 else math.nan,
                             2.0 * x[1]])

        p = _square_problem(
            n=2, m_c=rows, eval_f=f, eval_g=g, eval_c=lambda x: x[:rows] ** 2,
            eval_J=lambda x: np.diag(2.0 * x)[:rows], A=np.zeros((0, 2)),
            bounds_x=(np.zeros(2), np.full(2, INF)),
            bounds_c=(np.zeros(rows), np.full(rows, INF)), x_tilde=[0.5, 0.5])
        rep = check_derivatives(p, p.x_tilde)
        assert not rep.passed and rep.worst_index == "g[0]"
        assert math.isnan(rep.max_rel_err_g)
        with pytest.raises(ValueError, match=r"worst g\[0\]"):
            solve(p)

    def test_nan_jacobian_error_is_located(self):
        """c = sqrt(x2 - 1), NaN where x2 <= 1, from (0.5, 0.5): J's NaN
        errors are the worst, so the report names the first, J[0,0], though
        g's error is smaller."""
        p = _square_problem(
            n=2, m_c=1, eval_g=lambda x: np.array([2.0 * x[0], 0.0]),
            eval_c=lambda x: np.array([math.sqrt(x[1] - 1.0) if x[1] > 1.0 else math.nan]),
            eval_J=lambda x: np.array([[0.0, 1.0]]),
            A=np.zeros((0, 2)), bounds_x=(np.zeros(2), np.full(2, INF)),
            bounds_c=([0.0], [INF]), x_tilde=[0.5, 0.5])
        rep = check_derivatives(p, p.x_tilde)
        assert not rep.passed and rep.worst_index == "J[0,0]"
        assert rep.max_rel_err_g <= 1e-8 and math.isnan(rep.max_rel_err_J)

    def test_step_is_relative_at_large_x(self):
        """At x = 1e8 a step of 1e-5 would be lost in rounding; a step of
        1e-5 |x| passes the directional test at its two calls of f."""
        p = _square_problem()
        rep = check_derivatives(p, np.array([1e8]))
        assert rep.passed and rep.worst_index == "g.d"
        assert p.n_feval == 2

    def test_small_step_error_is_not_diluted(self):
        """f = x0 + x1^2 at (1e6, 0.5) with g[1] wrong by 0.5: x0's large
        step must not hide the error along x1's small one."""
        p = _square_problem(
            n=2, eval_f=lambda x: x[0] + x[1] ** 2,
            eval_g=lambda x: np.array([1.0, 2.0 * x[1] + 0.5]),
            A=np.zeros((0, 2)), bounds_x=([-INF, -INF], [INF, INF]),
            x_tilde=[1e6, 0.5])
        rep = check_derivatives(p, np.array([1e6, 0.5]))
        assert not rep.passed and rep.worst_index == "g[1]"

    def test_catalog_entries_pass_everywhere(self):
        """Every entry checks clean at its start point and 5 interior samples."""
        rng = np.random.default_rng(314)
        for name in catalog_names():
            p = catalog_get(name).problem
            lx, ux = p.bounds_x
            probe = np.clip(p.x_tilde, lx, ux)
            assert check_derivatives(p, probe).passed, name
            for _ in range(5):
                x = np.clip(probe + rng.uniform(-0.5, 0.5, size=p.n), lx, ux)
                assert check_derivatives(p, x).passed, name


class TestCatalog:
    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            catalog_get("no-such-problem")

    def test_problem_is_named_after_its_entry(self):
        for name in catalog_names():
            assert catalog_get(name).problem.name == name

    def test_required_entries_present(self):
        names = catalog_names()
        for required in ("circle-proj", "linear-as-nl", "infeas-affine",
                         "unbounded-ray"):
            assert required in names
        solvable = [n for n in names
                    if catalog_get(n).classification == "solvable"]
        assert len(solvable) >= 14

    def test_circle_proj_against_arc_grid(self):
        """Brute force over the feasible arc theta in [0, pi/2], 1e-4 grid."""
        entry = catalog_get("circle-proj")
        theta = np.arange(0.0, np.pi / 2 + 1e-4, 1e-4)
        fx = (np.cos(theta) - 2.0) ** 2 + (np.sin(theta) - 1.0) ** 2
        i = int(np.argmin(fx))
        assert abs(fx[i] - entry.known_objective) <= 1e-8
        grid_x = np.array([np.cos(theta[i]), np.sin(theta[i])])
        np.testing.assert_allclose(grid_x, entry.known_x, atol=1e-4)
        np.testing.assert_allclose(entry.known_objective,
                                   (np.sqrt(5.0) - 1.0) ** 2, rtol=1e-14)

    def test_linear_as_nl_kkt_solution(self):
        """min x1^2 + x2^2 on x1 + x2 = 2: x = (1, 1), f = 2, y = 2."""
        entry = catalog_get("linear-as-nl")
        np.testing.assert_allclose(entry.known_x, [1.0, 1.0])
        assert entry.known_objective == 2.0
        # stationarity: g = y * (1, 1) at the solution
        g = entry.problem.g(entry.known_x)
        np.testing.assert_allclose(g, entry.known_y[0] * np.ones(2))

    def test_infeas_affine_min_norm_point(self):
        """x1 + x2 + 1 = 0 has no solution in x >= 0; nearest residual is 1."""
        entry = catalog_get("infeas-affine")
        assert entry.classification == "infeasible"
        g = np.arange(0.0, 0.5001, 1e-3)
        X, Y = np.meshgrid(g, g)
        R = 0.5 * (X + Y + 1.0) ** 2
        j = np.unravel_index(int(np.argmin(R)), R.shape)
        assert X[j] == 0.0 and Y[j] == 0.0
        assert abs(X[j] + Y[j] + 1.0 - 1.0) == 0.0

    def test_solvable_solutions_are_feasible(self):
        for name in catalog_names():
            entry = catalog_get(name)
            if entry.classification != "solvable" or entry.known_x is None:
                continue
            p = entry.problem
            x = entry.known_x
            lx, ux = p.bounds_x
            assert np.all(x >= lx - 1e-8) and np.all(x <= ux + 1e-8), name
            if p.m_c:
                cval = p.c(x)
                assert np.all(cval >= p.bounds_c[0] - 1e-8), name
                assert np.all(cval <= p.bounds_c[1] + 1e-8), name
            if p.m_A:
                aval = p.A @ x
                assert np.all(aval >= p.bounds_A[0] - 1e-8), name
                assert np.all(aval <= p.bounds_A[1] + 1e-8), name

    def test_declared_objective_matches_point(self):
        for name in catalog_names():
            entry = catalog_get(name)
            if entry.known_x is None or entry.known_objective is None:
                continue
            f = entry.problem.f(entry.known_x)
            assert abs(f - entry.known_objective) <= 1e-10 * (1 + abs(f)), name

    def test_evaluation_counters(self):
        """Each kind counts its calls; a call at the x of the last call of
        its kind returns that value and is not counted; any other x, an
        earlier one included, is."""
        entry = catalog_get("circle-proj")
        p = entry.problem
        counters = ("n_feval", "n_geval", "n_ceval", "n_jeval")
        assert [getattr(p, a) for a in counters] == [0, 0, 0, 0]
        x, other = p.x_tilde, p.x_tilde + 1.0
        p.f(x)
        first = p.c(x)
        assert p.c(x.copy()) is first
        p.J(x)
        assert [getattr(p, a) for a in counters] == [1, 0, 1, 1]
        p.c(other)
        np.testing.assert_array_equal(p.c(x), first)
        assert [getattr(p, a) for a in counters] == [1, 0, 3, 1]

    def test_a_call_repeats_only_at_the_same_bits(self):
        """The memory compares the bytes of x: 0.0 and -0.0 are two points,
        and each kind remembers its own last call."""
        p = _bilinear_problem()
        calls = []
        p.eval_f = lambda x: calls.append(x.tobytes()) or x[0] * x[1]
        zero, negative_zero = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
        p.f(zero)
        p.g(negative_zero)
        p.f(zero)
        p.f(negative_zero)
        p.f(negative_zero)
        assert calls == [zero.tobytes(), negative_zero.tobytes()]
        assert (p.n_feval, p.n_geval) == (2, 1)

    def test_a_call_that_raises_leaves_its_point_unremembered(self):
        """A retry at the point where a callback raised calls it again, and
        the point remembered before still returns its value uncalled."""
        p = _bilinear_problem()
        raised = []

        def eval_f(x):
            if x[0] < 0.0 and not raised:
                raised.append(x.tobytes())
                raise ArithmeticError("outside the domain")
            return x[0] * x[1]

        p.eval_f = eval_f
        inside, outside = np.array([1.0, 2.0]), np.array([-1.0, 2.0])
        assert p.f(inside) == 2.0
        with pytest.raises(ArithmeticError):
            p.f(outside)
        assert p.f(outside) == -2.0
        assert p.n_feval == 3
        p.eval_g = lambda x: np.zeros(3)
        with pytest.raises(ValueError, match="eval_g shape"):
            p.g(inside)
        with pytest.raises(ValueError, match="eval_g shape"):
            p.g(inside)
        assert p.n_geval == 2

    def test_a_solve_forgets_the_last_calls(self, spy_calls):
        """A solve starts afresh: calls made before it at its start point
        are made again inside it, where the derivative check probes the
        start (an unbounded box) and the embedding reads c there."""
        p = _circle_problem()
        x = p.x_tilde
        p.f(x), p.g(x), p.c(x), p.J(x)
        calls = spy_calls(p)
        rep = solve(p)
        assert {("g", x.tobytes()), ("c", x.tobytes()), ("J", x.tobytes())} <= set(calls)
        assert (p.n_feval, p.n_geval, p.n_ceval, p.n_jeval) == (
            1 + rep.f_evals, 1 + rep.g_evals, 1 + rep.c_evals, 1 + rep.J_evals)

    def test_fresh_entries_per_lookup(self):
        a = catalog_get("circle-proj").problem
        a.f(a.x_tilde)
        b = catalog_get("circle-proj").problem
        assert b.n_feval == b.n_geval == b.n_ceval == b.n_jeval == 0
