"""Problem statement, slack-variable standard form, and derivative checking.

A problem is stated as

    minimize f(x)  subject to  lx <= x <= ux,  lc <= c(x) <= uc,  lA <= A x <= uA,

with smooth f and c supplied as callbacks.  Internally the solver works on an
equivalent slack form in which every row becomes an equality against a bounded
slack variable, so the only inequalities left are simple bounds:

    minimize f(x)  subject to  (c(x); A x) - s = 0,  (x; s) in box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray

INF = np.inf

# central-difference step and relative error bound of the derivative check
_DERIV_STEP = 1e-5
_DERIV_TOL = 1e-5


def _bounds_pair(pair, size: int, what: str) -> tuple[Vector, Vector]:
    lo = np.asarray(pair[0], dtype=float).reshape(size)
    hi = np.asarray(pair[1], dtype=float).reshape(size)
    if np.any(lo > hi):
        raise ValueError(f"{what}: lower bound exceeds upper bound")
    return lo, hi


@dataclass
class NlpProblem:
    """A smooth nonlinear program with nonlinear rows, linear rows, and bounds.

    Callbacks must be pure functions of x.  Objective and constraint calls are
    counted on the instance so reports can state exact evaluation totals.
    """

    n: int
    m_c: int
    m_A: int
    eval_f: Callable[[Vector], float]
    eval_g: Callable[[Vector], Vector]
    eval_c: Callable[[Vector], Vector] | None
    eval_J: Callable[[Vector], Matrix] | None
    A: Matrix
    bounds_x: tuple[Vector, Vector]
    bounds_c: tuple[Vector, Vector]
    bounds_A: tuple[Vector, Vector]
    x_tilde: Vector
    name: str = ""
    n_feval: int = field(default=0, init=False)
    n_geval: int = field(default=0, init=False)
    n_ceval: int = field(default=0, init=False)
    n_jeval: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m_c < 0 or self.m_A < 0:
            raise ValueError("dimensions must satisfy n > 0, m_c >= 0, m_A >= 0")
        self.A = np.asarray(self.A, dtype=float).reshape(self.m_A, self.n)
        self.bounds_x = _bounds_pair(self.bounds_x, self.n, "bounds_x")
        self.bounds_c = _bounds_pair(self.bounds_c, self.m_c, "bounds_c")
        self.bounds_A = _bounds_pair(self.bounds_A, self.m_A, "bounds_A")
        self.x_tilde = np.asarray(self.x_tilde, dtype=float).reshape(self.n)
        if self.m_c > 0 and (self.eval_c is None or self.eval_J is None):
            raise ValueError("m_c > 0 requires eval_c and eval_J")

    # Counted evaluation wrappers.  All solver code goes through these.  They
    # pass non-finite values through: the inner kernel checks each evaluated
    # point once, rejecting a trial point and raising at an accepted one.

    def f(self, x: Vector) -> float:
        self.n_feval += 1
        return float(self.eval_f(x))

    def g(self, x: Vector) -> Vector:
        self.n_geval += 1
        return np.asarray(self.eval_g(x), dtype=float).reshape(self.n)

    def c(self, x: Vector) -> Vector:
        if self.m_c == 0:
            return np.zeros(0)
        self.n_ceval += 1
        return np.asarray(self.eval_c(x), dtype=float).reshape(self.m_c)

    def J(self, x: Vector) -> Matrix:
        if self.m_c == 0:
            return np.zeros((0, self.n))
        self.n_jeval += 1
        return np.asarray(self.eval_J(x), dtype=float).reshape(self.m_c, self.n)

    def eval_total(self) -> int:
        """Total objective plus constraint callback invocations so far."""
        return self.n_feval + self.n_ceval


@dataclass
class SlackForm:
    """Slack-variable view of an NlpProblem.

    Extended variables are ordered (x, s_c, s_A) with n_ext = n + m_c + m_A.
    The equality residual is (c(x) - s_c; A x - s_A) and an extended point with
    zero residual corresponds exactly to a feasible point of the original
    problem, and vice versa.
    """

    nlp: NlpProblem
    n_ext: int
    m: int
    lo: Vector
    hi: Vector

    @property
    def n(self) -> int:
        return self.nlp.n

    @property
    def m_c(self) -> int:
        return self.nlp.m_c

    @property
    def m_A(self) -> int:
        return self.nlp.m_A

    def split(self, x_ext: Vector) -> tuple[Vector, Vector, Vector]:
        n, m_c = self.n, self.m_c
        return x_ext[:n], x_ext[n:n + m_c], x_ext[n + m_c:]

    def residual(self, x_ext: Vector) -> Vector:
        x, s_c, s_A = self.split(x_ext)
        return np.concatenate([self.nlp.c(x) - s_c, self.nlp.A @ x - s_A])

    def jacobian(self, x_ext: Vector) -> Matrix:
        """Dense Jacobian of the residual, built once per linearization."""
        x, _, _ = self.split(x_ext)
        m_c, m_A, n = self.m_c, self.m_A, self.n
        Jt = np.zeros((m_c + m_A, self.n_ext))
        Jt[:m_c, :n] = self.nlp.J(x)
        Jt[m_c:, :n] = self.nlp.A
        Jt[:m_c, n:n + m_c] = -np.eye(m_c)
        Jt[m_c:, n + m_c:] = -np.eye(m_A)
        return Jt

    def jacobian_t(self, x_ext: Vector, y: Vector) -> Vector:
        """J^T y for the residual Jacobian, applied by blocks.

        The Jacobian is [J(x), -I, 0; A, 0, -I], so the product is
        (J(x)^T y_c + A^T y_A; -y_c; -y_A) without forming the slack blocks.
        """
        y_c, y_A = y[:self.m_c], y[self.m_c:]
        jty = self.nlp.J(x_ext[:self.n]).T @ y_c + self.nlp.A.T @ y_A
        return np.concatenate([jty, -y_c, -y_A])

    def objective(self, x_ext: Vector) -> float:
        return self.nlp.f(x_ext[:self.n])

    def objective_grad(self, x_ext: Vector) -> Vector:
        out = np.zeros(self.n_ext)
        out[:self.n] = self.nlp.g(x_ext[:self.n])
        return out

    def embed(self, x: Vector) -> Vector:
        """Extend x with slacks clipped into their bounds.

        The residual of the result is zero exactly when x satisfies the row
        constraints, so this is the canonical feasible embedding.
        """
        x = np.asarray(x, dtype=float)
        lc, uc = self.nlp.bounds_c
        lA, uA = self.nlp.bounds_A
        s_c = np.clip(self.nlp.c(x), lc, uc)
        s_A = np.clip(self.nlp.A @ x, lA, uA)
        return np.concatenate([x, s_c, s_A])

    def nonlinear_bound_violation(self, x_ext: Vector) -> float:
        """Infinity-norm violation of the nonlinear row bounds at x."""
        if self.m_c == 0:
            return 0.0
        cval = self.nlp.c(x_ext[:self.n])
        lc, uc = self.nlp.bounds_c
        low = np.maximum(lc - cval, 0.0)
        high = np.maximum(cval - uc, 0.0)
        return float(max(low.max(initial=0.0), high.max(initial=0.0)))


def build_slack_form(problem: NlpProblem) -> SlackForm:
    """Construct the slack form, probing callback dimensions at x_tilde."""
    x = problem.x_tilde
    g = problem.eval_g(x)
    if np.shape(np.asarray(g)) != (problem.n,):
        raise ValueError("eval_g shape does not match n")
    if problem.m_c > 0:
        cval = np.asarray(problem.eval_c(x))
        if cval.shape != (problem.m_c,):
            raise ValueError("eval_c shape does not match m_c")
        Jval = np.asarray(problem.eval_J(x))
        if Jval.shape != (problem.m_c, problem.n):
            raise ValueError("eval_J shape does not match (m_c, n)")
    lo = np.concatenate([problem.bounds_x[0], problem.bounds_c[0], problem.bounds_A[0]])
    hi = np.concatenate([problem.bounds_x[1], problem.bounds_c[1], problem.bounds_A[1]])
    n_ext = problem.n + problem.m_c + problem.m_A
    return SlackForm(nlp=problem, n_ext=n_ext, m=problem.m_c + problem.m_A, lo=lo, hi=hi)


@dataclass
class DerivReport:
    """Result of comparing analytic derivatives against central differences."""

    max_rel_err_g: float
    max_rel_err_J: float
    worst_index: str
    passed: bool


def push_interior(x: Vector, lo: Vector, hi: Vector,
                  margin: float | Vector) -> Vector:
    """Move x at least `margin` inside every finite bound (where possible).

    margin is a scalar or one value per coordinate.  Fixed coordinates
    (lo == hi) have no interior and are set to their value.
    """
    fixed = lo == hi
    lo_f = np.where(np.isfinite(lo) & ~fixed, lo + margin, lo)
    hi_f = np.where(np.isfinite(hi) & ~fixed, hi - margin, hi)
    if np.any(lo_f > hi_f):
        raise ValueError("box too thin to hold an interior point at this margin")
    return np.clip(np.array(x, dtype=float), lo_f, hi_f)


def check_derivatives(problem: NlpProblem, x: Vector) -> DerivReport:
    """Compare eval_g and eval_J against central differences of f and c at x.

    Relative errors are scaled by 1 + |analytic value| and pass up to
    _DERIV_TOL.  A coordinate is stepped by _DERIV_STEP, or by a fifth of
    its width when its box is narrower than five steps, and x must sit that
    step inside its finite bounds so both probe points are valid; fixed
    coordinates (lo == hi) are not perturbed and go unchecked.
    """
    x = np.asarray(x, dtype=float).reshape(problem.n)
    lx, ux = problem.bounds_x
    free = lx < ux
    step = np.minimum(_DERIV_STEP, 0.2 * (ux - lx))
    if np.any(free & ((x - lx < step) | (ux - x < step))):
        raise ValueError("derivative check point must be a step inside the bounds")

    g = problem.g(x)
    Jmat = problem.J(x)
    err_g = np.zeros(problem.n)
    err_J = np.zeros((problem.m_c, problem.n))
    for j in np.flatnonzero(free):
        e = np.zeros(problem.n)
        e[j] = step[j]
        fp, fm = problem.f(x + e), problem.f(x - e)
        err_g[j] = abs((fp - fm) / (2 * step[j]) - g[j]) / (1.0 + abs(g[j]))
        if problem.m_c > 0:
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
    passed = bool(max_g <= _DERIV_TOL and max_J <= _DERIV_TOL)
    return DerivReport(max_rel_err_g=max_g, max_rel_err_J=max_J,
                       worst_index=worst, passed=passed)
