"""Problem statement, slack-variable standard form, and derivative checking.

A problem is stated as

    minimize f(x)  subject to  lx <= x <= ux,  lc <= c(x) <= uc,  lA <= A x <= uA,

with smooth f and c supplied as callbacks.  Internally the solver works on an
equivalent slack form in which every row becomes an equality against a bounded
slack variable, so the only inequalities left are simple bounds:

    minimize f(x)  subject to  (c(x); A x) - s = 0,  (x; s) in box.

The slack form also scales the problem, once per solve, at its start (see
build_slack_form): f by a power of two and each nonlinear row, with its
slack, by another, so that the solver's fixed constants meet gradients of
about unit size whatever the units f and c are given in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Callable

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray

INF = np.inf

# central-difference step and relative error bound of the derivative check
_DERIV_STEP = 1e-5
_DERIV_TOL = 1e-5
# the smallest scale factor, for gradient norms of this size or more
_MAX_SCALED_NORM = 2.0 ** 10


def scale_factors(norms):
    """2^floor(log2(1 / clip(norm, 1, 2^10))) for each norm: the power of
    two that brings a norm above 1 down to (1/2, 1], and 1 for a norm of at
    most 1 or a NaN, so scaling only ever divides."""
    clipped = np.fmin(np.fmax(norms, 1.0), _MAX_SCALED_NORM)
    return 2.0 ** np.floor(np.log2(1.0 / clipped))


def bound_violation(x: Vector, lo: Vector, hi: Vector) -> float:
    """Infinity-norm distance of x from the box [lo, hi]; 0 for empty x."""
    return float(np.maximum(np.maximum(lo - x, x - hi), 0.0).max(initial=0.0))


def _shaped(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.shape == shape:
        return out
    try:
        return out.reshape(shape)
    except ValueError:
        raise ValueError(f"{what} has shape {out.shape}, not {shape}") from None


def _in_box(lo: np.ndarray, hi: np.ndarray) -> bool:
    """lo <= hi, no lower bound of +inf and no upper of -inf; NaN fails."""
    return bool(((lo <= hi) & (lo < INF) & (hi > -INF)).all())


def _callback_value(value, shape: tuple[int, ...], message: str) -> np.ndarray:
    """A callback's value as a float array, which must have the given shape."""
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        raise ValueError(message)
    return out


def _remembered(method):
    """A counted wrapper that keeps the bytes of x and the value of its last
    call, and at the same x, bit for bit, returns that value uncalled; a
    call that raises leaves x unremembered."""
    kind = method.__name__

    @wraps(method)
    def recall(self, x):
        key = np.asarray(x, dtype=float).tobytes()
        last = self._last.get(kind)
        if last is None or last[0] != key:
            last = self._last[kind] = key, method(self, x)
        return last[1]

    return recall


def finite_array(value, size: int, what: str) -> np.ndarray:
    """value as a float vector of the given size, which must be finite."""
    out = _shaped(value, (size,), what)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    return out


@dataclass
class NlpProblem:
    """A smooth nonlinear program with nonlinear rows, linear rows, and bounds.

    Callbacks must be pure functions of x: the calls of each callback are
    counted on the instance so reports can state exact evaluation counts,
    and a call at the x of the last counted call of its kind, bit for bit,
    returns that call's value without calling or counting again.  The
    values are shared, so callers must not modify them.
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
    # kind -> (bytes of x, value) of the last counted call; see _remembered
    _last: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m_c < 0 or self.m_A < 0:
            raise ValueError("dimensions must satisfy n > 0, m_c >= 0, m_A >= 0")
        if self.m_c > 0 and (self.eval_c is None or self.eval_J is None):
            raise ValueError("m_c > 0 requires eval_c and eval_J")
        self.check_inputs()

    def check_inputs(self) -> None:
        """Check A, the bounds and x_tilde, which may be reassigned, as arrays,
        in one pass: A and x_tilde join the bounds' box as pairs [a, a], and
        the input that failed is looked up only then, to name it."""
        n, m_A = self.n, self.m_A
        A = _shaped(self.A, (m_A, n), "A")
        box = {"A": (A.ravel(),) * 2}
        for what, size in (("bounds_x", n), ("bounds_c", self.m_c), ("bounds_A", m_A)):
            pair = getattr(self, what)
            box[what] = _shaped(pair[0], (size,), what), _shaped(pair[1], (size,), what)
        x = _shaped(self.x_tilde, (n,), "x_tilde")
        box["x_tilde"] = x, x
        los, his = zip(*box.values())
        if not _in_box(np.concatenate(los), np.concatenate(his)):
            what = next(what for what, pair in box.items() if not _in_box(*pair))
            raise ValueError(f"{what} must be finite" if what in ("A", "x_tilde") else
                             f"{what}: need lower <= upper, no NaN, no lower bound "
                             "of +inf and no upper bound of -inf")
        self.A, self.x_tilde = A, x
        self.bounds_x, self.bounds_c, self.bounds_A = (
            box["bounds_x"], box["bounds_c"], box["bounds_A"])

    # Counted evaluation wrappers.  All solver code goes through these.  They
    # remember their last call (_remembered), check the shape of what each
    # callback returns, and pass non-finite values through: the inner
    # kernel checks each evaluated point once, rejecting a trial point and
    # raising at an accepted one.

    @_remembered
    def f(self, x: Vector) -> float:
        self.n_feval += 1
        return float(self.eval_f(x))

    @_remembered
    def g(self, x: Vector) -> Vector:
        self.n_geval += 1
        return _callback_value(self.eval_g(x), (self.n,),
                               "eval_g shape does not match n")

    @_remembered
    def c(self, x: Vector) -> Vector:
        if self.m_c == 0:
            return np.zeros(0)
        self.n_ceval += 1
        return _callback_value(self.eval_c(x), (self.m_c,),
                               "eval_c shape does not match m_c")

    @_remembered
    def J(self, x: Vector) -> Matrix:
        if self.m_c == 0:
            return np.zeros((0, self.n))
        self.n_jeval += 1
        return _callback_value(self.eval_J(x), (self.m_c, self.n),
                               "eval_J shape does not match (m_c, n)")


@dataclass
class SlackForm:
    """Slack-variable view of an NlpProblem, in scaled units.

    Extended variables are ordered (x, s_c, s_A) with n_ext = n + m_c + m_A.
    The form's objective is f_scale f(x), and its equality residual is
    (row_scale c(x) - s_c; A x - s_A), so s_c is row_scale times the
    problem's slack and its bounds are scaled with it.  An extended point
    with zero residual corresponds exactly to a feasible point of the
    original problem, and vice versa.  The factors are powers of two, so
    moving between units is exact: a point of the form is col_scale times
    the problem's point, and its multipliers y and z are those of the
    problem times f_scale / col_scale.  The factors are set at construction
    (see build_slack_form) with the arrays that follow from them, none
    written after: the box lifted by elastic pairs in [0, inf), to_user =
    col_scale / f_scale, the box in the problem's units, and the elastic
    rows [J_k, E, -E] with J(x)'s block zero, whose leading n_ext columns
    are the Jacobian's constant blocks.
    """

    nlp: NlpProblem
    n_ext: int
    m: int
    lo: Vector
    hi: Vector
    f_scale: float
    row_scale: Vector  # one factor per nonlinear row
    col_scale: Vector  # (1 for x, row_scale, 1 for s_A)
    n: int = field(init=False)
    m_c: int = field(init=False)
    m_A: int = field(init=False)
    lifted_lo: Vector = field(init=False, repr=False)
    lifted_hi: Vector = field(init=False, repr=False)
    to_user: Vector = field(init=False, repr=False)
    user_lo: Vector = field(init=False, repr=False)
    user_hi: Vector = field(init=False, repr=False)
    elastic_blocks: Matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.n, self.m_c, self.m_A = self.nlp.n, self.nlp.m_c, self.nlp.m_A
        n, m_c, m, n_ext = self.n, self.m_c, self.m, self.n_ext
        self.lifted_lo = np.concatenate([self.lo, np.zeros(2 * m_c)])
        self.lifted_hi = np.concatenate([self.hi, np.full(2 * m_c, INF)])
        self.to_user = self.col_scale / self.f_scale
        self.user_lo, self.user_hi = self.lo / self.col_scale, self.hi / self.col_scale
        i, j = np.arange(m), np.arange(m_c)
        # column-major, as linearize.ElasticSubproblem holds its rows
        R = self.elastic_blocks = np.zeros((m, n_ext + 2 * m_c), order="F")
        R[m_c:, :n], R[i, n + i], R[j, n_ext + j], R[j, n_ext + m_c + j] = (
            self.nlp.A, -1.0, 1.0, -1.0)

    def split(self, x_ext: Vector) -> tuple[Vector, Vector, Vector]:
        n, m_c = self.n, self.m_c
        return x_ext[:n], x_ext[n:n + m_c], x_ext[n + m_c:]

    def residual(self, x_ext: Vector) -> Vector:
        x, s_c, s_A = self.split(x_ext)
        r_c = self.row_scale * self.nlp.c(x) - s_c
        return np.concatenate([r_c, self.nlp.A @ x - s_A]) if self.m_A else r_c

    def jacobian(self, J_x: Matrix) -> Matrix:
        """Dense Jacobian of the residual from J_x = J(x), built once per record."""
        Jt = self.elastic_blocks[:, :self.n_ext].copy()  # C-contiguous
        Jt[:self.m_c, :self.n] = J_x
        return Jt

    def embed(self, x: Vector) -> Vector:
        """x extended by slacks clipped into their bounds.

        The residual there is zero exactly when x satisfies the row
        constraints, so this is the canonical feasible embedding.
        """
        x, n = np.asarray(x, dtype=float), self.n
        rows = np.concatenate([self.row_scale * self.nlp.c(x), self.nlp.A @ x])
        return np.concatenate([x, np.minimum(np.maximum(rows, self.lo[n:]), self.hi[n:])])

    def nonlinear_bound_violation(self, x_ext: Vector, r: Vector) -> float:
        """Infinity-norm violation of the nonlinear row bounds at x_ext, in
        the problem's units."""
        c = r[:self.m_c] + self.split(x_ext)[1]  # r is row_scale c(x) - s_c there
        return bound_violation(c / self.row_scale, *self.nlp.bounds_c)

    def unscaled(self, x_ext: Vector, y: Vector,
                 z: Vector) -> tuple[Vector, Vector, Vector]:
        """A point of the form with its multipliers, in the problem's units."""
        return x_ext / self.col_scale, y * self.to_user[self.n:], z * self.to_user


def build_slack_form(problem: NlpProblem, x: Vector | None = None) -> SlackForm:
    """The slack form scaled at x, a point of the problem: f_scale from
    ||g(x)||_inf and each row's factor from its row of J(x) (see
    scale_factors), or 1 without x.  The inputs are taken as checked (solve
    checks them) and the problem's last calls are kept."""
    n, m_c, m_A = problem.n, problem.m_c, problem.m_A
    f_scale, row_scale = 1.0, np.ones(m_c)
    if x is not None:
        # one call on the stacked norms [||g||_inf, the row norms of J]
        factors = scale_factors(np.abs(np.concatenate([problem.g(x)[None], problem.J(x)]))
                                .max(axis=1, initial=0.0))
        f_scale, row_scale = float(factors[0]), factors[1:]
    col_scale = np.concatenate([np.ones(n), row_scale, np.ones(m_A)])
    lo, hi = (np.concatenate(b) * col_scale
              for b in zip(problem.bounds_x, problem.bounds_c, problem.bounds_A))
    return SlackForm(nlp=problem, n_ext=n + m_c + m_A, m=m_c + m_A, lo=lo, hi=hi,
                     f_scale=f_scale, row_scale=row_scale, col_scale=col_scale)


@dataclass
class DerivReport:
    """Result of comparing analytic derivatives against central differences."""

    max_rel_err_g: float
    max_rel_err_J: float
    worst_index: str
    passed: bool


@lru_cache(maxsize=64)
def _direction(n: int) -> Vector:
    """check_derivatives' signs times its weights, read-only: from the
    fractional parts of j times two irrationals, so no two weights are equal
    and a swapped pair of entries cannot cancel."""
    k = np.arange(n)
    out = (np.where(k * 1.4142135623730951 % 1.0 < 0.5, 1.0, -1.0)
           * (0.5 + 0.5 * (k * 0.6180339887498949 % 1.0)))
    out.flags.writeable = False
    return out


def check_derivatives(problem: NlpProblem, x: Vector) -> DerivReport:
    """Compare eval_g and eval_J against central differences of f and c at x.

    First along one fixed direction d, each free coordinate's step times a
    sign and a weight in [0.5, 1), as SNOPT's cheap test does (the signs and
    weights depend on n alone and are built once per n): the errors of
    (f(x + d) - f(x - d)) / 2 against g.d, and of each row of c against
    J_i.d, scaled by min(step) and by 1 + ||g||_inf, or 1 + ||J_i||_inf.
    The smallest step keeps an error in a coordinate with a small step
    from being diluted by the others; where that lets rounding fail the
    test, the entrywise test below decides.
    That costs two calls of f and two of c, and when both errors pass up to
    _DERIV_TOL the report holds them, its worst_index naming "g.d" or the
    row "J[i].d".  Otherwise every free coordinate is differenced alone, its
    relative errors scaled by 1 + |analytic value|, and the report names the
    worst entry g[j] or J[i,j] and passes up to _DERIV_TOL.

    Steps are relative, so rounding does not swallow them at large |x|:
    h_j = _DERIV_STEP max(1, |x_j|), x_j first clipped into its box.  The
    check places its own probe: x clipped 2 h_j inside its finite bounds,
    or to the middle of a box narrower than 4 h_j, so no point it
    evaluates leaves the box.  A coordinate is stepped by h_j, or by a
    fifth of its width when its box is narrower than 5 h_j; fixed
    coordinates (lo == hi) are not perturbed and go unchecked.
    """
    lx, ux = problem.bounds_x
    x = np.minimum(np.maximum(np.asarray(x, dtype=float).reshape(problem.n), lx), ux)
    h, width = _DERIV_STEP * np.maximum(1.0, np.abs(x)), ux - lx
    margin = np.minimum(2 * h, 0.5 * width)  # 0 where fixed
    x = np.minimum(np.maximum(x, lx + margin), ux - margin)
    free = (lx < ux).nonzero()[0]
    step = np.minimum(h, 0.2 * width)

    g = problem.g(x)
    Jmat = problem.J(x)
    if not free.size:
        return DerivReport(0.0, 0.0, "g.d", passed=True)
    d = np.zeros(problem.n)
    d[free] = (step * _direction(problem.n))[free]
    scale = float(step[free].min())
    # without nonlinear rows problem.c and problem.J return empty arrays uncounted
    x_plus, x_minus = x + d, x - d
    slope_f = 0.5 * (problem.f(x_plus) - problem.f(x_minus))
    slope_c = 0.5 * (problem.c(x_plus) - problem.c(x_minus))
    dir_g = abs(slope_f - g @ d) / scale / (1.0 + np.abs(g).max())
    dir_J = np.abs(slope_c - Jmat @ d) / scale / (1.0 + np.abs(Jmat).max(axis=1))
    max_g, max_J = float(dir_g), float(dir_J.max(initial=0.0))
    if max_g <= _DERIV_TOL and max_J <= _DERIV_TOL:
        worst = "g.d" if max_g >= max_J else f"J[{int(dir_J.argmax())}].d"
        return DerivReport(max_g, max_J, worst, passed=True)

    # the directional test failed: locate the worst entry
    err_g = np.zeros(problem.n)
    err_J = np.zeros((problem.m_c, problem.n))
    for j in free:
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
    passed = bool(max_g <= _DERIV_TOL and max_J <= _DERIV_TOL)
    return DerivReport(max_rel_err_g=max_g, max_rel_err_J=max_J,
                       worst_index=worst, passed=passed)
