"""Point records, constraint linearization and the elastic lifted subproblem.

Each outer iteration linearizes the slack-form equality rows at the current
point and relaxes the m_c nonlinear ones with a pair of nonnegative elastic
variables per row, priced at sigma in the objective:

    minimize  L(x) + sigma * sum(v + w)
    subject to  Jk x + offset + E (v - w) = 0,   x in box,  v, w >= 0,

where L is the augmented Lagrangian at the current multipliers and penalty
and E is the first m_c columns of the identity.  Linear rows are exactly
their own linearization and have no elastics, so they stay hard; the
proximal start has already met them, so the subproblem stays feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .merit import aug_lagrangian, aug_lagrangian_grad
from .model import Matrix, SlackForm, Vector


class _once:
    """An attribute computed by its method on first read and kept in the
    instance's __dict__, which later reads find before this descriptor;
    functools.cached_property does the same, but through 3.11 takes a lock
    on every first read."""

    def __init__(self, method) -> None:
        self.method, self.name = method, method.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class Linearization:
    """The record of a visited point x_k of the slack form sf: its residual
    c_k, objective f, gradient g (g(x) and the slacks' zeros) and Jacobian
    J_x = J(x), each evaluated on first read, scaled by sf's factors and
    kept, and the first-order model J_k x + offset of the rows about x_k."""

    def __init__(self, sf: SlackForm, x_k: Vector) -> None:
        self.sf, self.x_k = sf, x_k

    @_once
    def c_k(self) -> Vector:
        return self.sf.residual(self.x_k)

    @_once
    def f(self) -> float:
        return self.sf.f_scale * self.sf.nlp.f(self.x_k[:self.sf.n])

    @_once
    def g(self) -> Vector:
        sf = self.sf
        out = np.zeros(sf.n_ext)
        np.multiply(sf.f_scale, sf.nlp.g(self.x_k[:sf.n]), out=out[:sf.n])
        return out

    @_once
    def J_x(self) -> Matrix:
        return self.sf.row_scale[:, None] * self.sf.nlp.J(self.x_k[:self.sf.n])

    @_once
    def J_k(self) -> Matrix:
        return self.sf.jacobian(self.J_x)

    @_once
    def offset(self) -> Vector:
        return self.c_k - self.J_k @ self.x_k

    def cbar(self, x_ext: Vector) -> Vector:
        """Linearized residual J_k x + offset; equals c_k at x_k."""
        return self.J_k @ x_ext + self.offset

    def jacobian_t(self, y: Vector) -> Vector:
        """J_k^T y by blocks: J_k is [J(x), -I, 0; A, 0, -I], so the product
        is (J(x)^T y_c + A^T y_A; -y) without forming the slack blocks."""
        sf = self.sf
        out = np.empty(sf.n_ext)
        np.negative(y, out=out[sf.n:])
        # without linear rows +0.0 stands in for the empty A^T y_A: added all
        # the same, it turns a -0.0 of J(x)^T y_c to +0.0, as the general sum does
        np.add(self.J_x.T @ y[:sf.m_c], sf.nlp.A.T @ y[sf.m_c:] if sf.m_A else 0.0,
               out=out[:sf.n])
        return out


def linearize_constraints(sf: SlackForm, x_ext: Vector) -> Linearization:
    """The record of x_ext."""
    return Linearization(sf, np.array(x_ext, dtype=float))


@dataclass
class ElasticSubproblem:
    """Lifted elastic subproblem over u = (x_ext, v, w), v and w of size m_c.

    Its rows are R u + offset with R = [J_k, E, -E], held densely in rows
    for the kernel (the form's blocks with J(x) written in); row_residual
    applies R by blocks.  price is the gradient's elastic block, sigma_k.
    start is the kernel's start record, lin until the caller sets another.
    """

    lin: Linearization
    y_k: Vector
    rho_k: float
    sigma_k: float
    m_c: int = field(init=False)
    n_ext: int = field(init=False)
    lo: Vector = field(init=False)
    hi: Vector = field(init=False)
    rows: Matrix = field(init=False)
    price: Vector = field(init=False, repr=False)
    start: Linearization = field(init=False)

    def __post_init__(self) -> None:
        sf = self.lin.sf
        m_c = self.m_c = sf.m_c
        self.n_ext = sf.n_ext
        self.y_k = np.asarray(self.y_k, dtype=float).reshape(sf.m)
        if self.sigma_k < 0 or self.rho_k < 0:
            raise ValueError("sigma and rho must be nonnegative")
        self.lo, self.hi = sf.lifted_lo, sf.lifted_hi
        # a copy keeps the blocks' column-major order, which sets how the
        # kernel's products sum, and with it the iterates in their last bits
        self.rows = sf.elastic_blocks.copy(order="F")
        self.rows[:m_c, :sf.n] = self.lin.J_x
        self.price = np.full(2 * m_c, self.sigma_k)
        self.start = self.lin

    def split(self, u: Vector) -> tuple[Vector, Vector, Vector]:
        n_ext, m_c = self.n_ext, self.m_c
        return u[:n_ext], u[n_ext:n_ext + m_c], u[n_ext + m_c:]

    def evaluate(self, u: Vector) -> tuple[float, Linearization]:
        """Objective at u, with the record of its x_ext that it read c and f
        from: lin or start at their points, bit for bit, else a new one.
        gradient at u reads g and J from the same record, and the kernel's
        last one is the candidate's record."""
        x_ext, v, w = self.split(u)
        key = x_ext.tobytes()
        point = (self.lin if key == self.lin.x_k.tobytes()
                 else self.start if key == self.start.x_k.tobytes()
                 else Linearization(self.lin.sf, x_ext))
        val = aug_lagrangian(point, self.y_k, self.rho_k)
        return val + self.sigma_k * float(v.sum() + w.sum()), point

    def gradient(self, u: Vector, point: Linearization) -> Vector:
        """Objective gradient at u; point is the record evaluate(u) returned."""
        gl = aug_lagrangian_grad(point, self.y_k, self.rho_k)
        return np.concatenate([gl, self.price])

    def row_residual(self, u: Vector) -> Vector:
        x_ext, v, w = self.split(u)
        return self.lin.cbar(x_ext) + np.concatenate([v - w, np.zeros(self.lin.sf.m_A)])


def assemble_elastic(lin: Linearization, y_k: Vector, rho_k: float,
                     sigma_k: float) -> ElasticSubproblem:
    return ElasticSubproblem(lin=lin, y_k=y_k, rho_k=rho_k, sigma_k=sigma_k)


def optimal_elastics(cbar_val: Vector) -> tuple[Vector, Vector]:
    """Cheapest elastic pair for given linearized residuals.

    Minimizing v + w subject to cbar + v - w = 0 and v, w >= 0 gives
    v = max(-cbar, 0), w = max(cbar, 0); one of each pair is always zero.
    """
    cbar_val = np.asarray(cbar_val, dtype=float)
    return np.maximum(-cbar_val, 0.0), np.maximum(cbar_val, 0.0)

