"""Constraint linearization and the elastic lifted subproblem.

Each outer iteration linearizes the slack-form equality rows at the current
point and relaxes them with a pair of nonnegative elastic variables per row,
priced at sigma in the objective:

    minimize  L(x) + sigma * sum(v + w)
    subject to  Jk x + offset + v - w = 0,   x in box,  v, w >= 0,

where L is the augmented Lagrangian at the current multipliers and penalty.
The lifted rows are always consistent, so the subproblem is always feasible.
Linear rows are exactly their own linearization and get no slack from the
relaxation: their elastic pair is pinned to zero by its bounds, which keeps
them hard even when sigma is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .merit import aug_lagrangian, aug_lagrangian_grad
from .model import Matrix, SlackForm, Vector


@dataclass
class Linearization:
    """A point's record, its residual c_k, objective f (None unless the
    kernel evaluated it there), objective gradient g and Jacobian J_k
    evaluated once, and the first-order model of the rows about x_k."""

    sf: SlackForm
    x_k: Vector
    c_k: Vector
    f: float | None
    g: Vector
    J_k: Matrix
    offset: Vector

    def cbar(self, x_ext: Vector) -> Vector:
        """Linearized residual J_k x + offset; equals c_k at x_k."""
        return self.J_k @ x_ext + self.offset

    def jacobian_t(self, y: Vector) -> Vector:
        """J_k^T y by blocks from a contiguous copy of J(x_k): NumPy may sum
        a strided block's products in another order."""
        J_x = np.ascontiguousarray(self.J_k[:self.sf.m_c, :self.sf.n])
        return self.sf.jacobian_t(J_x, y)


def linearize_constraints(sf: SlackForm, x_ext: Vector,
                          values: list | None = None) -> Linearization:
    """The record of x_ext; values is the leading part of [ctil, f, g, J(x)]
    held, with f None where it was not evaluated: f is never called here."""
    x_ext = np.array(x_ext, dtype=float)
    values = values or [sf.residual(x_ext), None]
    if len(values) == 2:
        values += [sf.objective_grad(x_ext), sf.nlp.J(x_ext[:sf.n])]
    c_k, f, g, J_x = values
    J_k = sf.jacobian(J_x)
    return Linearization(sf, x_ext, c_k, f, g, J_k, offset=c_k - J_k @ x_ext)


@dataclass
class ElasticSubproblem:
    """Lifted elastic subproblem over u = (x_ext, v, w).

    Its rows are R u + offset with R = [J_k, I, -I], held densely in rows
    for the kernel; row_residual applies R by blocks.
    """

    lin: Linearization
    y_k: Vector
    rho_k: float
    sigma_k: float
    m: int = field(init=False)
    n_ext: int = field(init=False)
    lo: Vector = field(init=False)
    hi: Vector = field(init=False)
    rows: Matrix = field(init=False)

    def __post_init__(self) -> None:
        sf = self.lin.sf
        m = self.m = sf.m
        self.n_ext = sf.n_ext
        self.y_k = np.asarray(self.y_k, dtype=float).reshape(m)
        if self.sigma_k < 0 or self.rho_k < 0:
            raise ValueError("sigma and rho must be nonnegative")
        elastic_hi = np.where(np.arange(m) < sf.m_c, np.inf, 0.0)
        self.lo = np.concatenate([sf.lo, np.zeros(2 * m)])
        self.hi = np.concatenate([sf.hi, elastic_hi, elastic_hi])
        identity = np.identity(m)
        # column-major: R's memory order sets how the kernel's products sum,
        # and with it the iterates in their last bits
        self.rows = np.vstack([self.lin.J_k.T, identity, -identity]).T

    def split(self, u: Vector) -> tuple[Vector, Vector, Vector]:
        n_ext, m = self.n_ext, self.m
        return u[:n_ext], u[n_ext:n_ext + m], u[n_ext + m:]

    def evaluate(self, u: Vector) -> tuple[float, list]:
        """Objective at u, with [ctil, f], the residual and the value of f
        it was computed from.

        gradient at u fills that list in to [ctil, f, g, J(x)]; the kernel's
        last one becomes the candidate's record.
        """
        sf, (x_ext, v, w) = self.lin.sf, self.split(u)
        values = [sf.residual(x_ext), sf.objective(x_ext)]
        val = aug_lagrangian(sf, x_ext, self.y_k, self.rho_k, values)
        return val + self.sigma_k * float(np.sum(v) + np.sum(w)), values

    def gradient(self, u: Vector, values: list) -> Vector:
        """Objective gradient at u; values is the list evaluate(u) returned."""
        sf, x_ext = self.lin.sf, u[:self.n_ext]
        values[2:] = [sf.objective_grad(x_ext), sf.nlp.J(x_ext[:sf.n])]
        gl = aug_lagrangian_grad(sf, x_ext, self.y_k, self.rho_k, values)
        return np.concatenate([gl, np.full(2 * self.m, self.sigma_k)])

    def row_residual(self, u: Vector) -> Vector:
        x_ext, v, w = self.split(u)
        return self.lin.J_k @ x_ext + v - w + self.lin.offset


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

