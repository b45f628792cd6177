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
    """First-order model of the equality rows about a base point."""

    sf: SlackForm
    x_k: Vector
    c_k: Vector
    J_k: Matrix
    offset: Vector

    def cbar(self, x_ext: Vector) -> Vector:
        """Linearized residual J_k x + offset; equals c_k at the base point."""
        return self.J_k @ x_ext + self.offset


def linearize_constraints(sf: SlackForm, x_ext: Vector) -> Linearization:
    x_ext = np.array(x_ext, dtype=float)
    c_k = sf.residual(x_ext)
    J_k = sf.jacobian(x_ext)
    return Linearization(sf=sf, x_k=x_ext, c_k=c_k, J_k=J_k,
                         offset=c_k - J_k @ x_ext)


@dataclass
class ElasticSubproblem:
    """Lifted elastic subproblem over u = (x_ext, v, w).

    Its rows are R u + offset with R = [J_k, I, -I].  row_residual and
    rows_t apply R by blocks; solve_lc forms it densely for the kernel.
    """

    lin: Linearization
    y_k: Vector
    rho_k: float
    sigma_k: float
    lo: Vector = field(init=False)
    hi: Vector = field(init=False)

    def __post_init__(self) -> None:
        sf, m = self.lin.sf, self.m
        self.y_k = np.asarray(self.y_k, dtype=float).reshape(m)
        if self.sigma_k < 0 or self.rho_k < 0:
            raise ValueError("sigma and rho must be nonnegative")
        elastic_hi = np.where(np.arange(m) < sf.m_c, np.inf, 0.0)
        self.lo = np.concatenate([sf.lo, np.zeros(2 * m)])
        self.hi = np.concatenate([sf.hi, elastic_hi, elastic_hi])

    @property
    def m(self) -> int:
        return self.lin.sf.m

    @property
    def n_ext(self) -> int:
        return self.lin.sf.n_ext

    @property
    def n_lifted(self) -> int:
        return self.n_ext + 2 * self.m

    def split(self, u: Vector) -> tuple[Vector, Vector, Vector]:
        n_ext, m = self.n_ext, self.m
        return u[:n_ext], u[n_ext:n_ext + m], u[n_ext + m:]

    def evaluate(self, u: Vector) -> tuple[float, Vector]:
        """Objective at u, with the slack-form residual it was computed from.

        Passing that residual to gradient at the same point saves a second
        call to c.
        """
        x_ext, v, w = self.split(u)
        r = self.lin.sf.residual(x_ext)
        val = aug_lagrangian(self.lin.sf, x_ext, self.y_k, self.rho_k, r)
        return val + self.sigma_k * float(np.sum(v) + np.sum(w)), r

    def objective(self, u: Vector) -> float:
        return self.evaluate(u)[0]

    def gradient(self, u: Vector, r: Vector | None = None) -> Vector:
        """Objective gradient at u; r is the residual evaluate(u) returned."""
        gl = aug_lagrangian_grad(self.lin.sf, u[:self.n_ext], self.y_k,
                                 self.rho_k, r)
        return np.concatenate([gl, np.full(2 * self.m, self.sigma_k)])

    def row_residual(self, u: Vector) -> Vector:
        x_ext, v, w = self.split(u)
        return self.lin.J_k @ x_ext + v - w + self.lin.offset

    def rows_t(self, q: Vector) -> Vector:
        """R^T q = (J_k^T q; q; -q)."""
        return np.concatenate([self.lin.J_k.T @ q, q, -q])


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

