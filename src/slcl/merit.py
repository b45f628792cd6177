"""Augmented Lagrangian merit values and KKT residuals.

All routines act on the slack form, where the constraint residual is the
vector ctil(x_ext) = (c(x) - s_c; A x - s_A) and the only inequalities are
the box bounds on the extended variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SlackForm, Vector, bound_violation


@dataclass
class KktResidual:
    """Componentwise first-order optimality measures, all in the infinity norm."""

    primal_inf: float
    dual_inf: float
    comp: float

    @property
    def f_norm(self) -> float:
        return max(self.primal_inf, self.dual_inf, self.comp)


def aug_lagrangian(sf: SlackForm, x_ext: Vector, y: Vector, rho: float,
                   r: Vector | None = None) -> float:
    """f(x) - y . ctil + (rho/2) ||ctil||_2^2 at an in-bounds extended point.

    r is ctil(x_ext) when the caller already holds it.
    """
    if r is None:
        r = sf.residual(x_ext)
    return sf.objective(x_ext) - float(y @ r) + 0.5 * rho * float(r @ r)


def aug_lagrangian_grad(sf: SlackForm, x_ext: Vector, y: Vector, rho: float,
                        r: Vector | None = None) -> Vector:
    """Gradient g - J^T (y - rho * ctil), the plain Lagrangian gradient at the
    shifted multiplier estimate; r is ctil(x_ext) when the caller holds it."""
    if r is None:
        r = sf.residual(x_ext)
    return sf.objective_grad(x_ext) - sf.jacobian_t(x_ext, y - rho * r)


def comp_measure(x: Vector, z: Vector, lo: Vector, hi: Vector) -> Vector:
    """Two-sided complementarity measure for a box.

    Componentwise max of min(x - lo, max(z, 0)) and min(hi - x, max(-z, 0)),
    with infinite bounds dropping their distance term; a variable free on both
    sides contributes |z|, and a variable fixed by equal bounds contributes 0.
    """
    lower = np.minimum(x - lo, np.maximum(z, 0.0))
    upper = np.minimum(hi - x, np.maximum(-z, 0.0))
    return np.maximum(lower, upper)


def kkt_residual(sf: SlackForm, x_ext: Vector, y: Vector, z: Vector,
                 r: Vector | None = None) -> KktResidual:
    """Primal, dual, and complementarity residuals at (x_ext, y, z).

    primal_inf covers the equality residual and any bound violation; dual_inf
    is ||g - J^T y - z||_inf with no penalty term; comp applies the two-sided
    measure against the extended box.  r is ctil(x_ext) when the caller
    already holds it.
    """
    if r is None:
        r = sf.residual(x_ext)
    primal = max(float(np.abs(r).max(initial=0.0)), bound_violation(x_ext, sf.lo, sf.hi))
    dual_vec = sf.objective_grad(x_ext) - sf.jacobian_t(x_ext, y) - z
    dual = float(np.abs(dual_vec).max(initial=0.0))
    comp = float(np.abs(comp_measure(x_ext, z, sf.lo, sf.hi)).max(initial=0.0))
    return KktResidual(primal_inf=primal, dual_inf=dual, comp=comp)


def is_optimal(res: KktResidual, omega_star: float, eta_star: float) -> bool:
    """Feasible to eta_star, dual-feasible and complementary to omega_star."""
    return (res.primal_inf <= eta_star and res.dual_inf <= omega_star
            and res.comp <= omega_star)


def min_norm_stationarity(sf: SlackForm, x_ext: Vector) -> float:
    """First-order stationarity of min (1/2)||ctil||^2 over the box.

    Used to certify the point returned for a problem declared infeasible: the
    gradient of the squared residual is J^T ctil and the measure is its
    two-sided complementarity against the bounds.
    """
    grad = sf.jacobian_t(x_ext, sf.residual(x_ext))
    comp = comp_measure(x_ext, grad, sf.lo, sf.hi)
    return float(np.abs(comp).max(initial=0.0))
