"""Augmented Lagrangian merit values and KKT residuals.

All routines act on the slack form, where the constraint residual is the
vector ctil(x_ext) = (row_scale c(x) - s_c; A x - s_A) and the only
inequalities are the box bounds on the extended variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import Vector

if TYPE_CHECKING:
    from .linearize import Linearization


@dataclass
class KktResidual:
    """Componentwise first-order optimality measures, all in the infinity norm."""

    primal_inf: float
    dual_inf: float
    comp: float

    @property
    def f_norm(self) -> float:
        return max(self.primal_inf, self.dual_inf, self.comp)


def aug_lagrangian(lin: Linearization, y: Vector, rho: float) -> float:
    """f - y . ctil + (rho/2) ||ctil||_2^2 at the record's point, which must
    be in bounds."""
    r = lin.c_k
    return lin.f - float(y @ r) + 0.5 * rho * float(r @ r)


def aug_lagrangian_grad(lin: Linearization, y: Vector, rho: float) -> Vector:
    """Gradient g - J^T (y - rho * ctil) at the record's point, the plain
    Lagrangian gradient at the shifted multiplier estimate."""
    return lin.g - lin.jacobian_t(y - rho * lin.c_k)


def comp_measure(x: Vector, z: Vector, lo: Vector, hi: Vector) -> Vector:
    """Two-sided complementarity measure for a box.

    Componentwise max of min(x - lo, max(z, 0)) and min(hi - x, max(-z, 0)),
    with infinite bounds dropping their distance term; a variable free on both
    sides contributes |z|, and a variable fixed by equal bounds contributes 0.
    """
    return _comp(x - lo, hi - x, z)


def _comp(above_lo: Vector, below_hi: Vector, z: Vector) -> Vector:
    return np.maximum(np.minimum(above_lo, np.maximum(z, 0.0)),
                      np.minimum(below_hi, np.maximum(-z, 0.0)))


def _measures(x: Vector, r: Vector, z: Vector, dual_vec: Vector, lo: Vector,
              hi: Vector) -> KktResidual:
    """The three measures at x against [lo, hi].  x - lo and hi - x are
    formed once, for the complementarity and for the bound violation, which
    is max(0, -min) over both, read from their two minima."""
    above_lo, below_hi = x - lo, hi - x
    violation = max(0.0, -float(min(above_lo.min(initial=np.inf),
                                    below_hi.min(initial=np.inf))))
    primal = max(float(np.abs(r).max(initial=0.0)), violation)
    dual = float(np.abs(dual_vec).max(initial=0.0))
    comp = float(np.abs(_comp(above_lo, below_hi, z)).max(initial=0.0))
    return KktResidual(primal_inf=primal, dual_inf=dual, comp=comp)


def kkt_residual(lin: Linearization, y: Vector,
                 z: Vector) -> tuple[KktResidual, float]:
    """Primal, dual, and complementarity residuals at (lin.x_k, y, z) in the
    problem's units (see SlackForm), and the KKT measure F, the max of the
    same three in the form's scaled units, which the omega schedule follows.

    The point and its multipliers are in the form's units, and ctil, g and
    J come from the point's record lin; g - J^T y - z is formed once for
    both.  primal_inf covers the equality residual and any bound violation;
    dual_inf is ||g - J^T y - z||_inf with no penalty term; comp applies the
    two-sided measure against the box.
    """
    sf, x, r = lin.sf, lin.x_k, lin.c_k
    dual_vec = lin.g - lin.jacobian_t(y) - z
    f_norm = _measures(x, r, z, dual_vec, sf.lo, sf.hi).f_norm
    d, to_user = sf.col_scale, sf.to_user
    return _measures(x / d, r / d[sf.n:], z * to_user, dual_vec * to_user,
                     sf.user_lo, sf.user_hi), f_norm


def is_optimal(res: KktResidual, omega_star: float, eta_star: float) -> bool:
    """Feasible to eta_star, dual-feasible and complementary to omega_star."""
    return (res.primal_inf <= eta_star and res.dual_inf <= omega_star
            and res.comp <= omega_star)


def min_norm_stationarity(lin: Linearization) -> float:
    """First-order stationarity of min (1/2)||ctil||^2 over the box at the
    record's point.

    Measures the point returned for a problem declared infeasible: the
    gradient of the squared residual is J^T ctil and the measure is its
    two-sided complementarity against the bounds.
    """
    sf = lin.sf
    comp = comp_measure(lin.x_k, lin.jacobian_t(lin.c_k), sf.lo, sf.hi)
    return float(np.abs(comp).max(initial=0.0))
