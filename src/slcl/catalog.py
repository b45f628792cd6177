"""Built-in catalog of small smooth problems with known solutions.

Each entry is built fresh on every lookup so evaluation counters start at
zero.  Solvable entries carry the optimal objective value and, where the
minimizer is unique, the minimizer itself; entries are also tagged convex
when both the objective and the feasible region are convex, which defines
the subset used for cross-checking solver modes against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import INF, NlpProblem, Vector, bound_violation

SOLVABLE = "solvable"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class CatalogEntry:
    name: str
    problem: NlpProblem
    known_objective: float | None
    known_x: Vector | None
    classification: str
    known_y: Vector | None = None
    convex: bool = False


_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {}


def _register(builder: Callable[[], CatalogEntry]) -> Callable[[], CatalogEntry]:
    entry_name = builder.__name__.lstrip("_").replace("_", "-")
    _BUILDERS[entry_name] = builder
    return builder


def catalog_names() -> list[str]:
    """All catalog entry names, in registration order."""
    return list(_BUILDERS)


def catalog_get(name: str) -> CatalogEntry:
    """Build the named entry, validating any declared solution point."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog problem: {name!r}")
    entry = _BUILDERS[name]()
    entry.name = name
    if entry.classification == SOLVABLE and entry.known_x is not None:
        _check_feasible(entry.problem, np.asarray(entry.known_x, dtype=float))
    return entry


def _check_feasible(p: NlpProblem, x: Vector) -> None:
    # raw callbacks here: lookups must hand out zeroed evaluation counters
    viol = max(bound_violation(x, *p.bounds_x),
               bound_violation(p.A @ x, *p.bounds_A))
    if p.m_c > 0:
        viol = max(viol, bound_violation(np.asarray(p.eval_c(x), dtype=float),
                                         *p.bounds_c))
    if viol > 1e-8:
        raise ValueError(f"declared solution of {p.name!r} violates constraints by {viol:.2e}")


def _nl_problem(name, n, f, g, c=None, J=None, m_c=0, bc=None, A=None, bA=None,
                lx=None, ux=None, x_tilde=None) -> NlpProblem:
    m_A = 0 if A is None else np.atleast_2d(A).shape[0]
    A = np.zeros((0, n)) if A is None else np.atleast_2d(np.asarray(A, dtype=float))
    lx = np.full(n, -INF) if lx is None else np.asarray(lx, dtype=float)
    ux = np.full(n, INF) if ux is None else np.asarray(ux, dtype=float)
    bc = (np.zeros(0), np.zeros(0)) if bc is None else bc
    bA = (np.zeros(0), np.zeros(0)) if bA is None else bA
    return NlpProblem(
        n=n, m_c=m_c, m_A=m_A, eval_f=f, eval_g=g, eval_c=c, eval_J=J, A=A,
        bounds_x=(lx, ux), bounds_c=bc, bounds_A=bA,
        x_tilde=np.asarray(x_tilde, dtype=float), name=name)


# ---------------------------------------------------------------------------
# Required entries.

@_register
def _circle_proj() -> CatalogEntry:
    """Project the point (2, 1) onto the unit circle, first quadrant."""
    root5 = np.sqrt(5.0)
    p = _nl_problem(
        "circle-proj", n=2,
        f=lambda x: (x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] - 1.0)]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        m_c=1, bc=(np.array([1.0]), np.array([1.0])),
        lx=np.zeros(2), x_tilde=[0.5, 0.5])
    # distance from (2,1) to the circle is sqrt(5) - 1
    return CatalogEntry("circle-proj", p, known_objective=(root5 - 1.0) ** 2,
                        known_x=np.array([2.0, 1.0]) / root5,
                        classification=SOLVABLE,
                        known_y=np.array([1.0 - root5]))


@_register
def _linear_as_nl() -> CatalogEntry:
    """An affine equality posed as a nonlinear row: min ||x||^2 on x1+x2=2."""
    p = _nl_problem(
        "linear-as-nl", n=2,
        f=lambda x: x[0] ** 2 + x[1] ** 2,
        g=lambda x: 2.0 * x,
        c=lambda x: np.array([x[0] + x[1]]),
        J=lambda x: np.array([[1.0, 1.0]]),
        m_c=1, bc=(np.array([2.0]), np.array([2.0])),
        lx=np.zeros(2), x_tilde=[0.0, 0.0])
    return CatalogEntry("linear-as-nl", p, known_objective=2.0,
                        known_x=np.array([1.0, 1.0]), classification=SOLVABLE,
                        known_y=np.array([2.0]), convex=True)


@_register
def _infeas_affine() -> CatalogEntry:
    """Inconsistent row x1+x2+1=0 over x >= 0; nearest residual is 1 at the origin."""
    p = _nl_problem(
        "infeas-affine", n=2,
        f=lambda x: (x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 1.0), 2.0 * (x[1] - 1.0)]),
        c=lambda x: np.array([x[0] + x[1] + 1.0]),
        J=lambda x: np.array([[1.0, 1.0]]),
        m_c=1, bc=(np.array([0.0]), np.array([0.0])),
        lx=np.zeros(2), x_tilde=[1.0, 1.0])
    return CatalogEntry("infeas-affine", p, known_objective=None, known_x=None,
                        classification=INFEASIBLE)


@_register
def _unbounded_ray() -> CatalogEntry:
    """min -x1 with x2^2 = 0: objective runs off along the feasible ray e1."""
    p = _nl_problem(
        "unbounded-ray", n=2,
        f=lambda x: -x[0],
        g=lambda x: np.array([-1.0, 0.0]),
        c=lambda x: np.array([x[1] ** 2]),
        J=lambda x: np.array([[0.0, 2.0 * x[1]]]),
        m_c=1, bc=(np.array([0.0]), np.array([0.0])),
        lx=np.zeros(2), x_tilde=[1.0, 0.0])
    return CatalogEntry("unbounded-ray", p, known_objective=None, known_x=None,
                        classification=UNBOUNDED)


# ---------------------------------------------------------------------------
# Additional solvable entries.

@_register
def _ridge_eq() -> CatalogEntry:
    """Nonconvex equality x2 = x1^2 under the objective (1 - x1)^2."""
    p = _nl_problem(
        "ridge-eq", n=2,
        f=lambda x: (1.0 - x[0]) ** 2,
        g=lambda x: np.array([-2.0 * (1.0 - x[0]), 0.0]),
        c=lambda x: np.array([x[1] - x[0] ** 2]),
        J=lambda x: np.array([[-2.0 * x[0], 1.0]]),
        m_c=1, bc=(np.array([0.0]), np.array([0.0])),
        x_tilde=[-1.2, 1.0])
    return CatalogEntry("ridge-eq", p, known_objective=0.0,
                        known_x=np.array([1.0, 1.0]), classification=SOLVABLE,
                        known_y=np.array([0.0]))


@_register
def _dist_to_parabola() -> CatalogEntry:
    """Closest point to the origin in the region above x2 = x1^2 + 1."""
    p = _nl_problem(
        "dist-to-parabola", n=2,
        f=lambda x: x[0] ** 2 + x[1] ** 2,
        g=lambda x: 2.0 * x,
        c=lambda x: np.array([x[1] - x[0] ** 2 - 1.0]),
        J=lambda x: np.array([[-2.0 * x[0], 1.0]]),
        m_c=1, bc=(np.array([0.0]), np.array([INF])),
        x_tilde=[0.5, 2.0])
    return CatalogEntry("dist-to-parabola", p, known_objective=1.0,
                        known_x=np.array([0.0, 1.0]), classification=SOLVABLE,
                        known_y=np.array([2.0]), convex=True)


@_register
def _quarter_ellipse() -> CatalogEntry:
    """min x1 + x2 on the ellipse x1^2 + 4 x2^2 = 4 with x >= 0; a bound is active."""
    p = _nl_problem(
        "quarter-ellipse", n=2,
        f=lambda x: x[0] + x[1],
        g=lambda x: np.array([1.0, 1.0]),
        c=lambda x: np.array([x[0] ** 2 + 4.0 * x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 8.0 * x[1]]]),
        m_c=1, bc=(np.array([4.0]), np.array([4.0])),
        lx=np.zeros(2), x_tilde=[1.0, 1.0])
    return CatalogEntry("quarter-ellipse", p, known_objective=1.0,
                        known_x=np.array([0.0, 1.0]), classification=SOLVABLE,
                        known_y=np.array([0.125]))


@_register
def _box_quadratic() -> CatalogEntry:
    """Box-constrained quadratic with an inactive linear row; no nonlinear rows."""
    p = _nl_problem(
        "box-quadratic", n=2,
        f=lambda x: (x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 3.0), 2.0 * (x[1] + 1.0)]),
        A=[[1.0, 1.0]], bA=(np.array([-INF]), np.array([3.0])),
        lx=np.zeros(2), ux=np.full(2, 2.0), x_tilde=[1.0, 1.0])
    return CatalogEntry("box-quadratic", p, known_objective=2.0,
                        known_x=np.array([2.0, 0.0]), classification=SOLVABLE,
                        convex=True)


@_register
def _lin_eq_quadratic() -> CatalogEntry:
    """Diagonal quadratic over two linear equalities; solution (8/7, 8/7, 12/7)."""
    p = _nl_problem(
        "lin-eq-quadratic", n=3,
        f=lambda x: x[0] ** 2 + 2.0 * x[1] ** 2 + x[2] ** 2,
        g=lambda x: np.array([2.0 * x[0], 4.0 * x[1], 2.0 * x[2]]),
        A=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
        bA=(np.array([4.0, 0.0]), np.array([4.0, 0.0])),
        lx=np.zeros(3), x_tilde=[1.0, 1.0, 1.0])
    return CatalogEntry("lin-eq-quadratic", p, known_objective=48.0 / 7.0,
                        known_x=np.array([8.0, 8.0, 12.0]) / 7.0,
                        classification=SOLVABLE, convex=True)


@_register
def _interior_cubic() -> CatalogEntry:
    """Nonconvex cubic over a plain box; the minimizer sits inside it."""
    p = _nl_problem(
        "interior-cubic", n=2,
        f=lambda x: x[0] ** 3 - 3.0 * x[0] + x[1] ** 2,
        g=lambda x: np.array([3.0 * x[0] ** 2 - 3.0, 2.0 * x[1]]),
        lx=np.array([0.0, -1.0]), ux=np.array([2.0, 1.0]),
        x_tilde=[0.2, 0.5])
    return CatalogEntry("interior-cubic", p, known_objective=-2.0,
                        known_x=np.array([1.0, 0.0]), classification=SOLVABLE)


@_register
def _product_cap() -> CatalogEntry:
    """Maximize x1 x2 over the simplex x1 + x2 <= 2, x >= 0 (indefinite Hessian)."""
    p = _nl_problem(
        "product-cap", n=2,
        f=lambda x: -x[0] * x[1],
        g=lambda x: np.array([-x[1], -x[0]]),
        A=[[1.0, 1.0]], bA=(np.array([-INF]), np.array([2.0])),
        lx=np.zeros(2), x_tilde=[0.5, 0.2])
    return CatalogEntry("product-cap", p, known_objective=-1.0,
                        known_x=np.array([1.0, 1.0]), classification=SOLVABLE)


@_register
def _ball_proj() -> CatalogEntry:
    """Project (2,2,2) onto the radius-2 ball, with an inactive linear row."""
    root3 = np.sqrt(3.0)
    p = _nl_problem(
        "ball-proj", n=3,
        f=lambda x: float(np.sum((x - 2.0) ** 2)),
        g=lambda x: 2.0 * (x - 2.0),
        c=lambda x: np.array([float(np.sum(x ** 2))]),
        J=lambda x: (2.0 * x).reshape(1, 3),
        m_c=1, bc=(np.array([-INF]), np.array([4.0])),
        A=[[1.0, 1.0, 1.0]], bA=(np.array([1.0]), np.array([INF])),
        lx=np.zeros(3), x_tilde=[0.5, 0.5, 0.5])
    return CatalogEntry("ball-proj", p, known_objective=16.0 - 8.0 * root3,
                        known_x=np.full(3, 2.0 / root3), classification=SOLVABLE,
                        convex=True)


@_register
def _two_circles() -> CatalogEntry:
    """Closest point to (3, 0) in the lens formed by two overlapping disks."""
    root2 = np.sqrt(2.0)
    p = _nl_problem(
        "two-circles", n=2,
        f=lambda x: (x[0] - 3.0) ** 2 + x[1] ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 3.0), 2.0 * x[1]]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2,
                              (x[0] - 2.0) ** 2 + x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]],
                              [2.0 * (x[0] - 2.0), 2.0 * x[1]]]),
        m_c=2, bc=(np.full(2, -INF), np.full(2, 2.0)),
        x_tilde=[1.0, 0.5])
    return CatalogEntry("two-circles", p, known_objective=11.0 - 6.0 * root2,
                        known_x=np.array([root2, 0.0]), classification=SOLVABLE,
                        convex=True)


@_register
def _saddle_channel() -> CatalogEntry:
    """min x2 above the parabola x2 >= x1^2 - 1; linear objective, convex region."""
    p = _nl_problem(
        "saddle-channel", n=2,
        f=lambda x: x[1],
        g=lambda x: np.array([0.0, 1.0]),
        c=lambda x: np.array([x[1] - x[0] ** 2 + 1.0]),
        J=lambda x: np.array([[-2.0 * x[0], 1.0]]),
        m_c=1, bc=(np.array([0.0]), np.array([INF])),
        lx=np.array([-2.0, -INF]), ux=np.array([2.0, INF]),
        x_tilde=[1.0, 1.0])
    return CatalogEntry("saddle-channel", p, known_objective=-1.0,
                        known_x=np.array([0.0, -1.0]), classification=SOLVABLE,
                        known_y=np.array([1.0]), convex=True)


@_register
def _rosenbrock_ball() -> CatalogEntry:
    """Gentle banana valley inside a comfortably large disk; constraint inactive."""
    p = _nl_problem(
        "rosenbrock-ball", n=2,
        f=lambda x: (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2,
        g=lambda x: np.array([
            -4.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            2.0 * (x[1] - x[0] ** 2)]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        m_c=1, bc=(np.array([-INF]), np.array([4.0])),
        x_tilde=[0.0, 0.0])
    return CatalogEntry("rosenbrock-ball", p, known_objective=0.0,
                        known_x=np.array([1.0, 1.0]), classification=SOLVABLE)


@_register
def _scaled_quads() -> CatalogEntry:
    """min sum(i * x_i^2) on the hyperplane sum(x) = 1; solution x_i = 12/(25 i)."""
    w = np.arange(1.0, 5.0)
    p = _nl_problem(
        "scaled-quads", n=4,
        f=lambda x: float(np.sum(w * x ** 2)),
        g=lambda x: 2.0 * w * x,
        A=[[1.0, 1.0, 1.0, 1.0]], bA=(np.array([1.0]), np.array([1.0])),
        x_tilde=[1.0, 1.0, 1.0, 1.0])
    return CatalogEntry("scaled-quads", p, known_objective=12.0 / 25.0,
                        known_x=12.0 / (25.0 * w), classification=SOLVABLE,
                        convex=True)


@_register
def _circle_chord() -> CatalogEntry:
    """Unit circle plus the chord x1 = 2 x2: the feasible set is a single point."""
    root5 = np.sqrt(5.0)
    p = _nl_problem(
        "circle-chord", n=2,
        f=lambda x: (x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] - 1.0)]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        m_c=1, bc=(np.array([1.0]), np.array([1.0])),
        A=[[1.0, -2.0]], bA=(np.array([0.0]), np.array([0.0])),
        lx=np.zeros(2), x_tilde=[1.0, 1.0])
    return CatalogEntry("circle-chord", p, known_objective=(root5 - 1.0) ** 2,
                        known_x=np.array([2.0, 1.0]) / root5,
                        classification=SOLVABLE)


@_register
def _sphere_min_sum() -> CatalogEntry:
    """min x1 + x2 + x3 on the radius-sqrt(3) sphere; minimizer -(1,1,1)."""
    p = _nl_problem(
        "sphere-min-sum", n=3,
        f=lambda x: float(np.sum(x)),
        g=lambda x: np.ones(3),
        c=lambda x: np.array([float(np.sum(x ** 2))]),
        J=lambda x: (2.0 * x).reshape(1, 3),
        m_c=1, bc=(np.array([3.0]), np.array([3.0])),
        x_tilde=[-0.5, -0.5, -0.5])
    return CatalogEntry("sphere-min-sum", p, known_objective=-3.0,
                        known_x=-np.ones(3), classification=SOLVABLE,
                        known_y=np.array([-0.5]))
