"""Built-in catalog of small smooth problems with known solutions.

Each entry is one `_entry` call in a registered builder, whose name,
`_circle_proj` for "circle-proj", is the entry's and its problem's.
Entries are built fresh on every lookup so evaluation counters start at
zero.  Solvable entries carry the optimal objective value and, where the
minimizer is unique, the minimizer itself, which `tests/test_model.py`
checks; entries are also tagged convex when both the objective and the
feasible region are convex, which defines the subset used for
cross-checking solver modes against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import INF, NlpProblem, Vector

SOLVABLE = "solvable"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class CatalogEntry:
    problem: NlpProblem
    known_objective: float | None = None
    known_x: Vector | None = None
    known_y: Vector | None = None
    classification: str = SOLVABLE
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
    """Build the named entry, its problem named after it."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog problem: {name!r}")
    entry = _BUILDERS[name]()
    entry.problem.name = name
    return entry


def _entry(f, g, x_tilde, c=None, J=None, bc=((), ()), A=None, bA=((), ()),
           lx=None, ux=None, **known) -> CatalogEntry:
    """The entry of the problem stated by the arguments, with n, m_c and
    m_A read from x_tilde, bc and A, and x unbounded where lx or ux is not
    given; known holds the entry's other fields."""
    n = len(x_tilde)
    A = np.zeros((0, n)) if A is None else A
    lx = np.full(n, -INF) if lx is None else lx
    ux = np.full(n, INF) if ux is None else ux
    problem = NlpProblem(
        n=n, m_c=len(bc[0]), m_A=len(A), eval_f=f, eval_g=g, eval_c=c,
        eval_J=J, A=A, bounds_x=(lx, ux), bounds_c=bc, bounds_A=bA,
        x_tilde=x_tilde)
    return CatalogEntry(problem, **known)


# ---------------------------------------------------------------------------
# Required entries.

@_register
def _circle_proj() -> CatalogEntry:
    """Project the point (2, 1) onto the unit circle, first quadrant."""
    root5 = np.sqrt(5.0)
    # distance from (2,1) to the circle is sqrt(5) - 1
    return _entry(
        f=lambda x: (x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] - 1.0)]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        bc=([1.0], [1.0]), lx=np.zeros(2), x_tilde=[0.5, 0.5],
        known_objective=(root5 - 1.0) ** 2,
        known_x=np.array([2.0, 1.0]) / root5, known_y=np.array([1.0 - root5]))


@_register
def _linear_as_nl() -> CatalogEntry:
    """An affine equality posed as a nonlinear row: min ||x||^2 on x1+x2=2."""
    return _entry(
        f=lambda x: x[0] ** 2 + x[1] ** 2,
        g=lambda x: 2.0 * x,
        c=lambda x: np.array([x[0] + x[1]]),
        J=lambda x: np.array([[1.0, 1.0]]),
        bc=([2.0], [2.0]), lx=np.zeros(2), x_tilde=[0.0, 0.0],
        known_objective=2.0, known_x=np.array([1.0, 1.0]),
        known_y=np.array([2.0]), convex=True)


@_register
def _infeas_affine() -> CatalogEntry:
    """Inconsistent row x1+x2+1=0 over x >= 0; nearest residual is 1 at the origin."""
    return _entry(
        f=lambda x: (x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 1.0), 2.0 * (x[1] - 1.0)]),
        c=lambda x: np.array([x[0] + x[1] + 1.0]),
        J=lambda x: np.array([[1.0, 1.0]]),
        bc=([0.0], [0.0]), lx=np.zeros(2), x_tilde=[1.0, 1.0],
        classification=INFEASIBLE)


@_register
def _unbounded_ray() -> CatalogEntry:
    """min -x1 with x2^2 = 0: objective runs off along the feasible ray e1."""
    return _entry(
        f=lambda x: -x[0],
        g=lambda x: np.array([-1.0, 0.0]),
        c=lambda x: np.array([x[1] ** 2]),
        J=lambda x: np.array([[0.0, 2.0 * x[1]]]),
        bc=([0.0], [0.0]), lx=np.zeros(2), x_tilde=[1.0, 0.0],
        classification=UNBOUNDED)


# ---------------------------------------------------------------------------
# Additional solvable entries.

@_register
def _ridge_eq() -> CatalogEntry:
    """Nonconvex equality x2 = x1^2 under the objective (1 - x1)^2."""
    return _entry(
        f=lambda x: (1.0 - x[0]) ** 2,
        g=lambda x: np.array([-2.0 * (1.0 - x[0]), 0.0]),
        c=lambda x: np.array([x[1] - x[0] ** 2]),
        J=lambda x: np.array([[-2.0 * x[0], 1.0]]),
        bc=([0.0], [0.0]), x_tilde=[-1.2, 1.0],
        known_objective=0.0, known_x=np.array([1.0, 1.0]),
        known_y=np.array([0.0]))


@_register
def _dist_to_parabola() -> CatalogEntry:
    """Closest point to the origin in the region above x2 = x1^2 + 1."""
    return _entry(
        f=lambda x: x[0] ** 2 + x[1] ** 2,
        g=lambda x: 2.0 * x,
        c=lambda x: np.array([x[1] - x[0] ** 2 - 1.0]),
        J=lambda x: np.array([[-2.0 * x[0], 1.0]]),
        bc=([0.0], [INF]), x_tilde=[0.5, 2.0],
        known_objective=1.0, known_x=np.array([0.0, 1.0]),
        known_y=np.array([2.0]), convex=True)


@_register
def _quarter_ellipse() -> CatalogEntry:
    """min x1 + x2 on the ellipse x1^2 + 4 x2^2 = 4 with x >= 0; a bound is active."""
    return _entry(
        f=lambda x: x[0] + x[1],
        g=lambda x: np.array([1.0, 1.0]),
        c=lambda x: np.array([x[0] ** 2 + 4.0 * x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 8.0 * x[1]]]),
        bc=([4.0], [4.0]), lx=np.zeros(2), x_tilde=[1.0, 1.0],
        known_objective=1.0, known_x=np.array([0.0, 1.0]),
        known_y=np.array([0.125]))


@_register
def _box_quadratic() -> CatalogEntry:
    """Box-constrained quadratic with an inactive linear row; no nonlinear rows."""
    return _entry(
        f=lambda x: (x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 3.0), 2.0 * (x[1] + 1.0)]),
        A=[[1.0, 1.0]], bA=([-INF], [3.0]),
        lx=np.zeros(2), ux=np.full(2, 2.0), x_tilde=[1.0, 1.0],
        known_objective=2.0, known_x=np.array([2.0, 0.0]), convex=True)


@_register
def _lin_eq_quadratic() -> CatalogEntry:
    """Diagonal quadratic over two linear equalities; solution (8/7, 8/7, 12/7)."""
    return _entry(
        f=lambda x: x[0] ** 2 + 2.0 * x[1] ** 2 + x[2] ** 2,
        g=lambda x: np.array([2.0 * x[0], 4.0 * x[1], 2.0 * x[2]]),
        A=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], bA=([4.0, 0.0], [4.0, 0.0]),
        lx=np.zeros(3), x_tilde=[1.0, 1.0, 1.0],
        known_objective=48.0 / 7.0, known_x=np.array([8.0, 8.0, 12.0]) / 7.0,
        convex=True)


@_register
def _interior_cubic() -> CatalogEntry:
    """Nonconvex cubic over a plain box; the minimizer sits inside it."""
    return _entry(
        f=lambda x: x[0] ** 3 - 3.0 * x[0] + x[1] ** 2,
        g=lambda x: np.array([3.0 * x[0] ** 2 - 3.0, 2.0 * x[1]]),
        lx=[0.0, -1.0], ux=[2.0, 1.0], x_tilde=[0.2, 0.5],
        known_objective=-2.0, known_x=np.array([1.0, 0.0]))


@_register
def _product_cap() -> CatalogEntry:
    """Maximize x1 x2 over the simplex x1 + x2 <= 2, x >= 0 (indefinite Hessian)."""
    return _entry(
        f=lambda x: -x[0] * x[1],
        g=lambda x: np.array([-x[1], -x[0]]),
        A=[[1.0, 1.0]], bA=([-INF], [2.0]), lx=np.zeros(2), x_tilde=[0.5, 0.2],
        known_objective=-1.0, known_x=np.array([1.0, 1.0]))


@_register
def _ball_proj() -> CatalogEntry:
    """Project (2,2,2) onto the radius-2 ball, with an inactive linear row."""
    root3 = np.sqrt(3.0)
    return _entry(
        f=lambda x: float(np.sum((x - 2.0) ** 2)),
        g=lambda x: 2.0 * (x - 2.0),
        c=lambda x: np.array([float(np.sum(x ** 2))]),
        J=lambda x: (2.0 * x).reshape(1, 3),
        bc=([-INF], [4.0]), A=[[1.0, 1.0, 1.0]], bA=([1.0], [INF]),
        lx=np.zeros(3), x_tilde=[0.5, 0.5, 0.5],
        known_objective=16.0 - 8.0 * root3, known_x=np.full(3, 2.0 / root3),
        convex=True)


@_register
def _two_circles() -> CatalogEntry:
    """Closest point to (3, 0) in the lens formed by two overlapping disks."""
    root2 = np.sqrt(2.0)
    return _entry(
        f=lambda x: (x[0] - 3.0) ** 2 + x[1] ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 3.0), 2.0 * x[1]]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2,
                              (x[0] - 2.0) ** 2 + x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]],
                              [2.0 * (x[0] - 2.0), 2.0 * x[1]]]),
        bc=([-INF, -INF], [2.0, 2.0]), x_tilde=[1.0, 0.5],
        known_objective=11.0 - 6.0 * root2, known_x=np.array([root2, 0.0]),
        convex=True)


@_register
def _saddle_channel() -> CatalogEntry:
    """min x2 above the parabola x2 >= x1^2 - 1; linear objective, convex region."""
    return _entry(
        f=lambda x: x[1],
        g=lambda x: np.array([0.0, 1.0]),
        c=lambda x: np.array([x[1] - x[0] ** 2 + 1.0]),
        J=lambda x: np.array([[-2.0 * x[0], 1.0]]),
        bc=([0.0], [INF]), lx=[-2.0, -INF], ux=[2.0, INF], x_tilde=[1.0, 1.0],
        known_objective=-1.0, known_x=np.array([0.0, -1.0]),
        known_y=np.array([1.0]), convex=True)


@_register
def _rosenbrock_ball() -> CatalogEntry:
    """Gentle banana valley inside a comfortably large disk; constraint inactive."""
    return _entry(
        f=lambda x: (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2,
        g=lambda x: np.array([
            -4.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            2.0 * (x[1] - x[0] ** 2)]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        bc=([-INF], [4.0]), x_tilde=[0.0, 0.0],
        known_objective=0.0, known_x=np.array([1.0, 1.0]))


@_register
def _scaled_quads() -> CatalogEntry:
    """min sum(i * x_i^2) on the hyperplane sum(x) = 1; solution x_i = 12/(25 i)."""
    w = np.arange(1.0, 5.0)
    return _entry(
        f=lambda x: float(np.sum(w * x ** 2)),
        g=lambda x: 2.0 * w * x,
        A=[[1.0, 1.0, 1.0, 1.0]], bA=([1.0], [1.0]), x_tilde=[1.0, 1.0, 1.0, 1.0],
        known_objective=12.0 / 25.0, known_x=12.0 / (25.0 * w), convex=True)


@_register
def _circle_chord() -> CatalogEntry:
    """Unit circle plus the chord x1 = 2 x2: the feasible set is a single point."""
    root5 = np.sqrt(5.0)
    return _entry(
        f=lambda x: (x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2,
        g=lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] - 1.0)]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        J=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        bc=([1.0], [1.0]), A=[[1.0, -2.0]], bA=([0.0], [0.0]),
        lx=np.zeros(2), x_tilde=[1.0, 1.0],
        known_objective=(root5 - 1.0) ** 2, known_x=np.array([2.0, 1.0]) / root5)


@_register
def _sphere_min_sum() -> CatalogEntry:
    """min x1 + x2 + x3 on the radius-sqrt(3) sphere; minimizer -(1,1,1)."""
    return _entry(
        f=lambda x: float(np.sum(x)),
        g=lambda x: np.ones(3),
        c=lambda x: np.array([float(np.sum(x ** 2))]),
        J=lambda x: (2.0 * x).reshape(1, 3),
        bc=([3.0], [3.0]), x_tilde=[-0.5, -0.5, -0.5],
        known_objective=-3.0, known_x=-np.ones(3), known_y=np.array([-0.5]))
