"""Workload inputs for the slcl benchmark.

A case is one solve: a problem, an optional start, and what a correct answer
looks like, stated independently of the solver.  Every input is made from the
workload seed here; the solver receives only the generated problems and
starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slcl.catalog import catalog_get, catalog_names
from slcl.model import NlpProblem

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"

_EXPECTED = {"solvable": OPTIMAL, "infeasible": INFEASIBLE,
             "unbounded": UNBOUNDED}

# warm-start: offsets from the known solution, largest first
WARM_OFFSETS = np.geomspace(1e-1, 1e-3, 10)
WARM_DRAWS = 8

# circles: instances per pass and circles per instance
CIRCLE_INSTANCES = 12
CIRCLE_K = 32


@dataclass
class Case:
    label: str
    problem: NlpProblem
    expected: str
    f_star: float | None = None
    x_star: np.ndarray | None = None
    x_start: np.ndarray | None = None
    y_start: np.ndarray | None = None


def catalog_cases(seed: int) -> list[Case]:
    """Every catalog entry from its own start point; the seed is not used."""
    del seed
    cases = []
    for name in catalog_names():
        entry = catalog_get(name)
        cases.append(Case(name, entry.problem, _EXPECTED[entry.classification],
                          entry.known_objective, entry.known_x))
    return cases


def warm_start_cases(seed: int) -> list[Case]:
    """Re-solves from x* + r d, y* +/- r for entries with closed-form x* and y*.

    r runs down WARM_OFFSETS; each rung gets WARM_DRAWS draws of a direction
    d (unit infinity norm) and of the multiplier signs.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for name in catalog_names():
        probe = catalog_get(name)
        if probe.known_x is None or probe.known_y is None:
            continue
        for i, r in enumerate(WARM_OFFSETS):
            for j in range(WARM_DRAWS):
                entry = catalog_get(name)
                d = rng.standard_normal(entry.problem.n)
                d /= np.abs(d).max()
                signs = rng.choice([-1.0, 1.0], size=len(entry.known_y))
                cases.append(Case(
                    f"{name}@r{i}.{j}", entry.problem, OPTIMAL,
                    entry.known_objective, entry.known_x,
                    x_start=entry.known_x + r * d,
                    y_start=entry.known_y + r * signs))
    return cases


def circle_problem(targets: np.ndarray, name: str) -> NlpProblem:
    """Project each row of `targets` onto the unit circle within x >= 0.

    One nonlinear row ||x_i||^2 = 1 per circle, plus one loose linear row
    sum(x) <= 10 n that stays inactive.
    """
    k = targets.shape[0]
    n = 2 * k
    a = targets.ravel()
    rows = np.arange(k)

    def f(x):
        d = x - a
        return float(d @ d)

    def g(x):
        return 2.0 * (x - a)

    def c(x):
        return x[0::2] ** 2 + x[1::2] ** 2

    def J(x):
        out = np.zeros((k, n))
        out[rows, 2 * rows] = 2.0 * x[0::2]
        out[rows, 2 * rows + 1] = 2.0 * x[1::2]
        return out

    return NlpProblem(
        n=n, m_c=k, m_A=1, eval_f=f, eval_g=g, eval_c=c, eval_J=J,
        A=np.ones((1, n)), bounds_x=(np.zeros(n), np.full(n, np.inf)),
        bounds_c=(np.ones(k), np.ones(k)),
        bounds_A=(np.array([-np.inf]), np.array([10.0 * n])),
        x_tilde=np.full(n, 0.5), name=name)


def circle_targets(rng: np.random.Generator, k: int) -> np.ndarray:
    """k targets with components in [0.5, 3], stratified per coordinate.

    Each coordinate takes one uniform draw from each of k equal strata, in a
    random order.  The instance stays random, but its spread of target norms
    (hence of multiplier sizes) varies less from seed to seed than with plain
    uniform draws, which keeps the summed counts comparable across seeds.
    """
    strata = np.stack([rng.permutation(k) for _ in range(2)], axis=1)
    return 0.5 + 2.5 * (strata + rng.uniform(size=(k, 2))) / k


def circles_cases(seed: int) -> list[Case]:
    """CIRCLE_INSTANCES instances of CIRCLE_K circles, all from the seed.

    Closed form: x_i* = a_i / ||a_i||, y_i* = 1 - ||a_i||, and
    f* = sum (||a_i|| - 1)^2.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(CIRCLE_INSTANCES):
        a = circle_targets(rng, CIRCLE_K)
        norms = np.linalg.norm(a, axis=1)
        x_star = (a / norms[:, None]).ravel()
        f_star = float(np.sum((norms - 1.0) ** 2))
        label = f"circles-{CIRCLE_K}#{i}"
        cases.append(Case(label, circle_problem(a, label), OPTIMAL, f_star,
                          x_star))
    return cases


WORKLOADS = {
    "catalog": catalog_cases,
    "warm-start": warm_start_cases,
    "circles": circles_cases,
}
