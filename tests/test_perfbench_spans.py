"""The benchmark's traced run: perfbench/spans.py wraps slcl's layer
functions by name, so a renamed or re-bound name breaks the traced
benchmark while the untraced solves still pass."""

import slcl.driver
from slcl.catalog import catalog_get

from conftest import load_module

LAYERS = ("driver.solve", "model.derivcheck", "innersolve.proximal",
          "linearize.linearize", "innersolve.solve_lc", "innersolve.kernel", "merit.kkt")


def test_traced_solve_records_every_layer():
    """circle-chord, which has a linear row and a nonlinear one, solved
    under the benchmark's spans, records calls in every layer."""
    spans = load_module("perfbench/spans.py")
    problem = catalog_get("circle-chord").problem
    with spans.instrument(spans.Tracer(), [problem]) as tracer:
        rep = slcl.driver.solve(problem)
    assert rep.status == "Optimal"
    assert {name: tracer.calls[name] > 0 for name in LAYERS} == dict.fromkeys(LAYERS, True)
