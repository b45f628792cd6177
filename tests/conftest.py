"""Shared test helpers.

BLAS runs on one thread, set before NumPy is first imported, as in
perfbench/run.py and tools/identity.py: above a few dozen variables the
kernel's LU solve rounds differently on more threads, so the tests would
otherwise follow other bits on other machines.
"""

import dataclasses
import os

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


@pytest.fixture
def spy_calls():
    """spy_calls(problem) wraps the problem's raw callbacks and returns the
    list that gets the kind and the bytes of x of every call; a tally of
    its kinds counts the calls."""
    def spy(problem):
        calls = []
        for kind in "fgcJ":
            fn = getattr(problem, f"eval_{kind}")
            if fn is not None:
                def called(x, kind=kind, fn=fn):
                    calls.append((kind, x.tobytes()))
                    return fn(x)
                setattr(problem, f"eval_{kind}", called)
        return calls

    return spy


@pytest.fixture
def rescaled():
    """rescaled(problem, a, b) is a copy of the problem with f and g
    multiplied by a and c, J and the bounds of c by b > 0: the same
    problem in other units."""
    def copy(problem, a, b):
        f, g, c, J = problem.eval_f, problem.eval_g, problem.eval_c, problem.eval_J
        lc, uc = problem.bounds_c
        return dataclasses.replace(
            problem, eval_f=lambda x: a * f(x), eval_g=lambda x: a * g(x),
            eval_c=lambda x: b * c(x), eval_J=lambda x: b * J(x),
            bounds_c=(b * lc, b * uc))

    return copy
