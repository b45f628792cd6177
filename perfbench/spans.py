"""Spans around the calls into each slcl layer, recorded from outside src/.

`instrument` swaps timed wrappers in for the layer functions at the names
where the solver looks them up, and puts the originals back on exit.  The
driver binds its helpers with `from ... import`, so a wrapper replaces
`slcl.driver.solve_lc` rather than `slcl.innersolve.solve_lc`; methods are
replaced on their classes.  A span's self time is its duration minus the
part its child spans cover.  Spans are kept in memory as per-name totals:
calls, self time, total time, read from the clock the tracer is given.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import slcl.driver
import slcl.innersolve
import slcl.linearize
import slcl.model
from slcl.innersolve import ITERATION_LIMIT

KERNEL = "innersolve.kernel"
SOLVE_LC = "innersolve.solve_lc"

# (owner, attribute, span name) for every layer boundary the benchmark times
LAYER_CALLS = [
    (slcl.driver, "solve", "driver.solve"),
    (slcl.driver, "check_derivatives", "model.derivcheck"),
    (slcl.model.SlackForm, "residual", "model.residual"),
    (slcl.model.SlackForm, "jacobian", "model.jacobian"),
    (slcl.linearize, "aug_lagrangian", "merit.al"),
    (slcl.linearize, "aug_lagrangian_grad", "merit.al"),
    (slcl.driver, "kkt_residual", "merit.kkt"),
    (slcl.driver, "linearize_constraints", "linearize.linearize"),
    (slcl.driver, "assemble_elastic", "linearize.linearize"),
    (slcl.linearize.ElasticSubproblem, "row_residual", "linearize.row_residual"),
    (slcl.driver, "solve_proximal", "innersolve.proximal"),
    (slcl.driver, "solve_lc", SOLVE_LC),
]

CALLBACKS = ("eval_f", "eval_g", "eval_c", "eval_J")


class Tracer:
    """Per-name span totals plus the kernel's own counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # one [name, child seconds] frame per open span
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = self.clock

        def spanned(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                self.total_s[name] += dt
                if stack:
                    stack[-1][1] += dt

        return spanned

    def wrap_kernel(self, bound_solve):
        """bound_solve as an AL-cycle kernel span when solve_lc calls it.

        Calls from elsewhere (the proximal start) are left unspanned, so
        their time stays in the caller's self time.  Inside the span the
        value closure is counted, which gives the line-search trials.
        """
        spanned = self.wrap(KERNEL, bound_solve)
        counts = self.counts

        def kernel(value, value_grad, *args, **kwargs):
            if not self._stack or self._stack[-1][0] != SOLVE_LC:
                return bound_solve(value, value_grad, *args, **kwargs)

            def counted_value(u):
                counts["ls_trials"] += 1
                return value(u)

            res = spanned(counted_value, value_grad, *args, **kwargs)
            counts["kernel_iters"] += res.iterations
            counts["kernel_limit_hits"] += res.status == ITERATION_LIMIT
            return res

        return kernel


@contextmanager
def instrument(tracer: Tracer, problems):
    """Route every layer call, and the problems' callbacks, through spans."""
    saved = []
    try:
        for owner, attr, name in LAYER_CALLS:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        saved.append((slcl.innersolve, "bound_solve", slcl.innersolve.bound_solve))
        slcl.innersolve.bound_solve = tracer.wrap_kernel(slcl.innersolve.bound_solve)
        for p in problems:
            for attr in CALLBACKS:
                fn = getattr(p, attr)
                if fn is not None:
                    saved.append((p, attr, fn))
                    setattr(p, attr, tracer.wrap("model.callback", fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
