"""Stabilized linearly constrained Lagrangian solver for smooth nonlinear programs.

The package root exports nothing but __version__: import from the
submodules, for example solve from slcl.driver and NlpProblem from
slcl.model, so that building a problem does not load the solver.
"""

__version__ = "0.1.0"
