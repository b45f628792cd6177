"""Stabilized linearly constrained Lagrangian solver for smooth nonlinear programs."""

from .bench import SuiteEntry, SuiteReport, emit_report, run_suite
from .catalog import CatalogEntry, catalog_get, catalog_names
from .driver import (OuterOptions, OuterState, SolveReport, TraceRecord,
                     next_omega, solve, update_on_failure, update_on_success)
from .innersolve import (BoundSolveResult, PpInfeasible, SubproblemSolution,
                         bound_solve, solve_lc, solve_proximal)
from .linearize import (ElasticSubproblem, Linearization, assemble_elastic,
                        linearize_constraints, optimal_elastics)
from .merit import (KktResidual, aug_lagrangian, aug_lagrangian_grad,
                    comp_measure, is_optimal, kkt_residual,
                    min_norm_stationarity)
from .model import (DerivReport, NlpProblem, SlackForm, build_slack_form,
                    check_derivatives, push_interior)

__version__ = "0.1.0"

__all__ = [
    "BoundSolveResult", "CatalogEntry", "DerivReport",
    "ElasticSubproblem", "KktResidual", "Linearization",
    "NlpProblem", "OuterOptions", "OuterState", "PpInfeasible",
    "SlackForm", "SolveReport", "SubproblemSolution", "SuiteEntry",
    "SuiteReport", "TraceRecord", "aug_lagrangian", "aug_lagrangian_grad",
    "assemble_elastic", "bound_solve", "build_slack_form", "catalog_get",
    "catalog_names", "check_derivatives", "comp_measure", "emit_report",
    "is_optimal", "kkt_residual", "linearize_constraints",
    "min_norm_stationarity", "next_omega", "optimal_elastics",
    "push_interior", "run_suite", "solve", "solve_lc", "solve_proximal",
    "update_on_failure", "update_on_success",
]
