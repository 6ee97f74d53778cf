"""Reflect-project dynamics on "hyperplane vs finite point set" problems.

Exact rational and quadratic-surd arithmetic, eventual-cycle detection tied
to a rationality test on the offset ratio, floor-function closed forms for
two-point sets with cross-checking against direct iteration, and an
alternating-projections baseline.
"""

import logging

from .altproj import ApTrace, ap_iterate
from .closedform import (
    Betas,
    beatty_triple,
    closed_form_inner,
    closed_form_point,
    compute_betas,
    corollary_point,
    verify_closed_form,
)
from .cycling import (
    CycleReport,
    DoubletonProblem,
    coefficient_limits,
    cycle_relation,
    detect_cycle,
    rationality_predicate,
)
from .dynamics import Outcome, RunResult, classify, iterate
from .errors import (
    BackendError,
    DimensionMismatch,
    PreconditionError,
    ProblemFormatError,
)
from .geometry import FiniteSet, Hyperplane, TiePolicy, dr_step
from .problems import Problem, load_problem, make_problem, save_problem
from .scalars import Surd

__version__ = "0.1.0"

# debug records name the path each driver took; silent unless the caller
# configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ApTrace",
    "ap_iterate",
    "Betas",
    "beatty_triple",
    "closed_form_inner",
    "closed_form_point",
    "compute_betas",
    "corollary_point",
    "verify_closed_form",
    "CycleReport",
    "DoubletonProblem",
    "coefficient_limits",
    "cycle_relation",
    "detect_cycle",
    "rationality_predicate",
    "Outcome",
    "RunResult",
    "classify",
    "iterate",
    "BackendError",
    "DimensionMismatch",
    "PreconditionError",
    "ProblemFormatError",
    "FiniteSet",
    "Hyperplane",
    "TiePolicy",
    "dr_step",
    "Problem",
    "load_problem",
    "make_problem",
    "save_problem",
    "Surd",
    "__version__",
]
