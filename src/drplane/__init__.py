"""Reflect-project dynamics on "hyperplane vs finite point set" problems.

Exact rational and quadratic-surd arithmetic, eventual-cycle detection tied
to a rationality test on the offset ratio, floor-function closed forms for
two-point sets with cross-checking against direct iteration, and an
alternating-projections baseline.

Names load on first access: importing the package imports no submodule, so
a CLI run loads only the modules its subcommand uses.
"""

import sys

__version__ = "0.1.0"

# the public names, by the submodule that defines each
_NAMES = {
    "altproj": ("ApTrace", "ap_iterate"),
    "closedform": (
        "Betas", "beatty_triple", "closed_form_inner", "closed_form_point",
        "compute_betas", "corollary_point", "verify_closed_form",
    ),
    "cycling": (
        "CycleReport", "DoubletonProblem", "coefficient_limits", "cycle_relation",
        "detect_cycle", "rationality_predicate",
    ),
    "dynamics": ("Outcome", "RunResult", "classify", "iterate"),
    "errors": ("BackendError", "DimensionMismatch", "PreconditionError", "ProblemFormatError"),
    "geometry": ("FiniteSet", "Hyperplane", "TiePolicy", "dr_step"),
    "problems": ("Problem", "load_problem", "make_problem", "save_problem"),
    "scalars": ("Surd",),
}
_SOURCES = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_SOURCES, "__version__"]

# debug records name the path each driver took; silent unless the caller
# configures logging, and emitted only once logging is loaded (see dynamics)
if "logging" in sys.modules:
    sys.modules["logging"].getLogger(__name__).addHandler(sys.modules["logging"].NullHandler())


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_SOURCES[name]}"
    __import__(module)
    value = globals()[name] = getattr(sys.modules[module], name)
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES})
