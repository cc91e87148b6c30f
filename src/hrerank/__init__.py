"""Priority weights from pairwise-comparison matrices with fixed reference concepts.

Every name in ``__all__`` is imported from its module on first access
(PEP 562), so ``import hrerank`` loads no submodule and a CLI request
loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports from the package: the documented API; stage functions
# such as `build_system` or `perturb` are imported from their modules
_EXPORTS = {
    "baselines": ("WeightVector", "ev_weights", "gm_weights"),
    "diagnostics": (
        "CopReport", "InconsistencyReport", "PoipViolation", "PopViolation", "cop_check",
        "estimation_error", "inconsistency_report", "koczkodaj_index", "saaty_ci",
    ),
    "errors": (
        "HreError", "IncompleteMatrixError", "InadmissibleSolutionError", "NonConvergenceError",
        "ParseError", "SingularSystemError", "SolveFailedError", "ValidationError",
    ),
    "hre_solver": ("RankOutcome", "hre_rank"),
    "matrix_core": (
        "Issue", "PcMatrix", "Prepared", "Problem", "ValidationReport", "is_reachable", "parse_matrix",
        "preprocess", "validate",
    ),
    "min_error_solver": ("MinErrorResult", "solve_min_error"),
    "montecarlo": ("ExperimentConfig", "NoiseLevelSummary", "TrialRecord", "run_experiment", "summarize", "write_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
