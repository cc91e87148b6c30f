"""The package namespace, whose names are imported on first access, and the result records, which are named tuples."""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

import hrerank
from hrerank import (
    InconsistencyReport,
    Issue,
    MinErrorResult,
    NoiseLevelSummary,
    PoipViolation,
    PopViolation,
    RankOutcome,
    TrialRecord,
    ValidationReport,
)
from hrerank.baselines import EigenResult
from hrerank.min_error_solver import ErrorSystem

# the README's Library section, what the CLI and the benchmark import, the errors and the two indices
EXPORTED = {
    "WeightVector", "ev_weights", "gm_weights",
    "CopReport", "InconsistencyReport", "PopViolation", "PoipViolation", "cop_check", "estimation_error",
    "inconsistency_report", "koczkodaj_index", "saaty_ci",
    "HreError", "IncompleteMatrixError", "InadmissibleSolutionError", "NonConvergenceError", "ParseError",
    "SingularSystemError", "SolveFailedError", "ValidationError",
    "RankOutcome", "hre_rank",
    "Issue", "PcMatrix", "Prepared", "Problem", "ValidationReport", "is_reachable", "parse_matrix", "preprocess",
    "validate",
    "MinErrorResult", "solve_min_error",
    "ExperimentConfig", "NoiseLevelSummary", "TrialRecord", "run_experiment", "summarize", "write_csv",
}

# pipeline stages and their records: imported from their modules, not from the package
MODULE_ONLY = {
    "EigenResult": "baselines", "principal_eigen": "baselines",
    "JacobiRun": "hre_solver", "LinearSystem": "hre_solver", "build_system": "hre_solver",
    "check_convergence": "hre_solver", "jacobi_iterate": "hre_solver", "select_best_iterate": "hre_solver",
    "solve_linear": "hre_solver", "synthesize": "hre_solver",
    "fill_known_ratios": "matrix_core", "restore_reciprocity": "matrix_core",
    "ErrorSystem": "min_error_solver", "build_error_system": "min_error_solver",
    "generate_consistent": "montecarlo", "perturb": "montecarlo",
}

# per-layer benchmark metrics whose label names no function: counters, ratios and process-level
# figures, and `count_complete_triads`, a layer the package no longer has
NOT_FUNCTIONS = (
    "hre_solver.path.", "hre_solver.direct.", "diagnostics.triads_evaluated", "cli.import_s",
    "trace.overhead_ratio", "diagnostics.count_complete_triads.",
)

RECORDS = [
    EigenResult, ErrorSystem, InconsistencyReport, Issue, MinErrorResult, NoiseLevelSummary,
    PoipViolation, PopViolation, RankOutcome, TrialRecord, ValidationReport,
]


@pytest.mark.parametrize("name", sorted({*hrerank.__all__, *MODULE_ONLY}))
def test_exported_name_is_the_object_its_module_defines(name):
    if name in MODULE_ONLY:  # public in its module, not exported from the package
        module = importlib.import_module(f"hrerank.{MODULE_ONLY[name]}")
        assert getattr(module, name).__module__ == module.__name__ and name not in dir(hrerank)
        with pytest.raises(AttributeError):
            getattr(hrerank, name)
        return
    obj = getattr(hrerank, name)
    assert obj.__module__.startswith("hrerank.")
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert hrerank.__getattr__(name) is obj  # the lazy lookup itself, which a cached name skips


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from hrerank import *", namespace)
    assert all(namespace[name] is getattr(hrerank, name) for name in hrerank.__all__)
    assert set(hrerank.__all__) <= set(dir(hrerank))
    assert hrerank.__all__ == sorted(hrerank.__all__) and set(hrerank.__all__) == EXPORTED


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hrerank.no_such_name
    with pytest.raises(ImportError):
        from hrerank import no_such_name  # noqa: F401


def test_every_timed_layer_is_a_public_function_of_its_module():
    # the benchmark labels a span `module.function`: a renamed or moved function reads 0 on its metric
    metrics = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    labels = {metric["name"].rsplit(".", 1)[0] for metric in metrics if not metric["name"].startswith(NOT_FUNCTIONS)}
    assert "diagnostics.koczkodaj_index" in labels
    for label in sorted(labels):
        module, name = label.split(".")
        function = getattr(importlib.import_module(f"hrerank.{module}"), name, None)
        assert inspect.isfunction(function) and function.__module__ == f"hrerank.{module}", label
        assert not name.startswith("_"), label


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_is_a_frozen_named_tuple(record):
    values = tuple(range(len(record._fields)))
    rec = record(*values)
    assert rec == values and rec[-1] == values[-1]
    fields = ", ".join(f"{field}={value!r}" for field, value in zip(record._fields, values))
    assert repr(rec) == f"{record.__name__}({fields})"
    for name in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, -1)
    assert rec == values
