"""The package namespace, whose names are imported on first access, and the result records, which are named tuples."""

import sys

import pytest

import hrerank
from hrerank import (
    EigenResult,
    ErrorSystem,
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

RECORDS = [
    EigenResult, ErrorSystem, InconsistencyReport, Issue, MinErrorResult, NoiseLevelSummary,
    PoipViolation, PopViolation, RankOutcome, TrialRecord, ValidationReport,
]


@pytest.mark.parametrize("name", hrerank.__all__)
def test_exported_name_is_the_object_its_module_defines(name):
    obj = getattr(hrerank, name)
    assert obj.__module__.startswith("hrerank.")
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert hrerank.__getattr__(name) is obj  # the lazy lookup itself, which a cached name skips


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from hrerank import *", namespace)
    assert all(namespace[name] is getattr(hrerank, name) for name in hrerank.__all__)
    assert set(hrerank.__all__) <= set(dir(hrerank))
    assert hrerank.__all__ == sorted(hrerank.__all__) and len(hrerank.__all__) == 56


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hrerank.no_such_name
    with pytest.raises(ImportError):
        from hrerank import no_such_name  # noqa: F401


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
