"""Generator-driven checks of the array kernels against their loop references.

Matrices come from `random_problem`: n in 3..40, random missing patterns,
noise levels and 0, 1 or 3 reference concepts.  K, the triad count, the
restored matrix and the validation issues must match bit for bit; the
estimation error and the Jacobi iterates within 1e-12 relative.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hrerank import (
    WeightVector,
    estimation_error,
    jacobi_iterate,
    koczkodaj_index,
    preprocess,
    restore_reciprocity,
    triad_scan,
    validate,
)
from hrerank.hre_solver import DIVERGENCE_LIMIT, JACOBI_STOP_TOL

from _support import (
    estimation_error_oracle,
    jacobi_loop,
    random_problem,
    restore_reciprocity_loop,
    triad_scan_loop,
    validate_loop,
)

REL_TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(3, 40)
missing = st.sampled_from([0.0, 0.2, 0.5, 0.8])
noise = st.floats(0.0, 1.0)
reference_counts = st.sampled_from([0, 1, 3])

any_problem = st.builds(
    random_problem,
    seed=seeds,
    n=sizes,
    missing=missing,
    noise=noise,
    references=reference_counts,
    reciprocal=st.booleans(),
    connected=st.booleans(),
    corrupt=st.sampled_from([0, 0, 1, 3]),
)
solvable_problem = st.builds(
    random_problem, seed=seeds, n=sizes, missing=missing, noise=noise, references=st.sampled_from([1, 3])
)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


@settings(max_examples=60, deadline=None)
@given(any_problem)
def test_validation_issues_match_loop(problem):
    assert validate(problem).issues == validate_loop(problem)


@settings(max_examples=60, deadline=None)
@given(st.builds(random_problem, seed=seeds, n=sizes, missing=missing, noise=noise,
                 references=st.just(0), reciprocal=st.booleans()))
def test_restored_matrix_and_triads_match_loop(problem):
    raw = problem.matrix
    restored = restore_reciprocity(raw)
    assert restored.entries == restore_reciprocity_loop(raw)
    for matrix in (raw, restored):
        expected = triad_scan_loop(matrix)
        assert triad_scan(matrix) == expected
        assert koczkodaj_index(matrix) == expected[0]


@settings(max_examples=60, deadline=None)
@given(solvable_problem, seeds)
def test_estimation_error_matches_loop(problem, seed):
    prepared = preprocess(problem).problem
    rng = random.Random(seed)
    mu = WeightVector(tuple(math.exp(rng.uniform(-3.0, 3.0)) for _ in range(prepared.n)))
    if not prepared.unknown_indices:
        assert estimation_error(prepared, mu) == ({}, 0.0)
        return
    per, mean = estimation_error(prepared, mu)
    per_loop, mean_loop = estimation_error_oracle(prepared, mu.values)
    assert per.keys() == per_loop.keys()
    assert all(close(per[j], per_loop[j]) for j in per)
    assert close(mean, mean_loop)


@settings(max_examples=60, deadline=None)
@given(solvable_problem, st.integers(1, 30))
def test_jacobi_iterates_match_loop(problem, steps):
    prepared = preprocess(problem).problem
    run = jacobi_iterate(prepared, steps)
    iterates, converged, diverged = jacobi_loop(prepared, steps, JACOBI_STOP_TOL, DIVERGENCE_LIMIT)
    assert (run.converged, run.diverged) == (converged, diverged)
    assert len(run.iterates) == len(iterates)
    for vector, expected in zip(run.iterates, iterates):
        assert [v is None for v in vector] == [v is None for v in expected]
        assert all(close(v, e) for v, e in zip(vector, expected) if v is not None)
