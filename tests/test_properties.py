"""Generator-driven checks of the array kernels against their loop references.

Matrices come from `random_problem`: n in 3..40, random missing patterns,
noise levels and 0, 1 or 3 reference concepts.  K, the triad count, the
restored matrix, the validation issues and the Jacobi iterates must match
bit for bit (one example fails if the Jacobi step fuses its multiply-add),
as must the step's kernel, written into a row view, and ``np.einsum``;
the estimation error within 1e-12 relative of the loop and exactly equal
to its prefix-sum form, and the best iterate's stacked scores exactly
equal to it, row by row, with the same winner.  The COP report, the
`cop --json` and text output as the writers emit them, chunk by chunk (against json.dumps and the
per-violation oracles, each with one final newline), the
parsed problem (or parse error), the linear solve alone and in stacks,
the Monte Carlo records and unit-sum weights must equal their references
exactly, as must the averaging and least-squares systems of complete
problems (1, 3 or n - 1 references) and their dominance tests.  Every
slice of the stacked stage kernels that `run_experiment` runs must equal
the public one-matrix function of that stage bit for bit, the systems'
parts must not change when the reference-to-reference entries (which
nothing fills) hold any other values, and `hre_rank` and `solve_min_error`
must give the same answer to the bit (path, flags, step count and every
warning but the known-known-mismatch ones), or the same error, whether the
ratios between 2-4 references of a complete, half-missing or ring problem
are missing both ways, definitional or arbitrary.  The triad
scan must print as its pivot-block form prints on stacks with NaN, inf,
0, negative and subnormal entries, at any block size.  A Jacobi run that
the non-convergence certificate stops, on reachable incomplete requests
(half-missing patterns, rings and trees), must be the start of a full run
that does not converge, and `hre_rank` must give the same answer to the
bit with the certificate patched off.  Multiplying every reference of a
connected request (complete, half missing, a ring or a chain; n 3..40,
1-3 references, noise 0-0.5) by 2**k, |k| <= 60, must give the same path
and every weight exactly 2**k times, or the same exception type.  From
LAPACK_MIN_K unknowns on, a solve must agree with the elimination within
k eps times the condition number (1e-12 relative when well conditioned),
and each kind of singular system must get its pinned outcome.  The
least-squares normal matrix's least eigenvalue must be at least
r / (n - 1).
"""

from __future__ import annotations

import io
import json
import math
import random
import runpy
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hrerank import (
    ExperimentConfig,
    InadmissibleSolutionError,
    ParseError,
    PcMatrix,
    PoipViolation,
    PopViolation,
    Problem,
    SingularSystemError,
    SolveFailedError,
    WeightVector,
    cop_check,
    estimation_error,
    hre_rank,
    koczkodaj_index,
    parse_matrix,
    preprocess,
    run_experiment,
    validate,
)
from hrerank import cop_writer, diagnostics, hre_solver
from hrerank.baselines import _unit
from hrerank.cop_writer import write_json, write_text
from hrerank.diagnostics import SCAN_BLOCK, _errors, _triad_scans
from hrerank.hre_solver import (
    ADMISSIBLE_TOL,
    JACOBI_MAX_ITER,
    JACOBI_STOP_TOL,
    LAPACK_MIN_K,
    RESIDUAL_TOL,
    LinearSystem,
    _above_one,
    _averaging,
    _parts,
    _solved,
    _system_parts,
    build_system,
    c_einsum,
    check_convergence,
    jacobi_iterate,
    select_best_iterate,
    solve_linear,
    synthesize,
)
from hrerank.matrix_core import _bad_entries, _restored, restore_reciprocity
from hrerank.min_error_solver import MinErrorResult, _normal, build_error_system, solve_min_error
from hrerank.montecarlo import _perturbed, _unit_rows, generate_consistent, perturb

from _support import (
    build_error_system_loop,
    bench_problem,
    build_system_loop,
    check_convergence_loop,
    cop_check_loop,
    cop_json_oracle,
    cop_payload,
    cop_report,
    cop_text_oracle,
    chain_problem,
    diverging_incomplete_problem,
    estimation_error_oracle,
    estimation_error_prefix_sum,
    fill_known_ratios,
    graph_problem,
    jacobi_loop,
    overflow_problem,
    parse_matrix_oracle,
    perturb_loop,
    random_problem,
    restore_reciprocity_loop,
    run_experiment_oracle,
    solve_linear_oracle,
    solve_stack,
    stack_results,
    triad_scan_loop,
    triad_scans_pivot,
    unit_loop,
    unit_weights_oracle,
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
        assert _triad_scans(matrix.array) == [expected]
        assert koczkodaj_index(matrix) == expected[0]


# entries that make a product or a quotient NaN (inf * 0, 0 / 0, inf / inf), negative, subnormal or overflowing
TRIAD_SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -2.5, 5e-324, 1e-310, 1e300, 1e-300)


@st.composite
def triad_stacks(draw):
    """1-4 matrices of one size n in 3..30: log-uniform ratios, some missing, some entries special."""
    n, count = draw(st.integers(3, 30)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(seeds))
    stack = np.exp(rng.uniform(-3.0, 3.0, (count, n, n)))
    stack[rng.random(stack.shape) < draw(st.sampled_from([0.0, 0.0, 0.2, 0.6]))] = math.nan
    positions = st.tuples(st.integers(0, count - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    for (b, i, j), value in draw(st.lists(st.tuples(positions, st.sampled_from(TRIAD_SPECIALS)), max_size=12)):
        stack[b, i, j] = value
    return stack


def _with_entries(stack: np.ndarray, entries: dict[tuple[int, int, int], float]) -> np.ndarray:
    stack = stack.copy()
    for index, value in entries.items():
        stack[index] = value
    return stack


# the benchmark's own input generator, loaded by path: `bench/` is a directory of scripts, not a package
_BENCH_INPUTS = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "inputs.py"))
COMPLETE_STACK = np.exp(np.random.default_rng(5).uniform(-3.0, 3.0, (2, 6, 6)))


@settings(max_examples=150, deadline=None)
@given(triad_stacks(), st.sampled_from([1, 7, 64, 4096, SCAN_BLOCK, 1 << 16]))
@example(_with_entries(COMPLETE_STACK, {(1, 0, 4): math.inf}), SCAN_BLOCK)  # complete, one inf: the counted path
@example(_with_entries(COMPLETE_STACK, {(0, 0, 1): 0.0, (0, 0, 2): 0.0}), SCAN_BLOCK)  # finite, 0 / 0: counted too
@example(COMPLETE_STACK[:, :3, :3].copy(), 1)  # finite and non-zero at n = 3: C(3, 3) = 1 triad each
@example(_BENCH_INPUTS["make_case"](7, "complete", 200, 0.3, 3).matrix[None], SCAN_BLOCK)  # the n = 200 request
def test_triad_scans_match_pivot_blocks(stack, block):
    with patch.object(diagnostics, "SCAN_BLOCK", block):  # small blocks: several middle indices or one per block
        assert repr(_triad_scans(stack)) == repr(triad_scans_pivot(stack))


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


# long paths keep concepts unestimated for many steps, and most of a long run comes after every one has an estimate
long_path_problem = st.builds(
    graph_problem, seed=seeds, n=sizes, shape=st.sampled_from(["ring", "tree"]), noise=noise, references=st.sampled_from([1, 3])
)
# a single unknown sums one column, which numpy would add pairwise if that column were contiguous
one_unknown_problem = st.builds(
    lambda seed, n, missing_share, noise_level: random_problem(seed, n, missing_share, noise_level, references=n - 1),
    seeds, st.integers(9, 40), missing, noise,
)


# a fused multiply-add changes the iterates of 13 of its 19 concepts, from step 2 on
FMA_EXAMPLE = (random_problem(2, 19, 0.2, 0.3, 1), 4)


# inconsistent triangles overflow after every concept has an estimate, the overflow case in the first step;
# the steep triangle overflows to inf on step 15, where the steps after it turn to NaN
diverging_problem = st.sampled_from(
    [diverging_incomplete_problem(), diverging_incomplete_problem(gain=1e44, reference=1e-300), overflow_problem()]
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(solvable_problem, long_path_problem, one_unknown_problem), seeds)
def test_estimation_error_matches_prefix_sum(problem, seed):
    prepared = preprocess(problem).problem
    rng = random.Random(seed)
    mu = WeightVector(tuple(math.exp(rng.uniform(-3.0, 3.0)) for _ in range(prepared.n)))
    if prepared.unknown_indices:
        assert estimation_error(prepared, mu) == estimation_error_prefix_sum(prepared, mu)


# candidate rows for the best iterate: weights, or weights with one value missing, too small or infinite, or
# a copy of an earlier row (a tie)
candidate_kinds = st.lists(st.sampled_from(["weights", "nan", "low", "inf", "tie"]), max_size=12)


@settings(max_examples=100, deadline=None)
@given(st.one_of(solvable_problem, one_unknown_problem), candidate_kinds, seeds, st.sampled_from([1, 300, SCAN_BLOCK, 1 << 16]))
def test_best_iterate_scores_match_estimation_error(problem, kinds, seed, block):
    prepared = preprocess(problem).problem
    rng = random.Random(seed)
    low = ADMISSIBLE_TOL * max(prepared.references.values())
    rows = []
    for kind in kinds:
        row = [prepared.references.get(i, math.exp(rng.uniform(-3.0, 3.0))) for i in range(1, prepared.n + 1)]
        if kind == "tie" and rows:
            row = list(rows[rng.randrange(len(rows))])
        elif kind in ("nan", "low", "inf"):
            row[rng.randrange(prepared.n)] = {"nan": math.nan, "low": rng.choice([low, 0.0, -1.0]), "inf": math.inf}[kind]
        rows.append(row)
    iterates = np.array(rows).reshape(len(rows), prepared.n)
    admissible = [row for row in rows if all(low < v < math.inf for v in row)]
    errors = [estimation_error(prepared, WeightVector(row))[1] for row in admissible]
    with patch.object(diagnostics, "SCAN_BLOCK", block):  # small blocks: one or a few rows per block
        if prepared.unknown_indices:
            assert _errors(prepared, np.array(admissible).reshape(-1, prepared.n))[1].tolist() == errors
        if not admissible:
            with pytest.raises(SolveFailedError):
                select_best_iterate(iterates, prepared)
        else:
            # the earliest of the rows with the least error, as scoring one row at a time finds it
            weights, error = select_best_iterate(iterates, prepared)
            assert weights.values == tuple(admissible[errors.index(min(errors))]) and error == min(errors)


@settings(max_examples=100, deadline=None)
@given(st.one_of(solvable_problem, long_path_problem, one_unknown_problem, diverging_problem), st.integers(1, 300))
@example(graph_problem(1, 40, "ring", 0.3, 1), 300)
@example(graph_problem(2, 40, "tree", 0.3, 3), 300)
# Once every concept has an estimate the steps run in blocks of 2, 4, 8, 16 and 32, then in blocks sized
# to the cut (64 steps while the change does not shrink), and are tested block by block; these runs end on
# the first, the last and a middle step of a block.
@example(graph_problem(1, 10, "tree", 0.1, 1), 300)  # converges on the first step of a block of 2
@example(random_problem(2, 10, 0.5, 1.0, 3), 300)  # converges on the last step of a block of 32
@example(graph_problem(27, 12, "ring", 0.1, 1), 300)  # converges on the first step of a block of 8, after one of 64 (133)
@example(graph_problem(6, 10, "ring", 0.1, 1), 300)  # converges on the last step of a block of 22 (89)
@example(graph_problem(1, 10, "ring", 0.1, 1), 300)  # converges on step 23 of a block of 25 (90)
@example(diverging_incomplete_problem(16.0, 1e254), 1000)  # overflows on the first step of a block of 64 (65)
@example(diverging_incomplete_problem(16.0, 1e201), 1000)  # overflows on the last step of a block of 64 (128)
@example(diverging_incomplete_problem(16.0, 1e223), 1000)  # overflows on step 38 of a block of 64 (102)
# Budgets: one step has an estimate for every concept, then a block of 2 runs part, all and one past
@example(random_problem(2, 10, 0.5, 1.0, 3), 1)
@example(random_problem(2, 10, 0.5, 1.0, 3), 2)
@example(random_problem(2, 10, 0.5, 1.0, 3), 3)
@example(random_problem(2, 10, 0.5, 1.0, 3), 4)
@example(graph_problem(1, 40, "ring", 0.3, 1), 27)  # 20 filling steps, blocks of 2 and 4, one step of 8
@example(*FMA_EXAMPLE)  # fails where the step fuses multiply and add; see test_fma_example_is_fma_sensitive
def test_jacobi_iterates_match_loop(problem, steps):
    prepared = preprocess(problem).problem
    run = jacobi_iterate(prepared, steps)
    iterates, converged, diverged = jacobi_loop(prepared, steps, JACOBI_STOP_TOL)
    assert (run.converged, run.diverged) == (converged, diverged)
    assert run.iterates == tuple(iterates)  # bit for bit: the same additions in the same order


# any finite float: zeros of both signs, negatives, subnormals and values whose products overflow
step_operands = st.integers(1, 120).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.float64, (n, n), elements=st.floats(allow_nan=False, allow_infinity=False)),
        hnp.arrays(np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False)),
    )
)


@settings(max_examples=100, deadline=None)
@given(step_operands, st.integers(0, 2))
@example((np.zeros((1, 1)), np.array([-0.0])), 0)
@example((np.array([[2.0, 0.0], [1e308, -0.0]]), np.array([1e308, -3.0])), 1)  # inf + -inf: a NaN sum
@example((np.full((120, 120), -1e-3), np.linspace(-1e300, 1e300, 120)), 2)
def test_step_kernel_matches_einsum(operands, row):
    # the Jacobi step writes c_einsum into a row of its iterate buffer; it must give np.einsum's bits
    ratios_t, current = operands
    buffer = np.full((3, len(current)), 7.0)
    with np.errstate(all="ignore"):
        c_einsum("ij,i->j", ratios_t, current, out=buffer[row])
        expected = np.einsum("ij,i->j", ratios_t, current)
    assert buffer[row].tobytes() == expected.tobytes()
    assert (np.delete(buffer, row, axis=0) == 7.0).all()


def test_fma_example_is_fma_sensitive():
    # the Jacobi step's sum of products must round each product and each sum; this keeps the example a tripwire
    problem, steps = FMA_EXAMPLE
    prepared = preprocess(problem).problem
    plain = jacobi_loop(prepared, steps, JACOBI_STOP_TOL)
    fused = jacobi_loop(prepared, steps, JACOBI_STOP_TOL, fused=True)
    assert len(plain[0]) == steps and plain[0] != fused[0]


# reachable incomplete requests: half the pairs missing around a chain that keeps the graph connected, rings, trees
incomplete_request = st.one_of(
    st.builds(random_problem, seed=seeds, n=st.integers(3, 60), missing=st.just(0.5), noise=st.floats(0.0, 0.5),
              references=st.integers(1, 3)),
    st.builds(graph_problem, seed=seeds, n=st.integers(3, 60), shape=st.sampled_from(["ring", "tree"]),
              noise=st.floats(0.0, 0.5), references=st.integers(1, 3)),
)


def _answer(problem, window):
    """`hre_rank`'s outcome with its weights and error as bytes, or the message of its SolveFailedError."""
    try:
        outcome = hre_rank(problem, max_iterations=window)
    except SolveFailedError as exc:
        return str(exc)
    bits = np.array([*outcome.weights_raw.values, outcome.error]).tobytes()
    return outcome._replace(weights_raw=bits, error=None, iterations_used=None)


@settings(max_examples=100, deadline=None)
@given(incomplete_request, st.sampled_from([1, 10, 40]))
@example(random_problem(0, 30, 0.5, 0.5, 1), 10)  # stopped after 16 steps
@example(random_problem(2, 40, 0.5, 0.3, 1), 40)  # stopped after 64 steps, past the window's 40 rows
def test_stopped_jacobi_run_could_not_converge(problem, window):
    prepared = preprocess(problem).problem
    if not prepared.unknown_indices:
        return
    run = jacobi_iterate(prepared, JACOBI_MAX_ITER, window)
    with patch.object(hre_solver, "_never_converges", lambda *args: False):  # the run without the certificate
        full = jacobi_iterate(prepared, JACOBI_MAX_ITER, window)
        expected = _answer(problem, window)
    assert run.array.tobytes() == full.array[: len(run.array)].tobytes()
    if len(run.array) == len(full.array):
        assert (run.converged, run.diverged) == (full.converged, full.diverged)
    else:  # stopped: the full run never converges, and the answer is the same to the bit
        assert not (run.converged or run.diverged or full.converged)
        assert _answer(problem, window) == expected


# every ratio specified, with 1, 3 or n - 1 references
complete_problem = sizes.flatmap(
    lambda n: st.builds(
        random_problem, seed=seeds, n=st.just(n), missing=st.just(0.0), noise=noise,
        references=st.sampled_from([1, min(3, n - 1), n - 1]),
    )
)


@settings(max_examples=100, deadline=None)
@given(complete_problem)
def test_systems_match_loop(problem):
    prepared = preprocess(problem).problem
    system = build_system(prepared)
    assert [system.a.tolist(), system.b.tolist()] == list(build_system_loop(prepared))
    error = build_error_system(prepared)
    a, b, s_values = build_error_system_loop(prepared)
    assert (error.system.a.tolist(), error.system.b.tolist(), list(error.s_values)) == (a, b, s_values)
    for built in (system, error.system):
        assert check_convergence(built) == check_convergence_loop(built)


@settings(max_examples=100, deadline=None)
@given(complete_problem)
def test_least_squares_normal_matrix_is_positive_definite(problem):
    # `min_error_solver`'s theorem: the least eigenvalue is at least r / (n - 1), so the stationary point is the minimum
    prepared = preprocess(problem).problem
    eigenvalues = np.linalg.eigvalsh(build_error_system(prepared).system.a)
    bound = len(prepared.references) / (prepared.n - 1)
    assert eigenvalues[0] >= bound - 1e-12 * np.abs(eigenvalues).max()


judgments = st.one_of(
    st.none(),
    st.just(1.0),
    st.sampled_from([0.25, 1 / 3, 0.5, 2.0, 3.0, 4.0]),
    st.floats(0.1, 10.0).map(lambda v: round(v, 1)),  # rounding makes ties
)
cop_weights = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e-300, 1e300]), st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(seeds, sizes, st.integers(1, 3), st.floats(0.0, 1.5))
@example(1, 40, 1, 0.6)  # fires
def test_spectral_certificate_fires_only_where_the_direct_solution_is_not_positive(seed, n, references, level):
    prepared = preprocess(random_problem(seed, n, 0.0, level, min(references, n - 1))).problem
    system = build_system(prepared)
    if _above_one(system):
        with pytest.raises(InadmissibleSolutionError):
            synthesize(solve_linear(system), prepared)


@st.composite
def cop_inputs(draw):
    n = draw(st.integers(2, 12))
    grid = draw(st.lists(st.lists(judgments, min_size=n, max_size=n), min_size=n, max_size=n))
    weights = draw(st.lists(cop_weights, min_size=n, max_size=n))
    return PcMatrix(grid), WeightVector(tuple(weights))


@settings(max_examples=150, deadline=None)
@given(cop_inputs(), st.sampled_from([1, 7, 64, SCAN_BLOCK, 1 << 16]))
def test_cop_report_matches_loop(inputs, block):
    matrix, mu = inputs
    with patch.object(diagnostics, "SCAN_BLOCK", block):  # small blocks: many blocks per scan
        assert cop_check(matrix, mu) == cop_check_loop(matrix, mu)


# one-, two- and three-digit concept indices
concepts = st.one_of(st.integers(1, 9), st.integers(10, 99), st.integers(100, 999))
quadruples = st.tuples(concepts, concepts, concepts, concepts)
pop_violations = quadruples.flatmap(
    lambda q: st.sampled_from([(q[:2],), (q[2:],), (q[:2], q[2:])]).map(lambda failed: PopViolation(q, failed))
)
poip_violations = st.builds(PoipViolation, quadruples, st.floats(), st.floats())
cop_reports = st.builds(
    cop_report,
    st.lists(pop_violations, max_size=5).map(tuple),
    st.lists(poip_violations, max_size=5).map(tuple),
    st.integers(0, 10**9),
)
# mu_1 / mu_2 = 1e600 overflows to inf: json writes Infinity
OVERFLOW_INPUT = (PcMatrix([[1.0, 2.0, 3.0], [0.5, 1.0, 4.0], [1 / 3, 0.25, 1.0]]),
                  WeightVector((1e300, 1e-300, 1.0)))
OVERFLOW_REPORT = cop_check(*OVERFLOW_INPUT)


# violations per chunk: one, two and three per chunk split a report's rows at every place
chunks = st.sampled_from([1, 2, 3, cop_writer.CHUNK])


def emitted(write, report, chunk=cop_writer.CHUNK) -> str:
    """The text a cop writer emits for the report, chunk violations at a time."""
    out = io.StringIO()
    with patch.object(cop_writer, "CHUNK", chunk):
        write(report, out)
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(cop_reports, chunks)
@example(cop_report((), (), 0), cop_writer.CHUNK)
@example(OVERFLOW_REPORT, cop_writer.CHUNK)
def test_cop_json_matches_json_dumps(report, chunk):
    # as print writes it: the json text and exactly one newline
    assert emitted(write_json, report, chunk) == json.dumps(cop_payload(report), indent=2) + "\n"


def test_overflow_report_has_an_infinite_ratio():
    assert any(math.inf in (v.lhs, v.rhs) for v in OVERFLOW_REPORT.poip_violations)
    assert "Infinity" in emitted(write_json, OVERFLOW_REPORT)


@settings(max_examples=150, deadline=None)
@given(cop_inputs(), chunks)
@example(OVERFLOW_INPUT, cop_writer.CHUNK)
def test_cop_renderers_match_oracles_on_checked_reports(inputs, chunk):
    report = cop_check(*inputs)
    assert emitted(write_json, report, chunk) == cop_json_oracle(report) + "\n"
    assert emitted(write_text, report, chunk) == cop_text_oracle(report) + "\n"


# ±0.0, NaN, ±inf, subnormals and ordinary values, drawn into a small pool so that values repeat
special_ratios = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(),
)


@st.composite
def special_cop_parts(draw):
    """(pop, poip, checked) tuples whose lhs/rhs come from a small pool of special values."""
    ratios = st.sampled_from(draw(st.lists(special_ratios, min_size=1, max_size=4)))
    pop = draw(st.lists(pop_violations, max_size=8))
    poip = draw(st.lists(st.builds(PoipViolation, quadruples, ratios, ratios), max_size=8))
    return tuple(pop), tuple(poip), draw(st.integers(0, 10**9))


special_cop_reports = special_cop_parts().map(lambda parts: cop_report(*parts))


@settings(max_examples=200, deadline=None)
@given(special_cop_reports, chunks)
@example(cop_report((), (), 0), cop_writer.CHUNK)
@example(cop_report((), (PoipViolation((1, 2, 3, 4), 0.0, -0.0), PoipViolation((4, 3, 2, 1), -0.0, 0.0)), 2), 1)
def test_cop_renderers_match_oracles_on_arbitrary_reports(report, chunk):
    assert emitted(write_json, report, chunk) == cop_json_oracle(report) + "\n"
    assert emitted(write_text, report, chunk) == cop_text_oracle(report) + "\n"


@settings(max_examples=150, deadline=None)
@given(special_cop_parts())
def test_cop_report_round_trips_its_tuples(parts):
    pop, poip, checked = parts
    report = cop_report(pop, poip, checked)
    assert report.pop_violations == pop
    assert repr(report.poip_violations) == repr(poip)  # == cannot tell -0.0 from 0.0, nor NaN from itself
    assert report.quadruples_checked == checked


tokens = st.one_of(
    st.sampled_from(["1", "2.5", "1/3", "3/0", "0/0", "1.5/2.5", "2/", "/2", "1//2", "?", "??", "nan", "-NaN",
                     "inf", "-1", "0", "1e3", "1_0", "+4", "0x10", "abc", "ref", "\u0663", "\u0663/\u0664"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
)
separators = st.sampled_from([" ", "  ", "\t", ",", " , ", "\u00a0", "\u2003", "\x1f"])
size_lines = st.sampled_from(["{n}", "{n} # size", " {n}", "{n} {n}", "x", "1", ""])
ref_lines = st.sampled_from(["ref 1 2", "ref 2 0.5", "ref 1", "ref x 2", "ref 9 1", "ref 1 -2", "ref 1 inf",
                             "ref 1 1/2", "ref 1 2 3", "foo 1 2", "# ref 1 2"])


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(1, 4))
    lines = [draw(size_lines).format(n=n)]
    for _ in range(draw(st.integers(0, n + 2))):
        count = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        line = "".join(draw(separators) + token for token in draw(st.lists(tokens, min_size=count, max_size=count)))
        lines.append(line + draw(st.sampled_from(["", "", " # note", "#x"])))
    lines += draw(st.lists(ref_lines, max_size=3))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), matrix_texts()))
@example("3\n1 2 4\n1/2 1 2\n1/4 1/2 1\nref 1 1.0\n")
@example("2\n1 nan\n1 1\n")
@example("2\n1,  3/0 # c\n1 1\n")
@example("2\n1 ??\n1 1\n")
# a row is converted in one float() call; these rows fall back to token by token
@example("3\n1 2 4\n? 1 2\n1/4 1/2 1\n")
@example("3\nnan 2 4\n0.5 1 2\n0.25 0.5 1\n")
@example("3\n1 2 4\n0.5 NaN 2\n0.25 0.5 1\n")
@example("3\n1 2 4\n0.5 1 2\n0.25 0.5 -nan # c\n")
@example("3\n1 inf -inf\n0.5 1 2\n0.25 0.5 1\n")
@example("3\n1 1_0 4\n\u0660.\u0665 1 \u0662\n0.25 inf 1\n")
@example("3\n1 2 4\n0.5 1\n0.25 0.5 1\n")
@example(f"2\n1 {'9' * 400}/{'9' * 400}\n1 1\n")  # inf/inf: a NaN entry, refused by value
def test_parser_matches_oracle(text):
    assert parsed(parse_matrix, text) == parsed(parse_matrix_oracle, text)


SINGULAR_KINDS = st.sampled_from(["", "repeat", "near", "tiny", "nonfinite"])


def random_system(k: int, seed: int, shift: float, singular: str) -> LinearSystem:
    """Gaussian k x k system with ``shift`` added on the diagonal.

    ``singular``: "repeat" repeats the first row last (one small pivot),
    "near" repeats it up to 1e-10 (a pivot that passes, a residual that
    fails), "tiny" scales every entry by 1e-14 (every pivot small),
    "nonfinite" makes one constant inf (a residual that is not a number).
    """
    rng = random.Random(seed)
    a = [[rng.gauss(0.0, 1.0) + (shift if i == j else 0.0) for j in range(k)] for i in range(k)]
    if singular == "repeat" and k > 1:
        a[-1] = list(a[0])
    elif singular == "near" and k > 1:
        a[-1] = [v + 1e-10 * rng.gauss(0.0, 1.0) for v in a[0]]
    elif singular == "tiny":
        a = [[v * 1e-14 for v in row] for row in a]
    b = [rng.gauss(0.0, 1.0) for _ in range(k)]
    if singular == "nonfinite":
        b[rng.randrange(k)] = math.inf
    return LinearSystem(tuple(map(tuple, a)), tuple(b))


def solved_bits(solve, system):
    """A solution as the hex of each value, or the SingularSystemError message."""
    try:
        result = solve(system)
    except SingularSystemError as exc:
        return str(exc)
    return tuple(v.hex() for v in result)


def stacked_bits(result):
    return str(result) if isinstance(result, SingularSystemError) else tuple(v.hex() for v in result)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), seeds, st.sampled_from([0.0, 1.0, 30.0]), SINGULAR_KINDS)
@example(LAPACK_MIN_K - 1, 5, 1.0, "")  # the largest size the elimination solves
@example(LAPACK_MIN_K - 1, 6, 30.0, "near")
def test_solve_linear_matches_oracle(k, seed, shift, singular):
    system = random_system(k, seed, shift, singular)
    results = []
    for solve in (solve_linear, solve_linear_oracle):
        try:
            results.append(solve(system))
        except SingularSystemError as exc:  # the same message
            results.append(str(exc))
    # an inf constant is refused by name before eliminating; `_solved` still eliminates it (next test)
    assert results[0] == (results[1] if singular != "nonfinite" else "linear system leaves the float range")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 30),
    st.lists(st.tuples(seeds, st.sampled_from([0.0, 1.0, 30.0]), SINGULAR_KINDS), min_size=1, max_size=8),
)
@example(4, [(1, 0.0, "repeat"), (2, 0.0, ""), (3, 30.0, "tiny"), (4, 0.0, "near")])
def test_stacked_solves_match_oracle(k, members):
    systems = [random_system(k, seed, shift, singular) for seed, shift, singular in members]
    stacked = [stacked_bits(result) for result in solve_stack(systems)]
    assert stacked == [solved_bits(solve_linear_oracle, system) for system in systems]
    # without its singular members a stack solves its other members to the same bits
    kept = [i for i, result in enumerate(stacked) if isinstance(result, tuple)]
    assert [stacked_bits(result) for result in solve_stack([systems[i] for i in kept])] == [stacked[i] for i in kept]


@settings(max_examples=50, deadline=None)
@given(st.integers(LAPACK_MIN_K, 110), seeds, st.sampled_from([1.0, 30.0]))
def test_large_solves_match_oracle(k, seed, shift):
    # LAPACK and the elimination each err by about k eps times the condition number; at shift 30 that is below 1e-12
    system = random_system(k, seed, shift, "")
    solved, expected = np.array(solve_linear(system)), np.array(solve_linear_oracle(system))
    tolerance = k * np.finfo(float).eps * np.linalg.cond(system.a, np.inf)
    assert np.abs(solved - expected).max() <= tolerance * np.abs(expected).max()
    if shift == 30.0:
        assert np.abs(solved - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=50, deadline=None)
@given(st.integers(LAPACK_MIN_K, 110), seeds, SINGULAR_KINDS)
def test_large_solves_refuse_or_pass_the_residual_bound(k, seed, singular):
    # each kind's outcome from LAPACK_MIN_K on, on well-conditioned systems (shift 30)
    system = random_system(k, seed, 30.0, singular)
    try:
        solved = np.array(solve_linear(system))
    except SingularSystemError as exc:
        outcome = str(exc)
    else:
        residual = np.abs(system.a @ solved - system.b).max()
        assert residual <= RESIDUAL_TOL * (1.0 + np.abs(system.b).max())
        outcome = "solved"
    if singular in ("", "tiny"):  # every entry of "tiny" is below PIVOT_TOL: the elimination refuses it
        assert outcome == "solved"
    elif singular == "near":
        assert outcome.startswith("solution residual ")
    elif singular == "repeat":  # rounding leaves the repeated row's pivot exactly 0 or tiny
        assert outcome.startswith("solution residual ") or outcome.startswith("exactly singular LAPACK factorization")
    else:
        assert outcome == "linear system leaves the float range"
    if singular == "tiny":
        with pytest.raises(SingularSystemError, match="below tolerance"):
            solve_linear_oracle(system)


@st.composite
def experiment_configs(draw):
    n = draw(st.integers(3, 12))
    # 300, 700 and 709.78 push entries out of the float range, or near its edge, so `validate` refuses some levels
    level = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.5, 6.0), st.sampled_from([300.0, 700.0, 709.78]))
    return ExperimentConfig(
        n=n,
        trials=draw(st.integers(1, 4)),
        noise_levels=tuple(draw(st.lists(level, min_size=1, max_size=4))),
        reference_count=draw(st.integers(1, n - 1)),
        seed=draw(st.integers(0, 10**6)),
    )


@settings(max_examples=60, deadline=None)
@given(experiment_configs())
@example(ExperimentConfig(n=6, trials=3, noise_levels=(0.0, 0.5, 2.0, 6.0), reference_count=2, seed=4))
@example(ExperimentConfig(n=6, trials=3, noise_levels=(0.3, 709.78, 0.0, 300.0), reference_count=2, seed=4))
@example(ExperimentConfig(n=6, trials=3, noise_levels=(0.3, 709.78, 0.0, 300.0), reference_count=2, seed=34))  # refused
def test_run_experiment_matches_one_system_at_a_time(config):
    assert repr(run_experiment(config)) == repr(run_experiment_oracle(config))


# entries a stack may hold beside noisy ratios: non-positive, infinite, subnormal,
# extreme (set with their exact inverse across the diagonal), missing, and off-1 diagonals
STACK_SPECIALS = (0.0, -1.0, math.inf, 5e-324, 1e300, 1e-300, 1e308, math.nan, 1.0 + 1e-9, 2.0)


@st.composite
def matrix_stacks(draw):
    """1-5 matrices of one size n in 3..12, each drawn on its own, and a reference set."""
    n, count = draw(st.integers(3, 12)), draw(st.integers(1, 5))
    rng = random.Random(draw(seeds))
    missing, specials = draw(st.sampled_from([0.0, 0.0, 0.3])), draw(st.sampled_from([0, 0, 1, 3]))
    stack = np.ones((count, n, n))
    for grid in stack:
        weights = [math.exp(rng.uniform(-2, 2)) for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                grid[i, j] = weights[i] / weights[j] * math.exp(rng.uniform(-1, 1))
                grid[j, i] = 1.0 / grid[i, j] if rng.random() < 0.8 else weights[j] / weights[i]
                if rng.random() < missing:
                    grid[i, j] = math.nan
                    if rng.random() < 0.5:
                        grid[j, i] = math.nan
        for _ in range(specials):
            i, j = rng.randrange(n), rng.randrange(n)
            grid[i, j] = rng.choice(STACK_SPECIALS)
            if i != j and grid[i, j] in (1e300, 1e-300):
                grid[j, i] = 1.0 / grid[i, j]
    stack.flags.writeable = False
    chosen = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
    return stack, {c: math.exp(rng.uniform(-2, 2)) for c in chosen}


def bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


# a matrix with a missing pair (1,3) and half-specified pairs (2,4) and (3,4), then a complete one: perturb skips
# the unspecified upper entries and inverts the specified ones
MISSING_PAIRS_STACK = np.array([
    [[1.0, 2.0, math.nan, 0.25], [0.5, 1.0, 3.0, math.nan], [math.nan, 1 / 3, 1.0, 5.0], [4.0, 8.0, math.nan, 1.0]],
    [[1.0, 2.0, 3.0, 0.25], [0.5, 1.0, 3.0, 4.0], [1 / 3, 1 / 3, 1.0, 5.0], [4.0, 0.25, 0.2, 1.0]],
])
MISSING_PAIRS_STACK.flags.writeable = False


@settings(max_examples=150, deadline=None)
@given(matrix_stacks(), st.lists(st.sampled_from([0.0, 0.3, 1.0, 6.0, 300.0, 700.0, 709.78]), min_size=1, max_size=5),
       seeds)
@example((MISSING_PAIRS_STACK, {1: 1.0}), (0.0, 709.78), 7)
def test_stacked_kernels_match_their_one_matrix_functions(inputs, levels, seed):
    stack, references = inputs
    matrices = [PcMatrix._from_array(one.copy()) for one in stack]
    # one draw per entry serves every level: each slice is `perturb` alone, and `random.uniform` entry by entry
    for level, one in zip(levels, _perturbed(matrices[0], levels, seed)):
        alone = perturb(matrices[0], level, seed).array
        assert bits(one) == bits(alone) == bits(perturb_loop(matrices[0], level, seed))
    bad, restored, scans = _bad_entries(stack), _restored(stack), _triad_scans(stack)
    for i, matrix in enumerate(matrices):
        flagged = [issue.location for issue in validate(Problem(matrix)).issues if issue.category == "nonpositive-entry"]
        assert flagged == [f"({r + 1},{c + 1})" for r, c in np.argwhere(bad[i]).tolist()]
        assert bits(restored[i]) == bits(restore_reciprocity(matrix).array)
        assert repr(scans[i]) == repr(_triad_scans(matrix.array)[0])
    complete = [i for i, matrix in enumerate(matrices) if matrix.is_complete()]
    if not complete:
        return
    # unfilled: the systems never read the reference-to-reference entries that the fill overwrites
    parts = _parts(stack[complete], references)
    averaging, (normal, s_values) = _averaging(*parts[::2]), _normal(*parts[::2])
    systems = []
    for row, i in enumerate(complete):
        problem = fill_known_ratios(Problem(matrices[i], references))[0]
        assert [bits(part[row]) for part in parts] == [bits(part) for part in _system_parts(problem)]
        system, error = build_system(problem), build_error_system(problem)
        assert bits(averaging[row]) == bits(system.a) and bits(normal[row]) == bits(error.system.a)
        assert bits(s_values[row]) == bits(np.array(error.s_values))
        systems += [system, error.system]
    coefficients = np.stack((averaging, normal), axis=1).reshape(len(systems), *averaging.shape[1:])
    stacked = stack_results(*_solved(coefficients, np.repeat(parts[1], 2, axis=0)))
    assert [stacked_bits(result) for result in stacked] == [stacked_bits(result) for result in solve_stack(systems)]


@st.composite
def overwritten_reference_pairs(draw):
    """A trial's repaired stack at 1-4 noise levels, 1-4 references, and any values (NaN and +-inf included)
    for every entry between two references, its diagonal too."""
    n = draw(st.integers(3, 12))
    matrix, weights = generate_consistent(n, draw(seeds))
    levels = draw(st.lists(st.one_of(st.floats(0.0, 6.0), st.sampled_from([300.0, 709.78])), min_size=1, max_size=4))
    known = draw(st.lists(st.integers(1, n), min_size=1, max_size=min(4, n - 1), unique=True))
    stack = _restored(_perturbed(matrix, levels, draw(seeds)))
    values = draw(hnp.arrays(float, (len(levels), len(known), len(known)), elements=st.floats()))
    return stack, {c: weights[c - 1] for c in known}, values


@settings(max_examples=100, deadline=None)
@given(overwritten_reference_pairs())
def test_system_parts_never_read_reference_pairs(inputs):
    # `run_experiment` builds its systems from the unfilled stack on the strength of this
    stack, references, values = inputs
    known = [c - 1 for c in references]
    overwritten = stack.copy()
    overwritten[np.ix_(range(len(stack)), known, known)] = values
    assert [bits(part) for part in _parts(overwritten, references)] == [bits(part) for part in _parts(stack, references)]


@st.composite
def reference_pair_forms(draw):
    """A reachable problem (complete, half missing or a ring) with 2-4 references, in three forms that differ only
    between two references: those ratios missing both ways, the ones the references define, and arbitrary ones."""
    n, seed, pattern = draw(st.integers(3, 14)), draw(seeds), draw(st.sampled_from(["complete", "half", "ring"]))
    level = draw(st.floats(0.0, 3.0))  # from about 1 on, some direct solves fail and some runs diverge
    count = draw(st.integers(2, min(4, n - 1)))
    if pattern == "ring":
        problem = graph_problem(seed, n, "ring", level, count)
    else:
        problem = random_problem(seed, n, 0.0 if pattern == "complete" else 0.5, level, count)
    weights = problem.references
    pairs = [(i, j) for i in sorted(weights) for j in sorted(weights) if i < j]
    arbitrary = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(pairs), max_size=len(pairs)))
    forms = []
    for values in ([math.nan] * len(pairs), [weights[i] / weights[j] for i, j in pairs], arbitrary):
        grid = problem.matrix.array.copy()
        for (i, j), value in zip(pairs, values):
            grid[i - 1, j - 1], grid[j - 1, i - 1] = value, 1.0 / value
        forms.append(Problem(PcMatrix._from_array(grid), weights))
    return forms


def _result(solve, problem):
    """`solve`'s result with its floats as bytes and without known-known-mismatch warnings, or its exception."""
    try:
        result = solve(problem)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, MinErrorResult):
        return bits(np.array(result.weights_raw.values))
    kept = tuple(w for w in result.warnings if not w.startswith("known-known-mismatch"))
    return result._replace(weights_raw=bits(np.array([*result.weights_raw.values, result.error])), error=None, warnings=kept)


@settings(max_examples=100, deadline=None)
@given(reference_pair_forms())
def test_answers_never_read_reference_pairs(forms):
    # missing, definitional or arbitrary ratios between two references: the same answer, path, flags and warnings
    for solve in (hre_rank, solve_min_error):
        results = [_result(solve, problem) for problem in forms]
        assert results[1:] == results[:-1]


# connected requests: complete, half missing, a ring, or a chain (`random_problem` keeps only the pairs (i, i+1))
scalable_request = st.builds(
    lambda pattern, seed, n, level, count: (
        graph_problem(seed, n, "ring", level, count) if pattern == "ring"
        else random_problem(seed, n, {"complete": 0.0, "half": 0.5, "chain": 1.0}[pattern], level, count)
    ),
    st.sampled_from(["complete", "half", "ring", "chain"]), seeds, sizes, st.floats(0.0, 0.5), st.integers(1, 3),
)


def _scaled_answer(problem, k, solve=hre_rank):
    """`solve`'s weights with every reference times 2**k, after `hre_rank`'s path (None for least squares), or its
    exception type."""
    try:
        result = solve(Problem(problem.matrix, {c: math.ldexp(w, k) for c, w in problem.references.items()}))
    except Exception as exc:
        return type(exc)
    return getattr(result, "path", None), result.weights_raw.values


def _assert_scales(problem, k, solve=hre_rank):
    # every stop and accept test is relative to the references, so a power of two scales every weight exactly
    base, scaled = _scaled_answer(problem, 0, solve), _scaled_answer(problem, k, solve)
    if isinstance(base, type):
        assert scaled is base
    else:
        assert scaled == (base[0], tuple(math.ldexp(v, k) for v in base[1]))


@settings(max_examples=100, deadline=None)
@given(scalable_request, st.integers(-60, 60))
@example(chain_problem(13, 20.0), -40)  # exact weights up to 20**12 = 4.1e15
@example(bench_problem("ring-n30-noise0.1-r1"), 60)
def test_scaling_the_references_scales_the_answer(problem, k):
    _assert_scales(problem, k)


# least squares needs every ratio of an unknown's row, so most requests are complete; the rest keep its refusal
least_squares_request = st.one_of(
    st.builds(random_problem, seed=seeds, n=sizes, missing=st.just(0.0), noise=st.floats(0.0, 0.5),
              references=st.integers(1, 3)),
    scalable_request,
)


@settings(max_examples=100, deadline=None)
@given(least_squares_request, st.integers(-60, 60))
@example(bench_problem("complete-n50-noise0.3-r1"), 60)
@example(bench_problem("half-n30-noise0.1-r3"), -60)  # an incomplete unknown row: the refusal keeps its type
def test_scaling_the_references_scales_the_least_squares_answer(problem, k):
    _assert_scales(problem, k, solve_min_error)


# solved values around every edge of admissibility: zero, negative, tiny, subnormal, non-finite and overflowing sums
solved_values = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -0.0, -1.0, ADMISSIBLE_TOL, 2 * ADMISSIBLE_TOL, 1e-310, 5e-324, math.inf, -math.inf, math.nan, 1e308]),
    st.floats(),
)


@st.composite
def unit_weight_stacks(draw):
    """A stack of 1-6 solved rows for a problem whose references sit anywhere, some of them at a tiny scale.

    Rows mix admissible values, values at every edge of admissibility, large
    values whose sum overflows, and singular systems (``failures`` as
    `_solved` reports them, over whatever values their elimination left).
    With references near 1e-300 a row of large values underflows.
    """
    n = draw(st.integers(3, 12))
    matrix, weights = generate_consistent(n, draw(seeds))
    unit = draw(st.sampled_from([1.0, 1.0, 1e-300]))
    references = {c: unit * weights[c - 1] for c in draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))}
    problem = Problem(matrix, references)
    k = len(problem.unknown_indices)
    rows, failures = [], {}
    for i in range(draw(st.integers(1, 6))):
        scale = draw(st.sampled_from([(1e-3, 1e3), (1e300, 1e308)]))  # the sum of large values may overflow
        row = list(draw(st.tuples(*[st.floats(*scale)] * k)))
        for j in draw(st.sets(st.integers(0, k - 1))):  # some values, maybe none, at an edge of admissibility
            row[j] = draw(solved_values)
        if draw(st.integers(0, 9)) == 0:
            failures[i] = SingularSystemError("pivot below tolerance")
        rows.append(row)
    return np.array(rows, dtype=float), failures, problem


# positive values: ordinary, large enough that a row's sum overflows, and small enough that a weight underflows
unit_values = st.one_of(st.floats(1e-3, 1e3), st.floats(1e300, 1e308), st.floats(5e-324, 1e-300))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(st.lists(unit_values, min_size=n, max_size=n), min_size=1, max_size=6)))
@example([[1.4, 8.5, 7.7, 2.6, 5.0, 4.5, 6.6, 7.9, 1.0, 0.4, 8.4, 1.0]])  # numpy's pairwise sum gives other bits
@example([[1e308, 1e308, 1.0], [1.0, 2.0, 3.0]])  # one row's sum overflows
def test_unit_adds_each_row_left_to_right(rows):
    expected = [unit_loop(row) for row in rows]
    assert [tuple(row) for row in _unit(np.array(rows)).tolist()] == expected
    if min(expected[0]) > 0.0:  # else `WeightVector` refuses the underflowed weight
        assert WeightVector(rows[0]).normalize().values == expected[0]


def unit_rows_outcome(solutions, failures, problem) -> str:
    """`_unit_rows` on the whole stack: each row's weights, None where it does not count, or the error it raises."""
    try:
        unit, counts = _unit_rows(solutions, failures, problem)
    except ValueError as exc:  # a weight that underflowed
        return repr(exc)
    return repr([tuple(row) if ok else None for row, ok in zip(unit.tolist(), counts.tolist())])  # repr keeps every bit


def unit_rows_oracle_outcome(solutions, failures, problem) -> str:
    """`unit_weights_oracle` row by row, in order: the first row that raises decides."""
    try:
        return repr([unit_weights_oracle(failures[i] if i in failures else tuple(row), problem)
                     for i, row in enumerate(solutions.tolist())])
    except ValueError as exc:
        return repr(exc)


def one_row(values, references, n=3):
    return np.array([values], dtype=float), {}, Problem(generate_consistent(n, 1)[0], references)


@settings(max_examples=200, deadline=None)
@given(unit_weight_stacks())
@example(one_row((1e308, 1e308), {1: 1.0}))  # the sum overflows
@example(one_row((1.0, math.inf), {1: 1.0}))
@example(one_row((1.0, ADMISSIBLE_TOL), {1: 1.0}))
@example(one_row((1.0, ADMISSIBLE_TOL), {1: 0.69}))  # above the relative bound
@example(one_row((1.4, 8.5, 7.7, 2.6, 5.0, 4.5, 6.6, 7.9, 1.0, 0.4, 8.4), {1: 1.0}, n=12))  # a pairwise sum: other bits
@example(one_row((1e308, 1.0), {1: 1e-300}))  # the reference's weight underflows
@example((np.array([[1.0, 2.0], [1e308, 1.0], [1e-300, 1e308]]), {},  # rows 2 and 3 underflow: concepts 2 and 1
          Problem(generate_consistent(3, 1)[0], {2: 1e-300})))
@example((np.array([[0.0, 1.0], [1e308, 1e308]]), {1: SingularSystemError("pivot")},
          Problem(generate_consistent(3, 1)[0], {3: 1e-300})))  # a singular row never raises
def test_unit_weights_match_synthesize(inputs):
    assert unit_rows_outcome(*inputs) == unit_rows_oracle_outcome(*inputs)
