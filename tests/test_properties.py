"""Generator-driven checks of the array kernels against their loop references.

Matrices come from `random_problem`: n in 3..40, random missing patterns,
noise levels and 0, 1 or 3 reference concepts.  K, the triad count, the
restored matrix, the validation issues and the Jacobi iterates must match
bit for bit (one example fails if the Jacobi step fuses its multiply-add),
as must the step's kernel, written into a row view, and ``np.einsum``;
the estimation error within 1e-12 relative of the loop and exactly equal
to its prefix-sum form, and the best iterate's stacked scores exactly
equal to it, row by row, with the same winner.  The COP report, the
`cop --json` and text output (against json.dumps and the per-violation oracles), the
parsed problem (or parse error), the linear solve alone and in stacks,
the Monte Carlo records and unit-sum weights must equal their references
exactly, as must the averaging and least-squares systems of complete
problems (1, 3 or n - 1 references) and their dominance tests.  Every
slice of the stacked stage kernels that `run_experiment` runs must equal
the public one-matrix function of that stage bit for bit.
"""

from __future__ import annotations

import json
import math
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hrerank import (
    ExperimentConfig,
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
    koczkodaj_index,
    parse_matrix,
    preprocess,
    run_experiment,
    validate,
)
from hrerank import diagnostics
from hrerank.cli import _cop_json, _cop_text
from hrerank.diagnostics import SCAN_BLOCK, _errors, _triad_scans
from hrerank.hre_solver import (
    ADMISSIBLE_TOL,
    DIVERGENCE_LIMIT,
    JACOBI_STOP_TOL,
    LinearSystem,
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
)
from hrerank.matrix_core import _fatal_masks, _filled, _restored, fill_known_ratios, restore_reciprocity
from hrerank.min_error_solver import _normal, build_error_system
from hrerank.montecarlo import _perturbed, _unit_weights, generate_consistent, perturb

from _support import (
    build_error_system_loop,
    build_system_loop,
    check_convergence_loop,
    cop_check_loop,
    cop_json_oracle,
    cop_payload,
    cop_report,
    cop_text_oracle,
    diverging_incomplete_problem,
    estimation_error_oracle,
    estimation_error_prefix_sum,
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
    triad_scan_loop,
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


# inconsistent triangles diverge after every concept has an estimate, the overflow case in the first step;
# the steep triangle overflows to inf, and then to NaN, a few steps after its divergence is detected
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
@given(st.one_of(solvable_problem, one_unknown_problem), candidate_kinds, seeds, st.sampled_from([1, 300, SCAN_BLOCK]))
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
            assert select_best_iterate(iterates, prepared).values == tuple(admissible[errors.index(min(errors))])


@settings(max_examples=100, deadline=None)
@given(st.one_of(solvable_problem, long_path_problem, one_unknown_problem, diverging_problem), st.integers(1, 300))
@example(graph_problem(1, 40, "ring", 0.3, 1), 300)
@example(graph_problem(2, 40, "tree", 0.3, 3), 300)
# Once every concept has an estimate the steps run in blocks of 2, 4, 8, ... 64 and are tested
# block by block; these runs end on the first, the last and a middle step of a block.
@example(graph_problem(1, 10, "tree", 0.1, 1), 300)  # converges on the first step of a block of 2
@example(random_problem(2, 40, 0.2, 1.0, 3), 1000)  # diverges on the first step of a block of 64
@example(random_problem(2, 10, 0.5, 1.0, 3), 300)  # converges on the last step of a block of 32
@example(random_problem(1, 20, 0.5, 1.0, 1), 1000)  # diverges on the last step of a block of 64
@example(graph_problem(1, 10, "ring", 0.1, 1), 300)  # converges on step 23 of a block of 64
@example(random_problem(2, 10, 0.2, 1.0, 1), 1000)  # diverges on step 38 of a block of 64
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
    iterates, converged, diverged = jacobi_loop(prepared, steps, JACOBI_STOP_TOL, DIVERGENCE_LIMIT)
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
    plain = jacobi_loop(prepared, steps, JACOBI_STOP_TOL, DIVERGENCE_LIMIT)
    fused = jacobi_loop(prepared, steps, JACOBI_STOP_TOL, DIVERGENCE_LIMIT, fused=True)
    assert len(plain[0]) == steps and plain[0] != fused[0]


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
    a, b, s_values, dominant = build_error_system_loop(prepared)
    assert (error.system.a.tolist(), error.system.b.tolist(), list(error.s_values)) == (a, b, s_values)
    assert error.hessian_dominant == dominant
    assert check_convergence(error.system) == (error.hessian_dominant,) * 2
    for built in (system, error.system):
        assert check_convergence(built) == check_convergence_loop(built)


judgments = st.one_of(
    st.none(),
    st.just(1.0),
    st.sampled_from([0.25, 1 / 3, 0.5, 2.0, 3.0, 4.0]),
    st.floats(0.1, 10.0).map(lambda v: round(v, 1)),  # rounding makes ties
)
cop_weights = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e-300, 1e300]), st.floats(1e-3, 1e3))


@st.composite
def cop_inputs(draw):
    n = draw(st.integers(2, 12))
    grid = draw(st.lists(st.lists(judgments, min_size=n, max_size=n), min_size=n, max_size=n))
    weights = draw(st.lists(cop_weights, min_size=n, max_size=n))
    return PcMatrix(grid), WeightVector(tuple(weights))


@settings(max_examples=150, deadline=None)
@given(cop_inputs(), st.sampled_from([1, 7, 64, SCAN_BLOCK]))
def test_cop_report_matches_loop(inputs, block):
    matrix, mu = inputs
    with patch.object(diagnostics, "SCAN_BLOCK", block):  # small blocks: many blocks per scan
        assert cop_check(matrix, mu) == cop_check_loop(matrix, mu)


concepts = st.integers(1, 60)
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


@settings(max_examples=150, deadline=None)
@given(cop_reports)
@example(cop_report((), (), 0))
@example(OVERFLOW_REPORT)
def test_cop_json_matches_json_dumps(report):
    assert _cop_json(report) == json.dumps(cop_payload(report), indent=2)


def test_overflow_report_has_an_infinite_ratio():
    assert any(math.inf in (v.lhs, v.rhs) for v in OVERFLOW_REPORT.poip_violations)
    assert "Infinity" in _cop_json(OVERFLOW_REPORT)


@settings(max_examples=150, deadline=None)
@given(cop_inputs())
@example(OVERFLOW_INPUT)
def test_cop_renderers_match_oracles_on_checked_reports(inputs):
    report = cop_check(*inputs)
    assert _cop_json(report) == cop_json_oracle(report)
    assert _cop_text(report) == cop_text_oracle(report)


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
@given(special_cop_reports)
@example(cop_report((), (), 0))
@example(cop_report((), (PoipViolation((1, 2, 3, 4), 0.0, -0.0), PoipViolation((4, 3, 2, 1), -0.0, 0.0)), 2))
def test_cop_renderers_match_oracles_on_arbitrary_reports(report):
    assert _cop_json(report) == cop_json_oracle(report)
    assert _cop_text(report) == cop_text_oracle(report)


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
    bad, bad_diagonal = _fatal_masks(stack)
    restored, filled, scans = _restored(stack), _filled(stack, references)[0], _triad_scans(stack)
    for i, matrix in enumerate(matrices):
        assert (not bad[i].any() and not bad_diagonal[i].any()) == validate(Problem(matrix)).ok
        assert bits(restored[i]) == bits(restore_reciprocity(matrix).array)
        assert bits(filled[i]) == bits(fill_known_ratios(Problem(matrix, references))[0].matrix.array)
        assert repr(scans[i]) == repr(_triad_scans(matrix.array)[0])
    complete = [i for i, matrix in enumerate(matrices) if matrix.is_complete()]
    if not complete:
        return
    parts = _parts(filled[complete], references)
    averaging, (normal, s_values) = _averaging(*parts[::2]), _normal(*parts[::2])
    systems = []
    for row, i in enumerate(complete):
        problem = Problem(PcMatrix._from_array(filled[i].copy()), references)
        assert [bits(part[row]) for part in parts] == [bits(part) for part in _system_parts(problem)]
        system, error = build_system(problem), build_error_system(problem)
        assert bits(averaging[row]) == bits(system.a) and bits(normal[row]) == bits(error.system.a)
        assert bits(s_values[row]) == bits(np.array(error.s_values))
        systems += [system, error.system]
    coefficients = np.stack((averaging, normal), axis=1).reshape(len(systems), *averaging.shape[1:])
    stacked = _solved(coefficients, np.repeat(parts[1], 2, axis=0))
    assert [stacked_bits(result) for result in stacked] == [stacked_bits(result) for result in solve_stack(systems)]


# solved values around every edge of admissibility: zero, negative, tiny, subnormal, non-finite and overflowing sums
solved_values = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -0.0, -1.0, ADMISSIBLE_TOL, 2 * ADMISSIBLE_TOL, 1e-310, 5e-324, math.inf, -math.inf, math.nan, 1e308]),
    st.floats(),
)


@st.composite
def unit_weight_inputs(draw):
    n = draw(st.integers(3, 12))
    matrix, weights = generate_consistent(n, draw(seeds))
    references = {c: weights[c - 1] for c in draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))}
    problem = Problem(matrix, references)
    if draw(st.integers(0, 9)) == 0:
        return SingularSystemError("pivot below tolerance"), problem
    k = len(problem.unknown_indices)
    scale = draw(st.sampled_from([(1e-3, 1e3), (1e300, 1e308)]))  # the sum of large values may overflow
    solution = list(draw(st.tuples(*[st.floats(*scale)] * k)))
    for i in draw(st.sets(st.integers(0, k - 1))):  # some values, maybe none, at an edge of admissibility
        solution[i] = draw(solved_values)
    return tuple(solution), problem


def unit_weights_outcome(unit_weights, solution, problem) -> str:
    try:
        return repr(unit_weights(solution, problem))  # repr keeps every bit of a finite float
    except ValueError as exc:  # a sum that overflowed or a weight that underflowed
        return repr(exc)


@settings(max_examples=200, deadline=None)
@given(unit_weight_inputs())
@example(((1e308, 1e308), Problem(generate_consistent(3, 1)[0], {1: 1.0})))  # the sum overflows
@example(((1.0, math.inf), Problem(generate_consistent(3, 1)[0], {1: 1.0})))
@example(((1.0, ADMISSIBLE_TOL), Problem(generate_consistent(3, 1)[0], {1: 1.0})))
@example(((1.0, ADMISSIBLE_TOL), Problem(generate_consistent(3, 1)[0], {1: 0.69})))  # above the relative bound
def test_unit_weights_match_synthesize(inputs):
    solution, problem = inputs
    assert unit_weights_outcome(_unit_weights, solution, problem) == unit_weights_outcome(
        unit_weights_oracle, solution, problem
    )
