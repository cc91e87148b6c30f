import math
import random
import warnings
from unittest.mock import patch

import numpy as np
import pytest

from hrerank import (
    IncompleteMatrixError,
    InadmissibleSolutionError,
    PcMatrix,
    Problem,
    SingularSystemError,
    SolveFailedError,
    ValidationError,
    estimation_error,
    hre_rank,
    preprocess,
)
from hrerank import diagnostics, hre_solver, min_error_solver
from hrerank.cli import main
from hrerank.hre_solver import (
    JACOBI_MAX_ITER,
    LAPACK_MIN_K,
    LinearSystem,
    _solved,
    build_system,
    c_einsum,
    check_convergence,
    jacobi_iterate,
    select_best_iterate,
    solve_linear,
    synthesize,
)

from _support import (
    assert_printed,
    assert_vector_printed,
    bench_problem,
    chain_problem,
    consistent_matrix,
    diverging_incomplete_problem,
    entry,
    estimation_error_oracle,
    fill_known_ratios,
    graph_problem,
    inadmissible_direct_problem,
    max_abs_diff,
    max_rel_diff,
    noisy_consistent,
    overflow_problem,
    permute_problem,
    random_problem,
    random_weights,
    singular_direct_problem,
    solve_linear_oracle,
    solve_stack,
    stack_results,
    unpermute,
)


def _prepared(problem):
    prepared, _ = preprocess(problem)
    return prepared


class TestBuildSystem:
    def test_example1(self, example1):
        system = build_system(_prepared(example1))
        printed = [
            ["1", "-0.5", "-1", "-2.25"],
            ["-0.125", "1", "-0.5", "-2"],
            ["-0.062", "-0.125", "1", "-1.75"],
            ["-0.028", "-0.031", "-0.036", "1"],
        ]
        for row, expected in zip(system.a.tolist(), printed):
            assert_vector_printed(row, expected)
        assert_vector_printed(system.b.tolist(), ["0.125", "0.083", "0.05", "0.028"])
        # a few exact values, straight from the entries
        assert system.a.tolist()[0] == [1.0, -0.5, -1.0, -2.25]
        assert system.b.tolist()[0] == 0.125
        assert system.b.tolist()[1] == pytest.approx((1.0 / 3.0) / 4.0, abs=1e-15)

    def test_example2(self, example2):
        system = build_system(_prepared(example2))
        printed = [
            ["1", "-0.156", "-0.125"],
            ["-0.4", "1", "-0.333"],
            ["-0.5", "-0.187", "1"],
        ]
        for row, expected in zip(system.a.tolist(), printed):
            assert_vector_printed(row, expected)
        assert system.b.tolist() == [1.75, 1.0, 0.8125]

    def test_example3_after_restoration(self, example3):
        system = build_system(_prepared(example3))
        third = 1.0 / 3.0
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else -third
                assert system.a.tolist()[i][j] == pytest.approx(expected, abs=1e-12)
        assert_vector_printed(system.b.tolist(), ["0.333", "0.333", "0.471"])
        assert system.b.tolist()[2] == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)

    def test_incomplete_matrix_refused(self, example4):
        with pytest.raises(IncompleteMatrixError):
            build_system(_prepared(example4))

    def test_known_known_gap_closed_by_fill(self):
        # the only missing pair joins two reference concepts: the prepared matrix
        # keeps that gap, and the direct route answers as on the filled matrix
        rows = (
            (1.0, 2.0, 4.0),
            (0.5, 1.0, None),
            (0.25, None, 1.0),
        )
        problem = Problem(PcMatrix(rows), {2: 1.0, 3: 0.5})
        prepared = _prepared(problem)
        assert entry(prepared.matrix, 2, 3) is None and entry(prepared.matrix, 3, 2) is None
        outcome = hre_rank(problem)
        assert outcome.path == "direct"
        filled = hre_rank(fill_known_ratios(problem)[0])
        assert filled.path == "direct"
        assert np.array(outcome.weights_raw.values).tobytes() == np.array(filled.weights_raw.values).tobytes()


class TestLinearSystem:
    def test_tuples_build_read_only_arrays(self):
        system = LinearSystem(((1.0, 2.0), (3.0, 4.0)), (5.0, 6.0))
        assert len(system.b) == 2
        assert system.a.dtype == np.float64 and system.a.shape == (2, 2)
        assert system.a.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert system.b.tolist() == [5.0, 6.0]
        for array in (system.a, system.b):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_caller_arrays_are_copied(self):
        a, b = np.eye(2), np.ones(2)
        system = LinearSystem(a, b)
        assert system.a is not a and system.b is not b
        assert a.flags.writeable and b.flags.writeable
        a[0, 0] = b[0] = 9.0  # still the caller's to change
        assert system.a.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert system.b.tolist() == [1.0, 1.0]

    def test_built_systems_wrap_their_fresh_arrays(self, example1):
        prepared = _prepared(example1)
        built = {}

        def keep(name, make):
            def made(*args):
                built[name] = result = make(*args)
                return result
            return made

        with patch.object(hre_solver, "_averaging", keep("averaging", hre_solver._averaging)), \
                patch.object(min_error_solver, "_normal", keep("normal", min_error_solver._normal)):
            system, error = build_system(prepared), min_error_solver.build_error_system(prepared)
        # the arrays the builders made, not copies of them
        assert system.a is built["averaging"] and error.system.a is built["normal"][0]
        for array in (system.a, system.b, error.system.a, error.system.b):
            assert array.flags.c_contiguous and not array.flags.writeable

    def test_column_major_input_solves_like_tuples(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(12, 12)) + 3.0 * np.eye(12), rng.normal(size=12)
        by_tuples = LinearSystem(tuple(map(tuple, a.tolist())), tuple(b.tolist()))
        by_columns = LinearSystem(np.asfortranarray(a), b)
        assert by_columns.a.flags.c_contiguous
        assert [v.hex() for v in solve_linear(by_columns)] == [v.hex() for v in solve_linear(by_tuples)]

    def test_built_views_match_entry_loop(self, example1, example2, example3):
        for problem in (example1, example2, example3):
            prepared = _prepared(problem)
            system = build_system(prepared)
            assert not system.a.flags.writeable and not system.b.flags.writeable
            m, unknowns = prepared.matrix.entries, prepared.unknown_indices
            scale = 1.0 / (prepared.n - 1)
            coefficients = [[1.0 if u == v else m[u - 1][v - 1] * -scale for v in unknowns] for u in unknowns]
            constants = []
            for u in unknowns:
                total = 0.0
                for c, w in sorted(prepared.references.items()):
                    total = total + m[u - 1][c - 1] * w
                constants.append(total * scale)
            assert system.a.tolist() == coefficients
            assert system.b.tolist() == constants
            assert all(type(v) is float for row in system.a.tolist() for v in row)


class TestSolveSystems:
    """Stacks of systems eliminated together by `_solved`."""

    def test_results_keep_input_order(self):
        systems = [
            LinearSystem(((2.0, 0.0), (0.0, 4.0)), (4.0, 2.0)),
            LinearSystem(((1.0, 1.0), (1.0, 1.0)), (1.0, 2.0)),
            LinearSystem(((0.0, 1.0), (1.0, 0.0)), (5.0, 6.0)),
        ]
        results = solve_stack(systems)
        assert results[0] == (2.0, 0.5) and results[2] == (6.0, 5.0)
        assert isinstance(results[1], SingularSystemError)
        with pytest.raises(SingularSystemError) as raised:
            solve_linear(systems[1])
        assert str(results[1]) == str(raised.value) == "pivot 0.000e+00 in column 2 below tolerance"

    def test_each_system_keeps_its_residual_bound(self):
        # a nearly repeated row: every pivot passes, the residual does not
        rng = random.Random(3)
        a = [[rng.gauss(0.0, 1.0) for _ in range(5)] for _ in range(5)]
        a[-1] = [v + 1e-9 * rng.gauss(0.0, 1.0) for v in a[0]]
        near = LinearSystem(a, [rng.gauss(0.0, 1.0) for _ in range(5)])
        with pytest.raises(SingularSystemError, match="residual"):
            solve_linear(near)
        # a neighbour with large constants has a looser bound, not shared
        loose = LinearSystem(np.eye(5), np.full(5, 1e6))
        results = solve_stack([loose, near])
        assert results[0] == (1e6,) * 5
        assert isinstance(results[1], SingularSystemError) and "residual" in str(results[1])

    def test_stack_layout_keeps_the_bits(self):
        # the same values held column by column are eliminated row-major, as `LinearSystem` holds them
        rng = np.random.default_rng(0)
        a = rng.uniform(-1.0, 1.0, (6, 9, 9)) * np.exp(rng.uniform(-30.0, 30.0, (6, 9, 9)))
        b = rng.uniform(-1.0, 1.0, (6, 9))
        by_columns = np.swapaxes(np.swapaxes(a, 1, 2).copy(), 1, 2)
        assert not by_columns.flags.c_contiguous
        expected = solve_stack([LinearSystem(x, y) for x, y in zip(a, b)])
        stacked = stack_results(*_solved(by_columns, b))
        assert [repr(result) for result in stacked] == [repr(result) for result in expected]

    def test_large_stack_keys_a_singular_member_by_its_index(self):
        # LAPACK solves each member on its own: an exactly singular one fails alone, its row NaN
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, LAPACK_MIN_K, LAPACK_MIN_K)) + 30.0 * np.eye(LAPACK_MIN_K)
        a[1, :, 7] = 0.0  # a zero column: an exactly zero pivot
        b = rng.normal(size=(3, LAPACK_MIN_K))
        solutions, failures = _solved(a, b)
        assert list(failures) == [1]
        assert str(failures[1]) == "exactly singular LAPACK factorization: a pivot is exactly 0"
        assert np.isnan(solutions[1]).all()
        for i in (0, 2):
            assert tuple(solutions[i].tolist()) == solve_linear(LinearSystem(a[i], b[i]))


class TestSolveLinear:
    def test_example2_solution(self, example2):
        solution = solve_linear(build_system(_prepared(example2)))
        assert_vector_printed(solution, ["2.527", "2.88", "2.616"])
        # cross-checked against an independent dense solver (numpy.linalg.solve)
        expected = (2.52764745308311, 2.883378016085791, 2.6169571045576405)
        assert max_abs_diff(solution, expected) <= 1e-9

    def test_identity_system(self):
        system = LinearSystem(((1.0, 0.0), (0.0, 1.0)), (3.0, 4.0))
        assert solve_linear(system) == (3.0, 4.0)

    def test_dependent_rows_are_singular(self):
        system = LinearSystem(((1.0, 1.0), (1.0, 1.0)), (1.0, 2.0))
        with pytest.raises(SingularSystemError):
            solve_linear(system)

    def test_pivoting_handles_zero_diagonal(self):
        system = LinearSystem(((0.0, 1.0), (1.0, 0.0)), (5.0, 6.0))
        assert solve_linear(system) == (6.0, 5.0)

    def test_size_rule_selects_lapack_from_lapack_min_k(self):
        calls = []
        solve = np.linalg.solve

        def counted(*args):
            calls.append(len(args[1]))
            return solve(*args)

        with patch.object(np.linalg, "solve", counted):
            for k in (1, LAPACK_MIN_K - 1, LAPACK_MIN_K, 2 * LAPACK_MIN_K):
                solve_linear(LinearSystem(np.eye(k) + np.tri(k, k, -1) / k, np.arange(1.0, k + 1)))
        assert calls == [LAPACK_MIN_K, 2 * LAPACK_MIN_K]

    @pytest.mark.parametrize("label", ["complete-n100-noise0.3-r1", "complete-n100-noise0.3-r3"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_large_package_systems_agree_with_the_elimination(self, label, seed):
        # both systems of a benchmark request, solved by LAPACK, within 1e-12 relative of the elimination
        prepared = _prepared(bench_problem(label, seed))
        for system in (build_system(prepared), min_error_solver.build_error_system(prepared).system):
            assert len(system.b) >= LAPACK_MIN_K
            assert max_rel_diff(solve_linear(system), solve_linear_oracle(system)) <= 1e-12

    def test_residual_bound_on_random_systems(self):
        rng = random.Random(53)
        for _ in range(100):
            k = rng.randint(1, 6)
            coeff = tuple(
                tuple(rng.uniform(-1, 1) + (3.0 if i == j else 0.0) for j in range(k))
                for i in range(k)
            )
            const = tuple(rng.uniform(-2, 2) for _ in range(k))
            x = solve_linear(LinearSystem(coeff, const))
            residual = max(
                abs(sum(coeff[i][j] * x[j] for j in range(k)) - const[i])
                for i in range(k)
            )
            assert residual <= 1e-9 * (1.0 + max(abs(c) for c in const))


class TestCheckConvergence:
    def test_example1_not_dominant(self, example1):
        # first row off-diagonal magnitudes: 0.5 + 1 + 2.25 = 3.75 > 1
        system = build_system(_prepared(example1))
        assert check_convergence(system) == (False, False)

    def test_example3_dominant(self, example3):
        # every row and column sums to 2/3 off the diagonal
        system = build_system(_prepared(example3))
        assert check_convergence(system) == (True, True)

    def test_example2_dominant(self, example2):
        # rows: 0.281, 0.733, 0.688; columns: 0.9, 0.344, 0.458 - all below 1
        system = build_system(_prepared(example2))
        assert check_convergence(system) == (True, True)

    def test_one_unknown_trivially_dominant(self):
        system = LinearSystem(((1.0,),), (0.5,))
        assert check_convergence(system) == (True, True)

    def test_row_and_column_can_differ(self):
        system = LinearSystem(((1.0, -0.5), (-1.5, 1.0)), (1.0, 1.0))
        assert check_convergence(system) == (False, False)
        system = LinearSystem(((1.0, -0.5), (-0.4, 1.0)), (1.0, 1.0))
        assert check_convergence(system) == (True, True)
        system = LinearSystem(((1.0, -1.2), (-0.4, 1.0)), (1.0, 1.0))
        row, col = check_convergence(system)
        assert not row  # first row sums to 1.2
        assert not col  # second column sums to 1.2


class TestJacobiIterate:
    def test_example1_first_step_uses_references_only(self, example1):
        run = jacobi_iterate(_prepared(example1), 1)
        assert run.iterates[0] == (1.0, 0.5, 1.0 / 3.0, 0.2, 1.0 / 9.0)

    def test_example1_converges_to_direct_solution(self, example1):
        prepared = _prepared(example1)
        run = jacobi_iterate(prepared, 1000)
        assert run.converged and not run.diverged
        direct = solve_linear(build_system(prepared))
        final = run.iterates[-1]
        assert max_abs_diff([final[i - 1] for i in prepared.unknown_indices], direct) <= 1e-8
        total = sum(final)
        assert_vector_printed(
            [v / total for v in final], ["0.368", "0.311", "0.182", "0.11", "0.028"]
        )

    def test_example4_reaches_exact_fixed_point(self, example4):
        prepared = _prepared(example4)
        run = jacobi_iterate(prepared, 1000)
        assert run.converged
        final = run.iterates[-1]
        exact = (1.0, 11.0 / 12.0, 5.0 / 12.0, 3.0 / 8.0)
        assert max_abs_diff(final, exact) <= 1e-12
        # concepts 3 and 4 only acquire estimates once a neighbour has one
        assert run.iterates[0][2] is None
        total = sum(final)
        assert_vector_printed(
            [v / total for v in final], ["0.369", "0.338", "0.154", "0.138"]
        )

    def test_consistent_problem_is_a_fixed_point(self):
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randint(3, 6)
            weights = random_weights(n, rng)
            problem = Problem(consistent_matrix(weights), {1: weights[0], 2: weights[1]})
            run = jacobi_iterate(problem, 50)
            assert run.converged
            assert max_abs_diff(run.iterates[0], weights) <= 1e-12 * max(weights)

    def test_iterates_stay_positive(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randint(3, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.6)
            problem = Problem(matrix, {1: weights[0]})
            run = jacobi_iterate(problem, 25)
            for iterate in run.iterates:
                assert all(v is None or v > 0 for v in iterate)

    def test_divergence_is_cut_off(self):
        prepared = _prepared(diverging_incomplete_problem())
        run = jacobi_iterate(prepared, 1000)
        assert run.diverged and not run.converged
        assert len(run.iterates) < 1000

    def test_overflow_counts_as_divergence(self):
        # 1e300 * 1e10 overflows to inf in the first step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = jacobi_iterate(_prepared(overflow_problem()), 1000)
        assert run.diverged and not run.converged
        assert run.iterates == ((1e10, math.inf),)

    def test_steps_past_a_divergence_are_cut_without_warnings(self):
        # inf from step 15, where 0 * inf makes NaNs in the steps after it: all in one block of steps
        problem = diverging_incomplete_problem(gain=1e44, reference=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = jacobi_iterate(_prepared(problem), 1000)
        assert run.diverged and not run.converged
        assert len(run.array) == 15
        assert np.isfinite(run.array[1:-1]).all() and np.isinf(run.array[-1]).any()
        assert not np.isnan(run.array[-1]).any()

    def test_huge_budget_allocates_only_the_steps_run(self):
        prepared = _prepared(graph_problem(1, 30, "ring", 0.1, 1))
        bounded = jacobi_iterate(prepared, 1000)
        run = jacobi_iterate(prepared, 10**12)  # a max_r x n buffer would raise MemoryError
        assert bounded.converged and (run.converged, run.diverged) == (True, False)
        assert run.array.shape == bounded.array.shape
        assert run.array.tobytes() == bounded.array.tobytes()

    @pytest.mark.parametrize("label", ["half-n50-noise0.3-r3", "half-n50-noise0.1-r3", "half-n100-noise0.1-r3"])
    def test_a_converging_run_stops_at_its_cut(self, label):
        # past the doubling a block runs to where the change, shrinking as it did, passes the test: one step more
        computed = []

        def counting(*args, **kwargs):
            computed.append(1)
            return c_einsum(*args, **kwargs)

        with patch.object(hre_solver, "c_einsum", counting):
            run = jacobi_iterate(_prepared(bench_problem(label)), JACOBI_MAX_ITER, 10)
        assert run.converged and 200 < len(run.array) < JACOBI_MAX_ITER  # cut well past the blocks of 2 ... 32
        assert len(computed) - len(run.array) <= 2

    def test_requires_references(self, example1):
        with pytest.raises(ValueError):
            jacobi_iterate(Problem(example1.matrix), 5)

    def test_array_is_read_only_and_matches_iterates(self, example4):
        run = jacobi_iterate(_prepared(example4), 1000)
        assert run.array.shape == (len(run.iterates), 4)
        with pytest.raises(ValueError):
            run.array[0, 0] = 2.0
        # NaN in the array exactly where the tuple view has None
        assert np.isnan(run.array).tolist() == [[v is None for v in it] for it in run.iterates]
        assert run.iterates == tuple(
            tuple(None if math.isnan(v) else v for v in row.tolist()) for row in run.array
        )

    def test_references_keep_input_bits_in_every_row(self):
        diverging = diverging_incomplete_problem()
        problems = [
            graph_problem(3, 30, "ring", 0.1, 3),
            graph_problem(4, 20, "tree", 0.5, 1),
            Problem(diverging.matrix, {1: 0.1 + 0.2}),
            Problem(PcMatrix(((1.0, 1e-300), (1e300, 1.0))), {1: 1e10 / 3}),
        ]
        diverged = []
        for problem in problems:
            prepared = _prepared(problem)
            run = jacobi_iterate(prepared, 1000)
            assert len(run.array) > 0
            for c, w in prepared.references.items():
                assert {v.hex() for v in run.array[:, c - 1].tolist()} == {w.hex()}
            diverged.append(run.diverged)
        assert diverged == [False, False, True, True]


def best_iterate(iterates, problem):
    """`select_best_iterate`'s winner, after checking that its error is `estimation_error`'s for the winner."""
    weights, error = select_best_iterate(iterates, problem)
    assert error == estimation_error(problem, weights)[1]
    return weights


class TestSelectBestIterate:
    def test_picks_minimal_error(self):
        # two concepts, m(2,1) = 2, reference weight 1: error is |mu2 - 2|
        problem = Problem(PcMatrix(((1.0, 0.5), (2.0, 1.0))), {1: 1.0})
        iterates = ((1.0, 2.4), (1.0, 2.2), (1.0, 2.3))
        assert best_iterate(iterates, problem).values == (1.0, 2.2)

    def test_singleton(self):
        problem = Problem(PcMatrix(((1.0, 0.5), (2.0, 1.0))), {1: 1.0})
        assert best_iterate(((1.0, 5.0),), problem).values == (1.0, 5.0)

    def test_tie_broken_by_earliest(self):
        problem = Problem(PcMatrix(((1.0, 0.5), (2.0, 1.0))), {1: 1.0})
        # same error above and below the fixed point
        chosen = best_iterate(((1.0, 2.5), (1.0, 1.5)), problem)
        assert chosen.values == (1.0, 2.5)

    def test_skips_partial_and_nonpositive(self):
        problem = Problem(PcMatrix(((1.0, 0.5), (2.0, 1.0))), {1: 1.0})
        iterates = ((1.0, None), (1.0, -1.0), (1.0, 9.0))
        assert best_iterate(iterates, problem).values == (1.0, 9.0)

    def test_no_admissible_iterate_fails(self):
        problem = Problem(PcMatrix(((1.0, 0.5), (2.0, 1.0))), {1: 1.0})
        with pytest.raises(SolveFailedError):
            select_best_iterate(((1.0, None),), problem)

    def test_array_rows_with_nan(self):
        problem = Problem(PcMatrix(((1.0, 0.5), (2.0, 1.0))), {1: 1.0})
        rows = np.array([[1.0, np.nan], [1.0, -1.0], [1.0, 9.0], [1.0, np.inf]])
        assert best_iterate(rows, problem).values == (1.0, 9.0)
        with pytest.raises(SolveFailedError):
            select_best_iterate(rows[:2], problem)

    def test_array_and_tuples_agree(self, example1):
        prepared = _prepared(example1)
        run = jacobi_iterate(prepared, 40)
        assert select_best_iterate(run.array, prepared) == select_best_iterate(run.iterates, prepared)

    def test_example1_argmin_matches_oracle(self, example1):
        prepared = _prepared(example1)
        run = jacobi_iterate(prepared, 40)
        errors = [
            estimation_error_oracle(prepared, iterate)[1] for iterate in run.iterates
        ]
        best_index = errors.index(min(errors))
        chosen = best_iterate(run.iterates, prepared)
        assert chosen.values == run.iterates[best_index]


class TestSynthesize:
    def test_example2_interleaving(self, example2):
        raw = synthesize((2.5, 2.9, 2.6), example2)
        assert raw.values == (2.5, 5.0, 7.0, 2.9, 2.6)
        unit = raw.normalize()
        assert unit.normalized
        assert sum(unit.values) == pytest.approx(1.0, abs=1e-12)

    def test_all_concepts_known(self):
        problem = Problem(consistent_matrix((2.0, 4.0)), {1: 2.0, 2: 4.0})
        raw = synthesize((), problem)
        assert raw.values == (2.0, 4.0)
        assert raw.normalize().values == (1.0 / 3.0, 2.0 / 3.0)

    def test_nonpositive_value_rejected(self, example2):
        with pytest.raises(InadmissibleSolutionError):
            synthesize((2.5, -0.1, 2.6), example2)

    def test_wrong_arity_rejected(self, example2):
        with pytest.raises(ValueError):
            synthesize((1.0,), example2)


class TestHreRank:
    @pytest.mark.parametrize("budget", [0, -5])
    def test_iteration_budget_below_one_rejected(self, example4, budget):
        with pytest.raises(ValueError, match="max_iterations"):
            hre_rank(example4, max_iterations=budget)

    def test_prepared_problem_is_not_validated_again(self, example3, monkeypatch):
        from hrerank import hre_solver, matrix_core

        ready = preprocess(example3)
        expected = hre_rank(example3)
        monkeypatch.setattr(matrix_core, "validate", None)  # any call would fail
        outcome = hre_rank(ready)
        assert outcome.weights_raw == expected.weights_raw
        assert outcome.warnings == expected.warnings
        assert hre_solver.preprocess(ready) is ready

    def test_example1_direct(self, example1):
        outcome = hre_rank(example1)
        assert outcome.path == "direct"
        assert outcome.determinant_ok is True
        assert outcome.convergence_ok is False  # not diagonally dominant, yet solvable
        assert outcome.admissible
        assert outcome.iterations_used == 0
        assert_vector_printed(
            outcome.weights_raw.normalize().values, ["0.368", "0.311", "0.182", "0.11", "0.028"]
        )

    def test_example2_direct(self, example2):
        outcome = hre_rank(example2)
        assert outcome.path == "direct"
        assert outcome.convergence_ok is True
        assert_vector_printed(
            outcome.weights_raw.values, ["2.527", "5.0", "7.0", "2.88", "2.616"]
        )
        assert_vector_printed(
            outcome.weights_raw.normalize().values,
            ["0.126", "0.249", "0.349", "0.144", "0.13"],
        )

    def test_example3_restores_then_solves(self, example3):
        outcome = hre_rank(example3)
        assert outcome.path == "direct"
        assert_vector_printed(outcome.weights_raw.normalize().values, ["0.227", "0.25", "0.25", "0.273"])
        assert any("non-reciprocal-pair" in w for w in outcome.warnings)

    def test_example4_iterative(self, example4):
        outcome = hre_rank(example4)
        assert outcome.path == "jacobi"
        assert outcome.iterations_used == 4  # hits the exact fixed point quickly
        assert_vector_printed(outcome.weights_raw.normalize().values, ["0.369", "0.338", "0.154", "0.138"])
        raw = outcome.weights_raw.values
        assert_printed(raw[0] / raw[2], "2.4")
        assert_printed(raw[3] / raw[0], "0.375")

    def test_iterations_used_counts_jacobi_steps(self, example4):
        for problem in (example4, diverging_incomplete_problem(), graph_problem(5, 30, "ring", 0.1, 1)):
            run = jacobi_iterate(_prepared(problem), JACOBI_MAX_ITER)
            assert hre_rank(problem).iterations_used == len(run.array)

    def test_all_concepts_known(self):
        matrix = consistent_matrix((2.0, 4.0, 8.0))
        outcome = hre_rank(Problem(matrix, {1: 2.0, 2: 4.0, 3: 8.0}))
        assert outcome.path == "direct"
        assert outcome.weights_raw.values == (2.0, 4.0, 8.0)
        assert outcome.error == 0.0
        assert outcome.iterations_used == 0

    def test_consistent_exact_recovery(self):
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(3, 6)
            weights = random_weights(n, rng)
            refs = {1: weights[0]}
            outcome = hre_rank(Problem(consistent_matrix(weights), refs))
            assert outcome.path == "direct"
            assert max_abs_diff(outcome.weights_raw.values, weights) <= 1e-9 * max(weights)
            _, mean_error = estimation_error_oracle(
                Problem(consistent_matrix(weights), refs), outcome.weights_raw.values
            )
            assert mean_error <= 1e-9

    def test_singular_system_falls_back_to_min_error(self):
        outcome = hre_rank(singular_direct_problem())
        assert outcome.path == "min-error"
        assert outcome.determinant_ok is False
        assert not outcome.admissible
        # by symmetry of the circulant block the least-squares answer is 1/4 each
        assert max_abs_diff(outcome.weights_raw.values, (0.25, 0.25, 0.25, 1.0)) <= 1e-9

    def test_large_singular_system_is_refused_by_its_residual(self):
        # LAPACK's pivots stay nonzero on the rounded circulant; its solution's residual refuses it
        outcome = hre_rank(singular_direct_problem(k=70))
        assert outcome.path == "min-error"
        assert outcome.determinant_ok is False
        assert len(outcome.warnings) == 1
        assert outcome.warnings[0].startswith("direct solve failed: solution residual")
        assert max_rel_diff(outcome.weights_raw.values[:-1], (outcome.weights_raw.values[0],) * 70) <= 1e-12

    def test_exactly_singular_factorization_walks_the_ladder(self, tmp_path, capsys):
        # LAPACK's error for an exactly zero pivot is a ValueError; each rung gets a SingularSystemError instead
        weights = [1.0 + i / 10 for i in range(130)]
        problem = Problem(consistent_matrix(weights), {i: weights[i - 1] for i in range(1, 65)})  # 66 unknowns
        path = tmp_path / "large.txt"
        path.write_text("\n".join([str(len(weights)), *(" ".join(map(repr, row)) for row in problem.matrix.entries),
                                    *(f"ref {c} {w!r}" for c, w in problem.references.items())]) + "\n")
        failed = "exactly singular LAPACK factorization: a pivot is exactly 0"
        with patch.object(np.linalg, "solve", side_effect=np.linalg.LinAlgError("Singular matrix")):
            outcome = hre_rank(problem)
            assert main(["rank", "--input", str(path), "--method", "min-error"]) == 2
        assert outcome.path == "jacobi"
        assert outcome.determinant_ok is False
        assert outcome.warnings == (f"direct solve failed: {failed}", f"least-squares heuristic failed: {failed}")
        assert max_rel_diff(outcome.weights_raw.values, weights) <= 1e-9
        assert capsys.readouterr().err == f"solver error: {failed}\n"

    def test_inadmissible_direct_falls_back_to_min_error(self):
        outcome = hre_rank(inadmissible_direct_problem())
        assert outcome.path == "min-error"
        assert outcome.determinant_ok is True
        assert not outcome.admissible
        assert any("non-positive" in w for w in outcome.warnings)

    def test_min_error_fallback_matches_solve_min_error(self):
        for problem in (singular_direct_problem(), inadmissible_direct_problem()):
            outcome = hre_rank(problem)
            assert outcome.path == "min-error"
            expected = min_error_solver.solve_min_error(problem)
            assert outcome.weights_raw.values == expected.weights_raw.values
            assert outcome.weights_raw.normalize().values == expected.weights_raw.normalize().values

    def test_complete_route_falls_through_to_jacobi(self):
        # the direct solve fails its residual check; the least-squares squares overflow to inf;
        # the iteration converges to the averaging fixed point (1, 1e200 / 3, 2 / 3)
        outcome = hre_rank(Problem(PcMatrix([[1, 1, 1], [1, 1, 1e200], [1, 1e-200, 1]]), {1: 1.0}))
        assert outcome.path == "jacobi"
        assert outcome.admissible
        assert outcome.determinant_ok is False
        assert outcome.convergence_ok is False
        assert outcome.iterations_used == 36
        assert outcome.weights_raw.values == (1.0, 3.333333333430346e199, 0.6666666666569654)
        assert outcome.warnings == (
            "direct solve failed: solution residual 5.000e-01 exceeds tolerance",
            "least-squares heuristic failed: linear system leaves the float range",
        )

    def test_complete_route_falls_through_to_best_iterate(self):
        # no positive direct solution; the least-squares squares overflow to inf; the iteration
        # overflows on step 3, and its first step, every unknown at 1, scores best
        outcome = hre_rank(singular_direct_problem(1e200))
        assert outcome.path == "best-iterate"
        assert not outcome.admissible
        assert outcome.determinant_ok is None  # `_above_one` skipped the elimination
        assert outcome.convergence_ok is False
        assert outcome.iterations_used == 3
        assert outcome.weights_raw.values == (1.0, 1.0, 1.0, 1.0)
        assert outcome.warnings == (
            "direct solution has non-positive weights",
            "least-squares heuristic failed: linear system leaves the float range",
            "iteration did not converge; selecting the best early iterate",
        )

    def test_divergent_incomplete_takes_best_iterate(self):
        outcome = hre_rank(diverging_incomplete_problem())
        assert outcome.path == "best-iterate"
        assert not outcome.admissible
        assert all(v > 0 for v in outcome.weights_raw.values)

    def test_consistent_chain_answers_its_exact_weights(self):
        # a 13-concept chain whose ratios of 20 carry the estimates up to 20**12 = 4.1e15: consistent,
        # so its 13th step repeats its 12th exactly, at any scale of the reference
        outcome = hre_rank(chain_problem(13, 20.0))
        assert (outcome.path, outcome.iterations_used, outcome.warnings) == ("jacobi", 13, ())
        assert outcome.weights_raw.values == tuple(20.0**i for i in range(13))

    def test_failed_incomplete_ladder_says_why_no_iterate_qualified(self):
        # the same chain with ratios of 1e200 overflows on step 2, before its third concept has an
        # estimate: the run diverges, and neither of its 2 iterates has every estimate
        with pytest.raises(SolveFailedError) as failure:
            hre_rank(chain_problem(6, 1e200))
        assert str(failure.value) == (
            "iteration did not converge; "
            "no admissible iterate among the 2 examined: 2 with a concept still without an estimate"
        )

    def test_slow_ring_selects_from_its_first_complete_iterate(self):
        # the 60-concept ring does not converge, and its first 10 iterates still leave concepts unestimated
        problem = graph_problem(1, 60, "ring", 0.1, 1)
        run = jacobi_iterate(_prepared(problem), JACOBI_MAX_ITER)
        complete = [not np.isnan(row).any() for row in run.array]
        assert not run.converged and not any(complete[:10])
        start = complete.index(True)
        outcome = hre_rank(problem)
        assert outcome.path == "best-iterate"
        assert outcome.warnings == ("iteration did not converge; selecting the best early iterate",)
        weights, error = select_best_iterate(run.array[start : start + 10], _prepared(problem))
        assert outcome.weights_raw == weights and outcome.error == error

    def test_doomed_direct_solve_is_skipped_with_the_same_answer(self, monkeypatch):
        problem = singular_direct_problem(3.0)  # Perron root 10/9: no positive direct solution
        assert hre_solver._above_one(build_system(_prepared(problem)))
        outcome = hre_rank(problem)
        assert outcome.path == "min-error"
        assert outcome.determinant_ok is None  # no elimination was tried
        assert outcome.warnings == ("direct solution has non-positive weights",)
        monkeypatch.setattr(hre_solver, "_above_one", lambda system: False)  # the ladder without the certificate
        eliminated = hre_rank(problem)
        assert eliminated.determinant_ok is True
        assert outcome._replace(determinant_ok=True) == eliminated

    def test_certificate_never_fires_on_the_examples(self, example1, example2, example3):
        for problem in (example1, example2, example3, singular_direct_problem(), inadmissible_direct_problem()):
            assert not hre_solver._above_one(build_system(_prepared(problem)))

    def test_inadmissible_jacobi_limit_takes_best_iterate(self):
        # the limit's second weight settles at 7.5e-10, below 1e-9 times the reference
        # weight; the first iterate's 1.2e-9 is above it
        rows = ((1.0, 1 / 1.2e-9, 1.0, 1.0), (1.2e-9, 1.0, 1e-20, None), (1.0, 1e20, 1.0, 1.0), (1.0, None, 1.0, 1.0))
        for reference in (1.0, 1e-200):
            outcome = hre_rank(Problem(PcMatrix(rows), {1: reference}))
            assert outcome.path == "best-iterate"
            assert not outcome.admissible
            assert max_rel_diff([v / reference for v in outcome.weights_raw.values], (1.0, 1.2e-9, 1.0, 1.0)) <= 1e-12
            assert outcome.warnings == ("iteration limit has non-positive weights; selecting the best early iterate",)

    def test_best_iterate_answer_is_scored_once(self, monkeypatch):
        calls = []

        def counted(problem, w):
            calls.append(len(w))
            return errors(problem, w)

        errors = diagnostics._errors
        monkeypatch.setattr(diagnostics, "_errors", counted)  # the scoring behind `estimation_error`
        monkeypatch.setattr(hre_solver, "_errors", counted)  # the stacked scoring of the candidates
        complete = singular_direct_problem(1e200)
        for problem in (complete, diverging_incomplete_problem(), random_problem(1, 40, 0.5, 0.3, 1)):
            calls.clear()
            outcome = hre_rank(problem)
            assert outcome.path == "best-iterate"
            assert len(calls) == 1
            assert outcome.error == estimation_error(_prepared(problem), outcome.weights_raw)[1]
        calls.clear()
        outcome = hre_rank(graph_problem(1, 10, "ring", 0.1, 1))  # any other path scores its answer once too
        assert outcome.path == "jacobi" and calls == [1]

    def test_best_iterate_rung_calls_select_best_iterate(self, monkeypatch, example1):
        calls = []

        def counted(iterates, problem):
            calls.append(len(iterates))
            return select(iterates, problem)

        select = hre_solver.select_best_iterate
        monkeypatch.setattr(hre_solver, "select_best_iterate", counted)  # rebound as a module global
        complete = singular_direct_problem(1e200)
        for problem, path in ((complete, "best-iterate"), (diverging_incomplete_problem(), "best-iterate"),
                              (random_problem(1, 40, 0.5, 0.3, 1), "best-iterate"),
                              (example1, "direct"), (graph_problem(1, 10, "ring", 0.1, 1), "jacobi")):
            calls.clear()
            outcome = hre_rank(problem)
            assert outcome.path == path
            assert len(calls) == (path == "best-iterate")

    def test_requires_references(self, example1):
        with pytest.raises(ValueError):
            hre_rank(Problem(example1.matrix))

    def test_unreachable_problem_rejected(self):
        rows = (
            (1.0, 2.0, None),
            (0.5, 1.0, None),
            (None, None, 1.0),
        )
        with pytest.raises(ValidationError):
            hre_rank(Problem(PcMatrix(rows), {1: 1.0}))

    def test_reference_weights_survive_bit_for_bit(self):
        rng = random.Random(73)
        for _ in range(30):
            n = rng.randint(3, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.3)
            refs = {i + 1: weights[i] for i in range(rng.randint(1, n - 1))}
            outcome = hre_rank(Problem(matrix, refs))
            for idx, value in refs.items():
                assert outcome.weights_raw.values[idx - 1] == value

    def test_reference_scale_invariance(self):
        rng = random.Random(79)
        for _ in range(30):
            n = rng.randint(3, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.4)
            refs = {i + 1: weights[i] for i in range(rng.randint(1, n - 1))}
            base = hre_rank(Problem(matrix, refs)).weights_raw.normalize().values
            for scale in (math.exp(rng.uniform(-3, 3)), 1e-12, 1e12):
                scaled_refs = {i: w * scale for i, w in refs.items()}
                scaled = hre_rank(Problem(matrix, scaled_refs)).weights_raw.normalize().values
                assert max_abs_diff(base, scaled) <= 1e-10

    def test_permutation_equivariance(self):
        rng = random.Random(83)
        for _ in range(25):
            n = rng.randint(3, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.3)
            refs = {1: weights[0]}
            problem = Problem(matrix, refs)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            base = hre_rank(problem).weights_raw.normalize().values
            permuted = hre_rank(permute_problem(problem, perm)).weights_raw.normalize().values
            assert max_abs_diff(base, unpermute(permuted, perm)) <= 1e-10

    def test_error_field_matches_oracle(self, example1):
        outcome = hre_rank(example1)
        prepared = _prepared(example1)
        _, expected = estimation_error_oracle(prepared, outcome.weights_raw.values)
        assert outcome.error == pytest.approx(expected, abs=1e-12)

    def test_jacobi_agrees_with_direct_when_dominant(self):
        # wide reference sets, similar weights and mild noise keep the
        # system diagonally dominant
        rng = random.Random(89)
        checked = 0
        for _ in range(150):
            n = rng.randint(4, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.1, lo=0.5, hi=2.0)
            refs = {i + 1: weights[i] for i in range(n - 2)}
            problem = Problem(matrix, refs)
            prepared = _prepared(problem)
            system = build_system(prepared)
            row, col = check_convergence(system)
            if not (row or col):
                continue
            checked += 1
            direct = solve_linear(system)
            run = jacobi_iterate(prepared, 1000)
            assert run.converged
            final = [run.iterates[-1][i - 1] for i in prepared.unknown_indices]
            assert max_abs_diff(final, direct) <= 1e-8
        assert checked >= 100


def _without_certificate(problem, **options):
    """`hre_rank` with the non-convergence certificate patched off: the full 1,000-step run."""
    with patch.object(hre_solver, "_never_converges", lambda *args: False):
        return hre_rank(problem, **options)


class TestNonConvergenceCertificate:
    CERTIFIED = ("half-n100-noise0.1-r1", "half-n100-noise0.3-r1", "half-n50-noise0.3-r1")

    @pytest.mark.parametrize("label", CERTIFIED)
    def test_certified_bench_runs_stop_after_16_steps(self, label):
        problem = bench_problem(label)
        run = jacobi_iterate(_prepared(problem), JACOBI_MAX_ITER, 10)
        assert len(run.array) == 16 and not run.converged and not run.diverged
        outcome, full = hre_rank(problem), _without_certificate(problem)
        assert outcome.iterations_used == 16 and full.iterations_used == JACOBI_MAX_ITER
        assert outcome.path == "best-iterate"
        assert outcome.warnings == ("iteration did not converge; selecting the best early iterate",)
        assert np.array(outcome.weights_raw.values).tobytes() == np.array(full.weights_raw.values).tobytes()
        assert outcome._replace(iterations_used=JACOBI_MAX_ITER) == full

    @pytest.mark.parametrize("label", CERTIFIED)
    def test_a_wider_window_selects_from_the_same_rows(self, label):
        # 40 rows: the run stops after the block of 32 that ends at step 64, past every row the window reads
        problem = bench_problem(label)
        outcome, full = hre_rank(problem, max_iterations=40), _without_certificate(problem, max_iterations=40)
        assert outcome.iterations_used == 64
        assert np.array(outcome.weights_raw.values).tobytes() == np.array(full.weights_raw.values).tobytes()
        assert outcome._replace(iterations_used=JACOBI_MAX_ITER) == full

    def test_silent_on_a_converging_run(self):
        outcome = hre_rank(bench_problem("half-n50-noise0.1-r1"))
        assert (outcome.path, outcome.iterations_used) == ("jacobi", 897)

    def test_silent_on_a_run_one_step_short_of_converging(self):
        # the differences shrink by 0.982 a step: too slowly to prove anything, and step 1,000 misses the test
        problem = bench_problem("half-n100-noise0.3-r3")
        run = jacobi_iterate(_prepared(problem), JACOBI_MAX_ITER, 10)
        assert len(run.array) == JACOBI_MAX_ITER and not run.converged and not run.diverged
        change = np.abs(run.array[-1] - run.array[-2]).max() / np.abs(run.array[-1]).max()
        assert 1.0e-10 < change < 1.1e-10
        assert hre_rank(problem).iterations_used == JACOBI_MAX_ITER

    def test_direct_callers_get_the_full_run(self):
        prepared = _prepared(bench_problem(self.CERTIFIED[0]))
        run = jacobi_iterate(prepared, JACOBI_MAX_ITER)
        assert len(run.array) == JACOBI_MAX_ITER and not run.converged and not run.diverged
        assert jacobi_iterate(prepared, JACOBI_MAX_ITER, 10).array.tobytes() == run.array[:16].tobytes()

    def test_ring_differences_change_sign(self):
        # a ring's differences are never all positive, so the certificate leaves its 1,000 steps alone
        problem = bench_problem("ring-n60-noise0.1-r1")
        run = jacobi_iterate(_prepared(problem), JACOBI_MAX_ITER, 10)
        assert len(run.array) == JACOBI_MAX_ITER and not run.converged
        delta = np.diff(run.array[299:301], axis=0)
        assert (delta > 0).any() and (delta < 0).any()
