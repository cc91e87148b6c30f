import math
import random

import numpy as np
import pytest

from hrerank import (
    IncompleteMatrixError,
    PcMatrix,
    Problem,
    hre_rank,
    koczkodaj_index,
    preprocess,
    solve_min_error,
)
from hrerank.hre_solver import build_system, check_convergence
from hrerank.min_error_solver import build_error_system

from _support import (
    brute_force_min_error,
    consistent_matrix,
    hessian,
    max_abs_diff,
    max_rel_diff,
    noisy_consistent,
    random_weights,
    squared_error,
)


def _three_concept_problem():
    # unknowns {1, 2} with m(1,2) = 2; reference concept 3 at weight 2
    rows = (
        (1.0, 2.0, 1.0),
        (0.5, 1.0, 1.0),
        (1.0, 1.0, 1.0),
    )
    return Problem(PcMatrix(rows), {3: 2.0})


class TestBuildErrorSystem:
    def test_hand_computed_three_concepts(self):
        es = build_error_system(_three_concept_problem())
        # s_1 = (1/2)^2 / 2, s_2 = 2^2 / 2; off-diagonal -(2 + 1/2)/2
        assert es.s_values == (0.125, 2.0)
        assert es.system.a.tolist() == [[1.125, -1.25], [-1.25, 3.0]]
        assert es.system.b.tolist() == [1.0, 1.0]
        # not diagonally dominant (row one: 1.125 < 1.25), yet its least eigenvalue is r / (n - 1) = 1/2 itself
        assert np.linalg.eigvalsh(es.system.a) == pytest.approx([0.5, 3.625], rel=1e-15)

    def test_single_unknown(self):
        problem = Problem(consistent_matrix((3.0, 1.0, 2.0)), {2: 1.0, 3: 2.0})
        es = build_error_system(problem)
        assert es.s_values == (0.0,)
        assert es.system.a.tolist() == [[1.0]]
        solution = solve_min_error(problem)
        assert solution.weights_raw.values[0] == pytest.approx(
            es.system.b.tolist()[0], abs=1e-12
        )

    def test_example2_values(self, example2):
        prepared, _ = preprocess(example2)
        es = build_error_system(prepared)
        expected = (
            (2.64, -0.55625, -0.625),
            (-0.55625, 1.23828125, -0.5208333333333333),
            (-0.625, -0.5208333333333333, 1.5069444444444444),
        )
        for row, row_expected in zip(es.system.a.tolist(), expected):
            assert max_abs_diff(row, row_expected) <= 1e-12
        # same constants as the averaging system
        assert es.system.b.tolist() == build_system(prepared).b.tolist()

    def test_symmetry_is_exact(self):
        rng = random.Random(97)
        for _ in range(30):
            n = rng.randint(3, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.8)
            refs = {1: weights[0]}
            prepared, _ = preprocess(Problem(matrix, refs))
            coeff = build_error_system(prepared).system.a.tolist()
            k = len(coeff)
            for i in range(k):
                for j in range(k):
                    assert coeff[i][j] == coeff[j][i]

    def test_overflowing_square_keeps_row_order_sums(self):
        # every entry is squared as x * x, so 1e200 squared is inf; every column's
        # s value still adds its squares in row order
        rng = random.Random(5)
        for _ in range(20):
            n = 12
            matrix, weights = noisy_consistent(n, rng, noise=0.8)
            grid = [list(row) for row in matrix.entries]
            grid[2][3], grid[3][2] = 1e200, 1e-200
            s_values = build_error_system(Problem(PcMatrix(grid), {1: weights[0]})).s_values
            expected = []
            for v in range(1, n):
                total = 0.0
                for u in range(1, n):
                    if u != v:
                        total += grid[u][v] * grid[u][v]  # 1e200 * 1e200 is inf
                expected.append(total * (1.0 / (n - 1)))
            assert list(s_values) == expected

    def test_squares_are_ieee_products(self):
        # the C library's pow may give 5.3742366976 for 2.31824 ** 2; the correctly rounded x * x is 5.374236697599999
        x = 2.31824
        problem = Problem(PcMatrix([[1, 2, 4], [1 / 2, 1, x], [1 / 4, 1 / x, 1]]), {1: 1.0})
        assert build_error_system(problem).s_values[1] == x * x * 0.5

    def test_incomplete_matrix_refused(self, example4):
        prepared, _ = preprocess(example4)
        with pytest.raises(IncompleteMatrixError):
            build_error_system(prepared)


class TestHessian:
    def test_single_unknown_n3(self):
        problem = Problem(consistent_matrix((3.0, 1.0, 2.0)), {2: 1.0, 3: 2.0})
        es = build_error_system(problem)
        assert hessian(es, 3) == ((4.0,),)

    def test_scaling_is_exact(self, example2):
        prepared, _ = preprocess(example2)
        es = build_error_system(prepared)
        h = hessian(es, 5)
        for hrow, erow in zip(h, es.system.a.tolist()):
            for hv, ev in zip(hrow, erow):
                assert hv == 2 * 4 * ev


class TestSolveMinError:
    def test_consistent_recovery(self):
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(3, 6)
            weights = random_weights(n, rng)
            refs = {1: weights[0], 2: weights[1]}
            result = solve_min_error(Problem(consistent_matrix(weights), refs))
            assert max_abs_diff(result.weights_raw.values, weights) <= 1e-9 * max(weights)

    def test_example2_regression(self, example2):
        # frozen from an independent dense solve of the same normal system
        result = solve_min_error(example2)
        expected = (1.6627768780361596, 5.0, 7.0, 2.4236924984138812, 2.0664832092363845)
        assert max_abs_diff(result.weights_raw.values, expected) <= 1e-9

    def test_near_consistent_tracks_averaging_closely(self):
        # as noise vanishes the two heuristics coincide; at noise small enough
        # to keep the triad index tiny they agree to three decimals of ratio
        rng = random.Random(103)
        checked = 0
        for _ in range(40):
            matrix, weights = noisy_consistent(4, rng, noise=8e-4)
            problem = Problem(matrix, {1: weights[0]})
            if koczkodaj_index(problem.matrix) >= 0.1:
                continue
            checked += 1
            averaging = hre_rank(problem).weights_raw.normalize().values
            least_squares = solve_min_error(problem).weights_raw.normalize().values
            assert max_rel_diff(least_squares, averaging) <= 1e-3
        assert checked >= 30

    def test_agreement_degrades_with_noise(self):
        rng = random.Random(107)
        gaps = []
        for noise in (0.003, 0.3):
            rng_level = random.Random(107)  # same matrices, scaled jitter
            level_gaps = []
            for _ in range(25):
                matrix, weights = noisy_consistent(4, rng_level, noise=noise)
                problem = Problem(matrix, {1: weights[0]})
                a = hre_rank(problem).weights_raw.normalize().values
                b = solve_min_error(problem).weights_raw.normalize().values
                level_gaps.append(max_abs_diff(a, b))
            gaps.append(sum(level_gaps) / len(level_gaps))
        assert gaps[0] < gaps[1]

    def test_gradient_vanishes_at_solution(self):
        rng = random.Random(109)
        for _ in range(25):
            n = rng.randint(3, 5)
            matrix, weights = noisy_consistent(n, rng, noise=0.5)
            problem = Problem(matrix, {1: weights[0]})
            prepared, _ = preprocess(problem)
            result = solve_min_error(problem)
            point = tuple(
                result.weights_raw.values[i - 1] for i in prepared.unknown_indices
            )
            value = squared_error(prepared, point)
            scale = max(point)
            step = 1e-6 * scale
            for axis in range(len(point)):
                up = tuple(
                    v + step if a == axis else v for a, v in enumerate(point)
                )
                down = tuple(
                    v - step if a == axis else v for a, v in enumerate(point)
                )
                derivative = (squared_error(prepared, up) - squared_error(prepared, down)) / (
                    2 * step
                )
                assert abs(derivative) <= 1e-4 * (1.0 + abs(value))

    def test_solution_beats_nearby_points(self):
        # the normal matrix is positive definite on every input (see the module docstring): each solution is the minimum
        rng = random.Random(113)
        for _ in range(60):
            n = rng.randint(4, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.4, lo=0.5, hi=2.0)
            problem = Problem(matrix, {i + 1: weights[i] for i in range(n - 2)})
            prepared, _ = preprocess(problem)
            result = solve_min_error(problem)
            point = tuple(result.weights_raw.values[i - 1] for i in prepared.unknown_indices)
            best = squared_error(prepared, point)
            for _ in range(100):
                jitter = tuple(v * (1.0 + rng.uniform(-0.01, 0.01)) for v in point)
                assert squared_error(prepared, jitter) >= best

    def test_non_dominant_normal_system_still_gives_the_minimum(self):
        # a huge off-diagonal ratio breaks row dominance without breaking positive definiteness
        rows = (
            (1.0, 9.0, 1.0),
            (1.0 / 9.0, 1.0, 1.0),
            (1.0, 1.0, 1.0),
        )
        problem = Problem(PcMatrix(rows), {3: 2.0})
        assert check_convergence(build_error_system(problem).system) == (False, False)
        result = solve_min_error(problem)
        assert all(v > 0 for v in result.weights_raw.values)
        point = result.weights_raw.values[:2]
        best = squared_error(problem, point)
        for step in ((1e-3, 0.0), (0.0, 1e-3), (-1e-3, 1e-3), (1e-3, -1e-3)):
            assert squared_error(problem, tuple(v * (1.0 + s) for v, s in zip(point, step))) > best


class TestBruteForce:
    def test_consistent_three_concepts(self):
        weights = (2.0, 1.0, 4.0)
        problem = Problem(consistent_matrix(weights), {3: 4.0})
        found = brute_force_min_error(problem, bounds=(0.05, 5.0), grid_points=11)
        resolution = (5.0 - 0.05) / 10 / 2**10
        assert max_abs_diff(found.values[:2], weights[:2]) <= 2 * resolution

    def test_single_unknown_closed_form(self):
        problem = Problem(consistent_matrix((3.0, 1.0, 2.0)), {2: 1.0, 3: 2.0})
        es = build_error_system(problem)
        expected = es.system.b.tolist()[0] / es.system.a.tolist()[0][0]
        found = brute_force_min_error(problem, bounds=(0.1, 8.0), grid_points=17)
        resolution = (8.0 - 0.1) / 16 / 2**10
        assert abs(found.values[0] - expected) <= 2 * resolution

    def test_example2_matches_normal_system(self, example2):
        solved = solve_min_error(example2).weights_raw.values
        found = brute_force_min_error(example2, bounds=(0.5, 10.0), grid_points=11).values
        resolution = (10.0 - 0.5) / 10 / 2**10
        assert max_abs_diff(found, solved) <= 2 * resolution

    def test_too_many_unknowns_rejected(self):
        weights = (1.0, 2.0, 3.0, 4.0, 5.0)
        problem = Problem(consistent_matrix(weights), {5: 5.0})
        with pytest.raises(ValueError):
            brute_force_min_error(problem)

    def test_bad_bounds_rejected(self, example2):
        with pytest.raises(ValueError):
            brute_force_min_error(example2, bounds=(2.0, 1.0))


def test_squared_error_zero_on_consistent_data():
    weights = (2.0, 1.0, 4.0)
    problem = Problem(consistent_matrix(weights), {3: 4.0})
    assert squared_error(problem, weights[:2]) <= 1e-24
    assert squared_error(problem, (2.1, 1.0)) > 0.0
