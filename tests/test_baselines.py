import math
import random

import pytest

from hrerank import (
    IncompleteMatrixError,
    WeightVector,
    ev_weights,
    gm_weights,
)
from hrerank.baselines import principal_eigen

from _support import (
    assert_vector_printed,
    consistent_matrix,
    entry,
    max_abs_diff,
    permute_problem,
    random_reciprocal,
    random_weights,
    unpermute,
)
from hrerank import Problem


class TestPrincipalEigen:
    def test_example1_dominant_eigenvalue(self, example1):
        # CI = 0.057 at n = 5 pins lambda_max near 5.228
        result = principal_eigen(example1.matrix)
        assert result.lambda_max == pytest.approx(5.228, abs=5e-3)
        assert result.residual <= 1e-10

    def test_consistent_matrix_gives_n(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(3, 7)
            matrix = consistent_matrix(random_weights(n, rng))
            result = principal_eigen(matrix)
            assert abs(result.lambda_max - n) <= 1e-8

    def test_example3_nonreciprocal_vector(self, example3):
        vector = principal_eigen(example3.matrix).vector.normalize()
        assert_vector_printed(vector.values, ["0.236", "0.236", "0.236", "0.292"])

    def test_residual_bound_on_random_matrices(self):
        rng = random.Random(23)
        for _ in range(100):
            matrix = random_reciprocal(rng.randint(3, 7), rng)
            assert principal_eigen(matrix).residual <= 1e-10


class TestEvWeights:
    def test_example1(self, example1):
        assert_vector_printed(
            ev_weights(example1.matrix).values,
            ["0.426", "0.281", "0.165", "0.101", "0.027"],
        )

    def test_example2(self, example2):
        assert_vector_printed(
            ev_weights(example2.matrix).values,
            ["0.12", "0.275", "0.356", "0.131", "0.118"],
        )

    def test_consistent_recovery(self):
        matrix = consistent_matrix((0.5, 0.3, 0.2))
        assert max_abs_diff(ev_weights(matrix).values, (0.5, 0.3, 0.2)) <= 1e-8


class TestGmWeights:
    def test_example1(self, example1):
        assert_vector_printed(
            gm_weights(example1.matrix).values,
            ["0.424", "0.284", "0.169", "0.098", "0.026"],
        )

    def test_example3(self, example3):
        assert_vector_printed(
            gm_weights(example3.matrix).values, ["0.239", "0.239", "0.239", "0.284"]
        )

    def test_consistent_recovery(self):
        rng = random.Random(5)
        for _ in range(30):
            weights = random_weights(rng.randint(3, 6), rng)
            total = sum(weights)
            expected = tuple(w / total for w in weights)
            got = gm_weights(consistent_matrix(weights)).values
            assert max_abs_diff(got, expected) <= 1e-8

    def test_log_space_matches_direct_product(self):
        # oracle: the raw row product, feasible for entries within [1/9, 9]
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(3, 7)
            matrix = random_reciprocal(n, rng, spread=math.log(9.0))
            direct = [
                math.prod(entry(matrix, i, j) for j in range(1, n + 1)) ** (1.0 / n)
                for i in range(1, n + 1)
            ]
            total = sum(direct)
            expected = [g / total for g in direct]
            assert max_abs_diff(gm_weights(matrix).values, expected) <= 1e-10


def test_ev_equals_gm_on_consistent_matrices():
    rng = random.Random(29)
    for _ in range(30):
        matrix = consistent_matrix(random_weights(rng.randint(3, 6), rng))
        assert max_abs_diff(ev_weights(matrix).values, gm_weights(matrix).values) <= 1e-8


def test_permutation_invariance():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(3, 6)
        matrix = random_reciprocal(n, rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        permuted = permute_problem(Problem(matrix), perm).matrix
        for method in (ev_weights, gm_weights):
            direct = method(matrix).values
            roundtrip = unpermute(method(permuted).values, perm)
            assert max_abs_diff(direct, roundtrip) <= 1e-8


def test_incomplete_matrix_refused(example4):
    for method in (principal_eigen, ev_weights, gm_weights):
        with pytest.raises(IncompleteMatrixError):
            method(example4.matrix)


class TestWeightVector:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector((1.0, 0.0))
        with pytest.raises(ValueError):
            WeightVector((1.0, -2.0))
        with pytest.raises(ValueError):
            WeightVector((1.0, math.inf))

    def test_normalized_flag_checks_sum(self):
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.2), normalized=True)
        vector = WeightVector((2.0, 6.0)).normalize()
        assert vector.normalized
        assert vector.values == (0.25, 0.75)

    def test_normalize_survives_an_overflowing_sum(self):
        # 3e308 is beyond the float range: the values are divided by their largest first
        assert WeightVector((1e308,) * 3).normalize().values == (1.0 / 3.0,) * 3

    def test_normalize_refuses_a_weight_that_underflows(self):
        with pytest.raises(ValueError, match="concept 3"):
            WeightVector((1e308, 1e308, 5e-324)).normalize()
