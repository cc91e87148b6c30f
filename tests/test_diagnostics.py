import math
import random

import pytest

from hrerank import (
    IncompleteMatrixError,
    PcMatrix,
    PoipViolation,
    PopViolation,
    Problem,
    WeightVector,
    cop_check,
    estimation_error,
    ev_weights,
    hre_rank,
    inconsistency_report,
    koczkodaj_index,
    saaty_ci,
)
from hrerank.matrix_core import restore_reciprocity

from _support import (
    assert_printed,
    consistent_matrix,
    cop_report,
    estimation_error_oracle,
    noisy_consistent,
    permute_problem,
    random_reciprocal,
    random_weights,
    triad_scan_loop,
)


class TestKoczkodaj:
    def test_example1(self, example1):
        assert_printed(koczkodaj_index(example1.matrix), "0.743")

    def test_example2(self, example2):
        assert_printed(koczkodaj_index(example2.matrix), "0.781")

    def test_consistent_matrix_is_zero(self):
        rng = random.Random(2)
        for _ in range(20):
            matrix = consistent_matrix(random_weights(rng.randint(3, 7), rng))
            assert koczkodaj_index(matrix) <= 1e-12

    def test_requires_three_concepts(self):
        with pytest.raises(ValueError):
            koczkodaj_index(PcMatrix(((1.0, 2.0), (0.5, 1.0))))

    def test_incomplete_without_triads_is_absent(self, example4):
        restored = restore_reciprocity(example4.matrix)
        assert koczkodaj_index(restored) is None
        report = inconsistency_report(example4.matrix)
        assert report.koczkodaj is None
        assert report.triads_evaluated == 0
        assert report.saaty_ci is None

    def test_single_complete_triad(self):
        # only the {1,2,3} triad is fully specified: ratio chain 8*0.5/2 = 2
        rows = (
            (1.0, 2.0, 8.0, None),
            (0.5, 1.0, 2.0, None),
            (0.125, 0.5, 1.0, None),
            (None, None, None, 1.0),
        )
        matrix = PcMatrix(rows)
        assert koczkodaj_index(matrix) == pytest.approx(0.5, abs=1e-12)
        assert inconsistency_report(matrix).triads_evaluated == 1

    def test_underflowing_triad_contributes_one(self):
        # q = m13 * m32 / m12 = 1e-200 / 1e200 underflows to 0, where the contribution tends to 1
        matrix = PcMatrix(((1.0, 1e200, 1.0), (1e-200, 1.0, 1e200), (1.0, 1e-200, 1.0)))
        assert koczkodaj_index(matrix) == triad_scan_loop(matrix)[0] == 1.0

    def test_permutation_invariant(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(3, 6)
            matrix = random_reciprocal(n, rng)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            permuted = permute_problem(Problem(matrix), perm).matrix
            assert koczkodaj_index(matrix) == pytest.approx(
                koczkodaj_index(permuted), abs=1e-12
            )

    def test_positive_once_perturbed(self):
        rng = random.Random(19)
        matrix, _ = noisy_consistent(5, rng, noise=0.5)
        assert koczkodaj_index(matrix) > 0


class TestSaatyCi:
    def test_example1(self, example1):
        assert_printed(saaty_ci(example1.matrix), "0.057")

    def test_example2(self, example2):
        assert_printed(saaty_ci(example2.matrix), "0.07")

    def test_consistent_matrix_is_zero(self):
        matrix = consistent_matrix((0.5, 0.3, 0.2))
        assert abs(saaty_ci(matrix)) <= 1e-8

    def test_never_meaningfully_negative(self):
        rng = random.Random(37)
        for _ in range(50):
            matrix = random_reciprocal(rng.randint(3, 6), rng)
            assert saaty_ci(matrix) >= -1e-8

    def test_incomplete_matrix_refused(self, example4):
        with pytest.raises(IncompleteMatrixError):
            saaty_ci(example4.matrix)


class TestEstimationError:
    def test_consistent_with_exact_weights_is_zero(self):
        weights = (2.0, 1.0, 4.0, 0.5)
        problem = Problem(consistent_matrix(weights), {1: 2.0})
        per, mean = estimation_error(problem, WeightVector(weights))
        assert mean <= 1e-12
        assert all(v <= 1e-12 for v in per.values())

    def test_two_concept_hand_case(self):
        problem = Problem(PcMatrix(((1.0, 0.5), (2.0, 1.0))), {1: 1.0})
        per, mean = estimation_error(problem, WeightVector((1.0, 3.0)))
        assert per == {2: 1.0}  # |3 - 1*2|
        assert mean == 1.0

    def test_matches_independent_oracle_on_example2(self, example2):
        outcome = hre_rank(example2)
        for vector in (outcome.weights_raw, outcome.weights_raw.normalize()):
            per, mean = estimation_error(example2, vector)
            oracle_per, oracle_mean = estimation_error_oracle(example2, vector.values)
            assert mean == pytest.approx(oracle_mean, abs=1e-12)
            assert per.keys() == oracle_per.keys()
            for key in per:
                assert per[key] == pytest.approx(oracle_per[key], abs=1e-12)

    def test_zero_iff_every_touching_ratio_reproduced(self):
        weights = (1.0, 2.0, 3.0)
        problem = Problem(consistent_matrix(weights), {1: 1.0})
        _, mean = estimation_error(problem, WeightVector(weights))
        assert mean == 0.0
        _, worse = estimation_error(problem, WeightVector((1.0, 2.0, 3.5)))
        assert worse > 0.0

    def test_unrateable_concept_rejected(self):
        rows = (
            (1.0, 2.0, None),
            (0.5, 1.0, None),
            (None, None, 1.0),
        )
        problem = Problem(PcMatrix(rows), {1: 1.0})
        with pytest.raises(ValueError):
            estimation_error(problem, WeightVector((1.0, 2.0, 1.0)))

    def test_wrong_length_rejected(self, example1):
        with pytest.raises(ValueError):
            estimation_error(example1, WeightVector((1.0, 2.0)))


class TestCopCheck:
    def test_example1_eigenvector_poip(self, example1):
        report = cop_check(example1.matrix, ev_weights(example1.matrix))
        assert report.pop_violations == ()
        assert len(report.poip_violations) == 1
        violation = report.poip_violations[0]
        assert violation.quadruple == (4, 5, 1, 4)
        # entries: 10 strict pairs, ties 9=9 and 2=2=2 excluded -> 41 ordered pairs
        assert report.quadruples_checked == 41
        assert not report.satisfies_cop

    def test_example1_published_rounded_vector(self, example1):
        published = WeightVector((0.426, 0.281, 0.165, 0.101, 0.027))
        violation = cop_check(example1.matrix, published).poip_violations[0]
        assert_printed(violation.rhs, "4.218")  # mu(c1)/mu(c4)
        assert_printed(violation.lhs, "3.741")  # mu(c4)/mu(c5)

    def test_example1_averaging_solution_passes(self, example1):
        outcome = hre_rank(example1)
        assert cop_check(example1.matrix, outcome.weights_raw.normalize()).satisfies_cop

    def test_example2_pop_verdicts(self, example2):
        from hrerank import gm_weights

        ev_report = cop_check(example2.matrix, ev_weights(example2.matrix))
        assert ev_report.pop_violations
        assert all(
            (5, 1) in ((v.quadruple[0], v.quadruple[1]), (v.quadruple[2], v.quadruple[3]))
            for v in ev_report.pop_violations
        )
        gm_report = cop_check(example2.matrix, gm_weights(example2.matrix))
        assert gm_report.pop_violations == ()
        hre_report = cop_check(example2.matrix, hre_rank(example2).weights_raw.normalize())
        assert hre_report.pop_violations == ()
        # none of the three methods preserves every intensity comparison here
        for report in (ev_report, gm_report, hre_report):
            assert report.poip_violations

    def test_example3_only_averaging_passes(self, example3):
        from hrerank import gm_weights

        ev_report = cop_check(example3.matrix, ev_weights(example3.matrix))
        gm_report = cop_check(example3.matrix, gm_weights(example3.matrix))
        hre_report = cop_check(example3.matrix, hre_rank(example3).weights_raw.normalize())
        assert not ev_report.satisfies_cop
        assert not gm_report.satisfies_cop
        assert hre_report.satisfies_cop
        # the failures are the equal-ratio comparisons against the unit entries
        assert {v.quadruple for v in ev_report.poip_violations} == {
            (4, 1, 4, 2),
            (4, 1, 4, 3),
        }
        assert all(v.lhs == v.rhs for v in ev_report.poip_violations)

    def test_consistent_matrix_generating_weights_pass(self):
        rng = random.Random(41)
        for _ in range(25):
            weights = random_weights(rng.randint(3, 6), rng)
            matrix = consistent_matrix(weights)
            scaled = WeightVector(tuple(3.7 * w for w in weights))
            assert cop_check(matrix, scaled).satisfies_cop

    def test_verdict_invariant_under_scaling(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(3, 5)
            matrix = random_reciprocal(n, rng)
            mu = WeightVector(random_weights(n, rng))
            scaled = WeightVector(tuple(v * 100.0 for v in mu.values))
            first = cop_check(matrix, mu)
            second = cop_check(matrix, scaled)
            assert first.satisfies_cop == second.satisfies_cop
            assert [v.quadruple for v in first.pop_violations] == [
                v.quadruple for v in second.pop_violations
            ]
            assert [v.quadruple for v in first.poip_violations] == [
                v.quadruple for v in second.poip_violations
            ]

    def test_report_invariants(self, example2):
        report = cop_check(example2.matrix, ev_weights(example2.matrix))
        assert report.quadruples_checked >= len(report.pop_violations)
        assert report.quadruples_checked >= len(report.poip_violations)
        assert report.satisfies_cop == (
            not report.pop_violations and not report.poip_violations
        )


class TestCopReport:
    def test_tuples_round_trip(self):
        pop = (PopViolation((1, 2, 3, 4), ((1, 2),)), PopViolation((2, 1, 4, 3), ((4, 3),)),
               PopViolation((3, 1, 2, 4), ((3, 1), (2, 4))))
        poip = (PoipViolation((1, 2, 3, 4), 0.5, 2.0), PoipViolation((5, 6, 7, 8), -0.0, math.inf))
        report = cop_report(pop, poip, 9)
        assert report.pop_violations == pop
        assert report.poip_violations == poip
        assert math.copysign(1.0, report.poip_violations[1].lhs) == -1.0
        assert report.quadruples_checked == 9
        assert not report.satisfies_cop
        assert cop_report((), (), 0).satisfies_cop

    def test_columns_are_read_only(self, example2):
        report = cop_check(example2.matrix, ev_weights(example2.matrix))
        assert report.pop_quadruples.shape == (len(report.pop_violations), 4)
        assert report.pop_failed.shape == (len(report.pop_violations), 2)
        assert report.poip_quadruples.shape == (len(report.poip_violations), 4)
        assert report.lhs.shape == report.rhs.shape == (len(report.poip_violations),)
        for column in (report.pop_quadruples, report.pop_failed, report.poip_quadruples, report.lhs, report.rhs):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[...] = 0

    def test_tuple_built_report_equals_checked_report(self, example2):
        report = cop_check(example2.matrix, ev_weights(example2.matrix))
        assert report.pop_violations and report.poip_violations
        rebuilt = cop_report(report.pop_violations, report.poip_violations, report.quadruples_checked)
        assert rebuilt == report
        assert cop_report(report.pop_violations, report.poip_violations[1:], report.quadruples_checked) != report
        assert cop_report(report.pop_violations, report.poip_violations, report.quadruples_checked + 1) != report
