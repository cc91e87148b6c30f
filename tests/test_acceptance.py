"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines on the terminal (they are captured otherwise).
"""

import json
import math
import random
from contextlib import contextmanager

import pytest

from hrerank import (
    IncompleteMatrixError,
    ExperimentConfig,
    PcMatrix,
    Problem,
    WeightVector,
    cop_check,
    estimation_error,
    ev_weights,
    gm_weights,
    hre_rank,
    koczkodaj_index,
    preprocess,
    run_experiment,
    saaty_ci,
    solve_min_error,
    summarize,
)
from hrerank.hre_solver import build_system, check_convergence, jacobi_iterate, solve_linear
from hrerank.matrix_core import restore_reciprocity
from hrerank.min_error_solver import build_error_system
from hrerank.cli import main

from _support import (
    DATA_DIR,
    GOLDEN_DIR,
    assert_printed,
    assert_vector_printed,
    brute_force_min_error,
    consistent_matrix,
    entry,
    hessian,
    max_abs_diff,
    noisy_consistent,
    permute_problem,
    random_weights,
    spearman,
    squared_error,
    unpermute,
)
from test_cli import GOLDEN_CASES, resolve


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number} PASS - {description}")


def test_criterion_1_example_1_reproduction(example1):
    with criterion(1, "example 1: EV/GM/averaging weights, CI, K, system, COP verdicts"):
        assert_vector_printed(
            ev_weights(example1.matrix).values,
            ["0.426", "0.281", "0.165", "0.101", "0.027"],
        )
        assert_vector_printed(
            gm_weights(example1.matrix).values,
            ["0.424", "0.284", "0.169", "0.098", "0.026"],
        )
        outcome = hre_rank(example1)
        assert outcome.path == "direct"
        assert_vector_printed(
            outcome.weights_raw.normalize().values, ["0.368", "0.311", "0.182", "0.11", "0.028"]
        )
        assert_printed(saaty_ci(example1.matrix), "0.057")
        assert_printed(koczkodaj_index(example1.matrix), "0.743")

        system = build_system(preprocess(example1)[0])
        printed = [
            ["1", "-0.5", "-1", "-2.25"],
            ["-0.125", "1", "-0.5", "-2"],
            ["-0.062", "-0.125", "1", "-1.75"],
            ["-0.028", "-0.031", "-0.036", "1"],
        ]
        for row, expected in zip(system.a.tolist(), printed):
            assert_vector_printed(row, expected)
        assert_vector_printed(system.b.tolist(), ["0.125", "0.083", "0.05", "0.028"])

        ev_report = cop_check(
            example1.matrix, WeightVector((0.426, 0.281, 0.165, 0.101, 0.027))
        )
        assert not ev_report.satisfies_cop
        flagged = ev_report.poip_violations[0]
        assert {flagged.quadruple[:2], flagged.quadruple[2:]} == {(4, 5), (1, 4)}
        assert_printed(flagged.rhs, "4.218")
        assert_printed(flagged.lhs, "3.741")
        assert cop_check(example1.matrix, outcome.weights_raw.normalize()).satisfies_cop


def test_criterion_2_example_2_reproduction(example2):
    with criterion(2, "example 2: system, averaging weights, EV/GM, CI, K, POP verdicts"):
        system = build_system(preprocess(example2)[0])
        printed = [
            ["1", "-0.156", "-0.125"],
            ["-0.4", "1", "-0.333"],
            ["-0.5", "-0.187", "1"],
        ]
        for row, expected in zip(system.a.tolist(), printed):
            assert_vector_printed(row, expected)
        assert_vector_printed(system.b.tolist(), ["1.75", "1.0", "0.812"])

        outcome = hre_rank(example2)
        assert_vector_printed(
            outcome.weights_raw.values, ["2.527", "5.0", "7.0", "2.88", "2.616"]
        )
        assert_vector_printed(
            outcome.weights_raw.normalize().values,
            ["0.126", "0.249", "0.349", "0.144", "0.13"],
        )
        assert_vector_printed(
            ev_weights(example2.matrix).values,
            ["0.12", "0.275", "0.356", "0.131", "0.118"],
        )
        assert_vector_printed(
            gm_weights(example2.matrix).values,
            ["0.113", "0.28", "0.359", "0.133", "0.114"],
        )
        assert_printed(saaty_ci(example2.matrix), "0.07")
        assert_printed(koczkodaj_index(example2.matrix), "0.781")

        ev_report = cop_check(example2.matrix, ev_weights(example2.matrix))
        assert ev_report.pop_violations
        assert all(
            (5, 1) in (v.quadruple[:2], v.quadruple[2:]) for v in ev_report.pop_violations
        )
        assert not cop_check(example2.matrix, gm_weights(example2.matrix)).pop_violations
        assert not cop_check(example2.matrix, outcome.weights_raw.normalize()).pop_violations


def test_criterion_3_example_3_reproduction(example3):
    with criterion(3, "example 3: reciprocity restoration, system, weights, COP verdicts"):
        restored = restore_reciprocity(example3.matrix)
        assert_printed(entry(restored, 1, 4), "0.707")
        assert_printed(entry(restored, 4, 1), "1.414")

        system = build_system(preprocess(example3)[0])
        for i in range(3):
            for j in range(3):
                assert_printed(system.a.tolist()[i][j], "1" if i == j else "-0.333")
        assert_vector_printed(system.b.tolist(), ["0.333", "0.333", "0.471"])

        outcome = hre_rank(example3)
        assert_vector_printed(outcome.weights_raw.normalize().values, ["0.227", "0.25", "0.25", "0.273"])
        assert_vector_printed(
            ev_weights(example3.matrix).values, ["0.236", "0.236", "0.236", "0.292"]
        )
        assert_vector_printed(
            gm_weights(example3.matrix).values, ["0.239", "0.239", "0.239", "0.284"]
        )
        assert not cop_check(example3.matrix, ev_weights(example3.matrix)).satisfies_cop
        assert not cop_check(example3.matrix, gm_weights(example3.matrix)).satisfies_cop
        assert cop_check(example3.matrix, outcome.weights_raw.normalize()).satisfies_cop


def test_criterion_4_example_4_reproduction(example4):
    with criterion(4, "example 4: iterative solution on missing data; EV/GM refuse"):
        outcome = hre_rank(example4)
        assert outcome.path == "jacobi"
        assert_vector_printed(outcome.weights_raw.normalize().values, ["0.369", "0.338", "0.154", "0.138"])
        raw = outcome.weights_raw.values
        assert abs(raw[0] / raw[2] - 2.396) <= 5e-3
        assert abs(raw[3] / raw[0] - 0.374) <= 5e-3
        with pytest.raises(IncompleteMatrixError):
            ev_weights(example4.matrix)
        with pytest.raises(IncompleteMatrixError):
            gm_weights(example4.matrix)


def test_criterion_5_property_suite():
    with criterion(5, "randomized properties: recovery, restoration, invariances"):
        rng = random.Random(20240817)

        # consistent-matrix exact recovery, all four solvers
        for _ in range(100):
            n = rng.randint(3, 6)
            weights = random_weights(n, rng)
            matrix = consistent_matrix(weights)
            refs = {1: weights[0]}
            total = sum(weights)
            unit = tuple(w / total for w in weights)

            outcome = hre_rank(Problem(matrix, refs))
            assert max(
                abs(a - b) / b for a, b in zip(outcome.weights_raw.values, weights)
            ) <= 1e-8
            least_squares = solve_min_error(Problem(matrix, refs))
            assert max(
                abs(a - b) / b for a, b in zip(least_squares.weights_raw.values, weights)
            ) <= 1e-8
            assert max(
                abs(a - b) / b for a, b in zip(ev_weights(matrix).values, unit)
            ) <= 1e-8
            assert max(
                abs(a - b) / b for a, b in zip(gm_weights(matrix).values, unit)
            ) <= 1e-8

        # reciprocity restoration: idempotent, output reciprocal
        for _ in range(100):
            n = rng.randint(3, 6)
            matrix, _ = noisy_consistent(n, rng, noise=rng.uniform(0, 1))
            grid = [list(row) for row in matrix.entries]
            i, j = rng.sample(range(n), 2)
            grid[i][j] *= math.exp(rng.uniform(-0.5, 0.5))  # break reciprocity
            broken = PcMatrix(tuple(tuple(row) for row in grid))
            once = restore_reciprocity(broken)
            twice = restore_reciprocity(once)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    assert abs(entry(once, a, b) - entry(twice, a, b)) <= 1e-15 * entry(once, a, b)
                    if a != b:
                        assert abs(entry(once, a, b) * entry(once, b, a) - 1.0) <= 1e-12

        # reference-scale invariance of the normalized output
        for _ in range(100):
            n = rng.randint(3, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.4)
            refs = {i + 1: weights[i] for i in range(rng.randint(1, n - 1))}
            factor = math.exp(rng.uniform(-3, 3))
            base = hre_rank(Problem(matrix, refs)).weights_raw.normalize().values
            scaled = hre_rank(
                Problem(matrix, {i: w * factor for i, w in refs.items()})
            ).weights_raw.normalize().values
            assert max_abs_diff(base, scaled) <= 1e-10

        # direct/Jacobi agreement whenever the dominance test passes
        agreeing = 0
        attempts = 0
        while agreeing < 100:
            attempts += 1
            assert attempts < 1000, "dominance generator starved"
            n = rng.randint(4, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.1, lo=0.5, hi=2.0)
            refs = {i + 1: weights[i] for i in range(n - 2)}
            prepared, _ = preprocess(Problem(matrix, refs))
            system = build_system(prepared)
            row, col = check_convergence(system)
            if not (row or col):
                continue
            agreeing += 1
            direct = solve_linear(system)
            run = jacobi_iterate(prepared, 1000)
            assert run.converged
            final = [run.iterates[-1][i - 1] for i in prepared.unknown_indices]
            assert max_abs_diff(final, direct) <= 1e-8

        # permutation equivariance of every solver
        for _ in range(100):
            n = rng.randint(3, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.3)
            problem = Problem(matrix, {1: weights[0]})
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            shuffled = permute_problem(problem, perm)
            pairs = [
                (hre_rank(problem).weights_raw.normalize().values,
                 hre_rank(shuffled).weights_raw.normalize().values),
                (solve_min_error(problem).weights_raw.normalize().values,
                 solve_min_error(shuffled).weights_raw.normalize().values),
                (ev_weights(problem.matrix).values, ev_weights(shuffled.matrix).values),
                (gm_weights(problem.matrix).values, gm_weights(shuffled.matrix).values),
            ]
            for base, permuted in pairs:
                assert max_abs_diff(base, unpermute(permuted, perm)) <= 1e-8


def test_criterion_6_squared_error_heuristic_verification():
    with criterion(6, "least-squares internals: Hessian scaling, gradient, grid oracle"):
        rng = random.Random(424242)

        # Hessian is exactly 2(n-1) times the system matrix
        for _ in range(50):
            n = rng.randint(3, 6)
            matrix, weights = noisy_consistent(n, rng, noise=0.6)
            prepared, _ = preprocess(Problem(matrix, {1: weights[0]}))
            es = build_error_system(prepared)
            h = hessian(es, n)
            for hrow, erow in zip(h, es.system.a.tolist()):
                for hv, ev in zip(hrow, erow):
                    assert hv == 2 * (n - 1) * ev

        # central-difference gradient vanishes at the solved point
        for _ in range(25):
            n = rng.randint(3, 5)
            matrix, weights = noisy_consistent(n, rng, noise=0.5)
            problem = Problem(matrix, {1: weights[0]})
            prepared, _ = preprocess(problem)
            result = solve_min_error(problem)
            point = tuple(result.weights_raw.values[i - 1] for i in prepared.unknown_indices)
            value = squared_error(prepared, point)
            step = 1e-6 * max(point)
            for axis in range(len(point)):
                up = tuple(v + step if a == axis else v for a, v in enumerate(point))
                down = tuple(v - step if a == axis else v for a, v in enumerate(point))
                derivative = (
                    squared_error(prepared, up) - squared_error(prepared, down)
                ) / (2 * step)
                assert abs(derivative) <= 1e-4 * (1.0 + abs(value))

        # grid oracle agrees with the normal-system solution (k <= 3); weights
        # drawn from (0.5, 2) keep the optimum well inside the default bounds
        for _ in range(25):
            n = rng.randint(3, 4)
            matrix, weights = noisy_consistent(n, rng, noise=0.3, lo=0.5, hi=2.0)
            refs = {1: weights[0]}
            problem = Problem(matrix, refs)
            solved = solve_min_error(problem).weights_raw.values
            lo, hi = 1e-3, 10.0 * max(refs.values())
            found = brute_force_min_error(problem, bounds=(lo, hi), grid_points=11).values
            resolution = (hi - lo) / 10 / 2**10
            assert max_abs_diff(found, solved) <= 2 * resolution


def test_criterion_7_monte_carlo_claim():
    with criterion(7, "Monte Carlo: divergence of heuristics grows with inconsistency"):
        config = ExperimentConfig(
            n=5,
            trials=200,
            noise_levels=(0.0, 0.02, 0.1, 0.3, 0.8),
            reference_count=1,
            seed=7,
        )
        records = run_experiment(config)
        zero_noise = [r for r in records if r.noise_level == 0.0]
        assert all(r.both_solved for r in zero_noise)
        assert all(r.distance <= 1e-8 for r in zero_noise)

        bins = [s for s in summarize(records) if s.noise_level > 0.0]
        distances = [s.mean_distance for s in bins]
        indices = [s.mean_koczkodaj for s in bins]
        assert all(a <= b for a, b in zip(distances, distances[1:]))
        assert spearman(indices, distances) > 0.0


def test_criterion_8_cli_contract(capsys, tmp_path):
    with criterion(8, "CLI: golden outputs, determinism, exit codes"):
        for name in sorted(GOLDEN_CASES):
            args = resolve(GOLDEN_CASES[name])
            assert main(args) == 0
            first = capsys.readouterr().out
            assert main(args) == 0
            second = capsys.readouterr().out
            assert first == second == (GOLDEN_DIR / name).read_text(encoding="utf-8")
            if name.endswith(".json"):
                json.loads(first)

        # documented exit codes on malformed input
        assert main(["rank", "--input", str(DATA_DIR / "bad_token.txt"), "--method", "hre"]) == 1
        capsys.readouterr()
        assert main(["rank", "--input", str(DATA_DIR / "example4.txt"), "--method", "ev"]) == 2
        capsys.readouterr()
        assert main(["rank", "--input", str(DATA_DIR / "nope.txt"), "--method", "hre"]) == 1
        capsys.readouterr()
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 -3\n1 1\nref 1 1.0\n", encoding="utf-8")
        assert main(["rank", "--input", str(bad), "--method", "hre"]) == 1
        capsys.readouterr()
