"""Seeded experiment harness comparing the two estimation heuristics.

On consistent data the averaging and least-squares routes recover the same
weights; as triad-level inconsistency grows their answers drift apart.
The harness generates consistent matrices, injects multiplicative noise of
configurable size, solves with both heuristics and records the Koczkodaj
index next to the distance between the two normalized solutions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baselines import WeightVector
from .diagnostics import koczkodaj_index
from .errors import HreError
from .hre_solver import ADMISSIBLE_TOL, _system_parts, build_system, solve_systems
from .matrix_core import PcMatrix, Problem, _above_diagonal, _sum_in_order, preprocess
from .min_error_solver import build_error_system

_SEED_STRIDE = 1_000_003  # spreads per-trial seeds away from the base seed


class TrialRecord(NamedTuple):
    seed: int
    n: int
    noise_level: float
    koczkodaj: float
    distance: float  # max-norm between the normalized solutions; nan if unsolved
    both_solved: bool


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    trials: int
    noise_levels: tuple[float, ...]
    reference_count: int
    seed: int
    weight_range: tuple[float, float] = (0.1, 10.0)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("experiment needs n >= 3")
        if self.trials < 1:
            raise ValueError("experiment needs at least one trial")
        if not (1 <= self.reference_count < self.n):
            raise ValueError("reference_count must be in 1..n-1")
        if not self.noise_levels:
            raise ValueError("experiment needs at least one noise level")
        if not all(math.isfinite(level) and level >= 0 for level in self.noise_levels):
            raise ValueError("noise levels must be finite and non-negative")
        lo, hi = self.weight_range
        if not (0 < lo < hi):
            raise ValueError("weight_range must satisfy 0 < low < high")


def generate_consistent(
    n: int, seed: int, weight_range: tuple[float, float] = (0.1, 10.0)
) -> tuple[PcMatrix, tuple[float, ...]]:
    """Consistent matrix from weights drawn log-uniformly over weight_range.

    The lower triangle is stored as the exact float inverse of the upper
    triangle, so the output is reciprocal bit for bit.
    """
    lo, hi = weight_range
    if not (0 < lo < hi):
        raise ValueError("weight_range must satisfy 0 < low < high")
    rng = random.Random(seed)
    weights = tuple(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n))
    w = np.array(weights)
    ratios = w[:, None] / w  # w_i / w_j, exactly 1 on the diagonal
    return PcMatrix._from_array(np.where(_above_diagonal(n), ratios, 1.0 / ratios.T)), weights


def perturb(matrix: PcMatrix, noise_level: float, seed: int) -> PcMatrix:
    """Multiply each upper-triangle entry by exp(eps), eps ~ U(-level, +level).

    The lower triangle is rebuilt as the exact inverse, so reciprocity is
    preserved; zero noise returns the matrix unchanged (given a reciprocal
    input whose lower triangle already inverts the upper one exactly).
    Missing pairs stay missing.
    """
    if not (math.isfinite(noise_level) and noise_level >= 0):
        raise ValueError("noise level must be finite and non-negative")
    rng = random.Random(seed)
    grid = matrix.array.copy()
    rows, cols = np.nonzero(_above_diagonal(matrix.n) & ~np.isnan(grid))
    # one draw per specified upper entry, in row order; math.exp rather than
    # np.exp, whose last bit can differ, keeps the recorded experiments
    grid[rows, cols] *= [math.exp(rng.uniform(-noise_level, noise_level)) for _ in rows]
    grid[cols, rows] = 1.0 / grid[rows, cols]
    return PcMatrix._from_array(grid)


def _unit_weights(solution: tuple[float, ...] | HreError, problem: Problem) -> tuple[float, ...] | None:
    """Unit-sum weights from one solved system; None when it is singular or not all positive and finite.

    The values of ``synthesize(solution, problem)[1]``: the references woven
    in, summed left to right and each weight divided by the sum.
    """
    if isinstance(solution, HreError) or not all(math.isfinite(v) and v > ADMISSIBLE_TOL for v in solution):
        return None
    solved = iter(solution)
    full = [problem.references[i] if i in problem.references else next(solved) for i in range(1, problem.n + 1)]
    total = _sum_in_order(full)
    unit = tuple(v / total for v in full)
    # a sum that overflowed or a weight that underflowed: WeightVector raises as `synthesize` does
    return unit if min(unit) > 0.0 else WeightVector(unit, normalized=True).values


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """One record per (noise level, trial), in deterministic order.

    Trials are paired across noise levels: trial t reuses the same base
    matrix and the same noise directions at every level, so the recorded
    distances are directly comparable between levels (common random
    numbers), so each trial's base matrix is generated once and perturbed
    at every level in turn.  Both heuristics' systems at every level share
    one build of the unknown block and constants each and are solved
    together by `solve_systems`.  Trials where either heuristic fails keep
    both_solved=False and a nan distance.
    """
    by_level: list[list[TrialRecord]] = [[] for _ in config.noise_levels]
    for trial in range(config.trials):
        gen_seed = config.seed * _SEED_STRIDE + 2 * trial
        matrix, weights = generate_consistent(config.n, gen_seed, config.weight_range)
        references = {i + 1: weights[i] for i in range(config.reference_count)}
        noisy_matrices, problems, systems = [], [], []
        for noise in config.noise_levels:
            noisy = perturb(matrix, noise, gen_seed + 1)
            noisy_matrices.append(noisy)
            try:
                problem, _ = preprocess(Problem(noisy, references))
                parts = _system_parts(problem)
            except HreError:
                problems.append(None)
                continue
            problems.append(problem)
            systems += [build_system(problem, parts), build_error_system(problem, parts).system]
        solutions = iter(solve_systems(systems))  # both heuristics at every level, in one pass
        for noise, noisy, problem, records in zip(config.noise_levels, noisy_matrices, problems, by_level):
            if problem is None:
                averaging = least_squares = None
            else:
                averaging = _unit_weights(next(solutions), problem)
                least_squares = _unit_weights(next(solutions), problem)
            solved = averaging is not None and least_squares is not None
            if solved:
                distance = max(abs(a - b) for a, b in zip(averaging, least_squares))
            else:
                distance = math.nan
            records.append(
                TrialRecord(
                    seed=gen_seed,
                    n=config.n,
                    noise_level=noise,
                    koczkodaj=koczkodaj_index(noisy),
                    distance=distance,
                    both_solved=solved,
                )
            )
    return [record for records in by_level for record in records]


def write_csv(records: list[TrialRecord], path: str) -> None:
    """CSV with header seed,n,noise,koczkodaj,distance,both_solved; LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("seed,n,noise,koczkodaj,distance,both_solved\n")
        for r in records:
            handle.write(
                f"{r.seed},{r.n},{r.noise_level!r},{r.koczkodaj!r},"
                f"{r.distance!r},{'true' if r.both_solved else 'false'}\n"
            )


class NoiseLevelSummary(NamedTuple):
    noise_level: float
    trials: int
    solved: int
    mean_koczkodaj: float
    mean_distance: float  # over solved trials; nan when none solved


def summarize(records: list[TrialRecord]) -> list[NoiseLevelSummary]:
    """Per-noise-level means, in first-seen level order."""
    levels: list[float] = []
    for r in records:
        if r.noise_level not in levels:
            levels.append(r.noise_level)
    summaries = []
    for level in levels:
        bucket = [r for r in records if r.noise_level == level]
        solved = [r for r in bucket if r.both_solved]
        mean_distance = (
            _sum_in_order(r.distance for r in solved) / len(solved) if solved else math.nan
        )
        summaries.append(
            NoiseLevelSummary(
                noise_level=level,
                trials=len(bucket),
                solved=len(solved),
                mean_koczkodaj=_sum_in_order(r.koczkodaj for r in bucket) / len(bucket),
                mean_distance=mean_distance,
            )
        )
    return summaries
