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

from .baselines import WeightVector, _unit
from .diagnostics import _triad_scans
from .errors import HreError
from .hre_solver import _admissible, _averaging, _parts, _solved, _woven
from .matrix_core import PcMatrix, Problem, _above_diagonal, _fatal_masks, _filled, _restored, _sum_in_order, is_reachable
from .min_error_solver import _normal

_SEED_STRIDE = 1_000_003  # spreads per-trial seeds away from the base seed
_MAX_NOISE = math.log(np.finfo(float).max)  # above it a noise factor exp(level) overflows
_LOG_WEIGHTS = (math.log(0.1), math.log(10.0))  # true weights are drawn log-uniformly from 0.1 to 10


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

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("experiment needs n >= 3")
        if self.trials < 1:
            raise ValueError("experiment needs at least one trial")
        if not (1 <= self.reference_count < self.n):
            raise ValueError("reference_count must be in 1..n-1")
        if not self.noise_levels:
            raise ValueError("experiment needs at least one noise level")
        if not all(0 <= level <= _MAX_NOISE for level in self.noise_levels):
            raise ValueError(f"noise levels must be finite, non-negative and at most {_MAX_NOISE:.2f}")


def generate_consistent(n: int, seed: int) -> tuple[PcMatrix, tuple[float, ...]]:
    """Consistent matrix from weights drawn log-uniformly from 0.1 to 10.

    The lower triangle is stored as the exact float inverse of the upper
    triangle, so the output is reciprocal bit for bit.
    """
    rng = random.Random(seed)
    weights = tuple(math.exp(rng.uniform(*_LOG_WEIGHTS)) for _ in range(n))
    w = np.array(weights)
    ratios = w[:, None] / w  # w_i / w_j, exactly 1 on the diagonal
    return PcMatrix._from_array(np.where(_above_diagonal(n), ratios, 1.0 / ratios.T)), weights


def perturb(matrix: PcMatrix, noise_level: float, seed: int) -> PcMatrix:
    """Multiply each upper-triangle entry by exp(eps), eps ~ U(-level, +level).

    The lower triangle is rebuilt as the exact inverse, so reciprocity is
    preserved; zero noise returns the matrix unchanged (given a reciprocal
    input whose lower triangle already inverts the upper one exactly).
    Missing pairs stay missing.  The one-level case of the stack that
    `run_experiment` perturbs each trial's matrix into.
    """
    return PcMatrix._from_array(_perturbed(matrix, (noise_level,), seed)[0])


def _perturbed(matrix: PcMatrix, levels, seed: int) -> np.ndarray:
    """`perturb` at each level, as one read-only stack (L, n, n); one draw per entry serves every level."""
    if not all(0 <= level <= _MAX_NOISE for level in levels):
        raise ValueError(f"noise level must be finite, non-negative and at most {_MAX_NOISE:.2f}")
    rng = random.Random(seed)
    rows, cols = np.nonzero(_above_diagonal(matrix.n) & ~np.isnan(matrix.array))
    draws = [rng.random() for _ in rows]  # in row order
    # random.uniform's own arithmetic; math.exp, not np.exp whose last bit can differ, keeps the records
    factors = [[math.exp(-level + (level - -level) * u) for u in draws] for level in levels]
    grid = np.repeat(matrix.array[None], len(factors), axis=0)
    with np.errstate(over="ignore", divide="ignore"):  # an entry out of float range is inf or 0: `validate` refuses it
        grid[:, rows, cols] *= factors
        grid[:, cols, rows] = 1.0 / grid[:, rows, cols]
    grid.flags.writeable = False
    return grid


def _unit_weights(solution: tuple[float, ...] | HreError, problem: Problem) -> tuple[float, ...] | None:
    """Unit-sum weights from one solved system; None when it is singular or inadmissible.

    The values of ``synthesize(solution, problem)[1]``, built as it builds them; reads only n and the references.
    """
    if isinstance(solution, HreError) or not _admissible(solution, problem):
        return None
    unit = _unit(_woven(solution, problem))
    # a weight that underflowed: WeightVector raises as `synthesize` does
    return unit if min(unit) > 0.0 else WeightVector(unit, normalized=True).values


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """One record per (noise level, trial), in deterministic order.

    Trials are paired across noise levels: trial t reuses the same base
    matrix and the same noise directions at every level, so the recorded
    distances are directly comparable between levels (common random
    numbers).  Each trial is one stacked pass: its base matrix is perturbed
    at every level into one (L, n, n) stack, and each stage (validation,
    repair, both systems, their solve, the Koczkodaj scan) runs once on it,
    giving every level the bits a level-by-level pass gives.  A level that
    `validate` refuses (an entry pushed out of the float range), or where
    either heuristic fails, keeps both_solved=False and a nan distance.
    """
    by_level: list[list[TrialRecord]] = [[] for _ in config.noise_levels]
    for trial in range(config.trials):
        gen_seed = config.seed * _SEED_STRIDE + 2 * trial
        matrix, weights = generate_consistent(config.n, gen_seed)
        problem = Problem(matrix, {i + 1: weights[i] for i in range(config.reference_count)})
        noisy = _perturbed(matrix, config.noise_levels, gen_seed + 1)
        bad, bad_diagonal = _fatal_masks(noisy)  # reachability is the base matrix's: perturb keeps its pattern
        accepted = ~(bad.any(axis=(1, 2)) | bad_diagonal.any(axis=1)) & is_reachable(problem)[0]
        solutions = iter(())
        if accepted.any():  # `preprocess`, both system builds and their solve, each once on the accepted levels
            filled = _filled(_restored(noisy[accepted]), problem.references)[0]
            block, constants, scale = _parts(filled, problem.references)
            coefficients = np.stack((_averaging(block, scale), _normal(block, scale)[0]), axis=1)  # averaging first
            solutions = iter(_solved(coefficients.reshape(-1, *block.shape[1:]), np.repeat(constants, 2, axis=0)))
        for noise, solvable, (koczkodaj, _), records in zip(config.noise_levels, accepted, _triad_scans(noisy), by_level):
            averaging = least_squares = None
            if solvable:
                averaging = _unit_weights(next(solutions), problem)
                least_squares = _unit_weights(next(solutions), problem)
            solved = averaging is not None and least_squares is not None
            distance = max(abs(a - b) for a, b in zip(averaging, least_squares)) if solved else math.nan
            records.append(TrialRecord(gen_seed, config.n, noise, koczkodaj, distance, solved))
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
