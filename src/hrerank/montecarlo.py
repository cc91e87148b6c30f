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
from .hre_solver import _admissible, _averaging, _parts, _solved, _woven
from .matrix_core import PcMatrix, Problem, _above_diagonal, _bad_entries, _restored, _sum_in_order
from .min_error_solver import _normal

_SEED_STRIDE = 1_000_003  # spreads per-trial seeds away from the base seed
_MAX_NOISE = math.log(np.finfo(float).max)  # above it a noise factor exp(level) overflows
_LOG_WEIGHTS = (math.log(0.1), math.log(10.0))  # true weights are drawn log-uniformly from 0.1 to 10


class TrialRecord(NamedTuple):
    seed: int
    n: int
    noise_level: float
    koczkodaj: float  # nan when no triad is defined
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
    rows, cols = (_above_diagonal(matrix.n) & ~np.isnan(matrix.array)).nonzero()
    high = np.array(levels, dtype=float)[:, None]
    # random.uniform's own a + (b - a) * u for every level and draw (in row order) as one array expression, the
    # same IEEE operations; math.exp entry by entry, not np.exp whose last bit can differ by CPU, keeps the records
    exponents = -high + (high - -high) * np.array([rng.random() for _ in rows])
    factors = np.fromiter(map(math.exp, exponents.ravel().tolist()), float, exponents.size).reshape(exponents.shape)
    grid = matrix.array[None].repeat(len(levels), axis=0)
    with np.errstate(over="ignore", divide="ignore"):  # an entry out of float range is inf or 0: `validate` refuses it
        upper = grid[:, rows, cols] = matrix.array[rows, cols] * factors
        grid[:, cols, rows] = 1.0 / upper
    grid.flags.writeable = False
    return grid


def _unit_rows(solutions: np.ndarray, failures: dict, problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sum weights of each row of a solved stack (B, k), and whether it counts: admissible, not one of ``failures``.

    A row that counts holds the values of ``synthesize(row, problem).normalize()``, built as they build them, and the
    first one with a weight that underflowed to 0 raises `WeightVector`'s ValueError, as `normalize` does.
    """
    counts = _admissible(solutions, problem)
    if failures:
        counts[list(failures)] = False
    unit = _unit(_woven(solutions, problem))
    underflowed = counts & np.logical_or.reduce(unit <= 0.0, axis=1)
    if np.count_nonzero(underflowed):
        WeightVector(unit[underflowed.argmax()].tolist(), normalized=True)  # raises
    return unit, counts


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """One record per (noise level, trial), in deterministic order.

    Trials are paired across noise levels: trial t reuses the same base
    matrix and the same noise directions at every level, so the recorded
    distances are directly comparable between levels (common random
    numbers).  Each trial is one stacked pass: its base matrix is perturbed
    at every level into one (L, n, n) stack, and each stage (validation's
    fatal rule, repair, both systems, their solve, the unit-sum weights and
    their distances, the Koczkodaj scan) runs once on it, giving every level
    the bits a level-by-level pass gives.
    The entries between two references are left as drawn, as `preprocess`
    leaves them: the systems never read them (`_samples` takes the
    unknowns' rows).  A level that `validate` refuses (an entry pushed out
    of the float range), or where either heuristic fails, keeps
    both_solved=False and a nan distance; one with no defined triad records
    a nan K.
    """
    by_level: list[list[TrialRecord]] = [[] for _ in config.noise_levels]
    for trial in range(config.trials):
        gen_seed = config.seed * _SEED_STRIDE + 2 * trial
        matrix, weights = generate_consistent(config.n, gen_seed)
        problem = Problem(matrix, {i + 1: weights[i] for i in range(config.reference_count)})
        noisy = _perturbed(matrix, config.noise_levels, gen_seed + 1)
        # `validate`'s fatal rule; the base matrix is complete, so every unknown is linked to a reference (no
        # reachability search) and perturbing leaves its diagonal at 1: only an entry out of range is refused
        accepted = ~_bad_entries(noisy).any(axis=(1, 2))
        outcomes = iter(())
        if accepted.any():  # repair, both system builds and their solve, each once on the accepted levels
            block, constants, scale = _parts(_restored(noisy[accepted]), problem.references)
            coefficients = np.empty((len(block), 2, *block.shape[1:]))  # averaging first, then least squares
            coefficients[:, 0], coefficients[:, 1] = _averaging(block, scale), _normal(block, scale)[0]
            solutions, failures = _solved(coefficients.reshape(-1, *block.shape[1:]), constants.repeat(2, axis=0))
            unit, counts = _unit_rows(solutions, failures, problem)
            with np.errstate(invalid="ignore"):  # the rows that do not count may hold anything
                distances = np.maximum.reduce(np.abs(unit[0::2] - unit[1::2]), axis=1)
            outcomes = zip((counts[0::2] & counts[1::2]).tolist(), distances.tolist())
        levels = zip(config.noise_levels, accepted.tolist(), _triad_scans(noisy), by_level)
        for noise, solvable, (koczkodaj, _), records in levels:
            solved, distance = next(outcomes) if solvable else (False, math.nan)
            koczkodaj = math.nan if koczkodaj is None else koczkodaj
            records.append(TrialRecord(gen_seed, config.n, noise, koczkodaj, distance if solved else math.nan, solved))
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
    mean_koczkodaj: float  # over trials with a defined K; nan when none has one
    mean_distance: float  # over solved trials; nan when none solved


def summarize(records: list[TrialRecord]) -> list[NoiseLevelSummary]:
    """Per-noise-level means, in first-seen level order."""
    levels = dict.fromkeys(r.noise_level for r in records)
    summaries = []
    for level in levels:
        bucket = [r for r in records if r.noise_level == level]
        solved = [r for r in bucket if r.both_solved]
        defined = [r.koczkodaj for r in bucket if not math.isnan(r.koczkodaj)]
        mean_distance = _sum_in_order(r.distance for r in solved) / len(solved) if solved else math.nan
        summaries.append(
            NoiseLevelSummary(
                noise_level=level,
                trials=len(bucket),
                solved=len(solved),
                mean_koczkodaj=_sum_in_order(defined) / len(defined) if defined else math.nan,
                mean_distance=mean_distance,
            )
        )
    return summaries
