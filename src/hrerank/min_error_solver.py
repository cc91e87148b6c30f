"""Least-squares alternative: minimise the squared one-step estimation error.

Replacing the absolute deviations behind the mean estimation error with
squares turns the problem into a quadratic whose stationary point solves a
symmetric k x k normal system.  Strict diagonal dominance of that system
certifies the stationary point as a true minimum (the Hessian is the same
matrix up to the positive factor 2(n-1)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .baselines import WeightVector
from .errors import IncompleteMatrixError, InadmissibleSolutionError
from .hre_solver import ADMISSIBLE_TOL, LinearSystem, _system_parts, solve_linear, synthesize
from .matrix_core import Prepared, Problem, _ordered_sum, preprocess

GRID_REFINEMENTS = 10  # halvings of the brute-force grid step around the incumbent
BRUTE_FORCE_MAX_UNKNOWNS = 3


@dataclass(frozen=True)
class ErrorSystem:
    """Normal system of the squared-error objective.

    ``s_values[r]`` is the diagonal excess for unknown r: the squared column
    entries of the other unknowns, averaged by 1/(n-1).  The coefficient
    matrix is symmetric with diagonal 1 + s and off-diagonal
    -(m(u,v) + m(v,u))/(n-1); the constants are the same vector the
    averaging system uses.
    """

    system: LinearSystem
    s_values: tuple[float, ...]
    hessian_dominant: bool


@dataclass(frozen=True)
class MinErrorResult:
    weights_raw: WeightVector
    weights_normalized: WeightVector
    verified_minimum: bool  # False when diagonal dominance could not certify it


def build_error_system(problem: Problem) -> ErrorSystem:
    """Assemble the normal system for a preprocessed, complete problem."""
    unknowns, block, constants = _system_parts(problem, "the squared-error system is undefined")
    scale = 1.0 / (problem.n - 1)
    # Python's ** (the C library's pow) rounds differently from x * x in
    # about one case in a thousand; keep its squares
    squares = np.array([v**2 for v in block.ravel().tolist()]).reshape(block.shape)
    np.fill_diagonal(squares, 0.0)
    s_values = _ordered_sum(squares, axis=0) * scale
    coefficients = (block + block.T) * -scale
    np.fill_diagonal(coefficients, 1.0 + s_values)
    off = np.abs(coefficients)
    np.fill_diagonal(off, 0.0)
    dominant = bool((np.abs(np.diagonal(coefficients)) > _ordered_sum(off, axis=1)).all())
    system = LinearSystem(tuple(map(tuple, coefficients.tolist())), constants, unknowns)
    return ErrorSystem(system, tuple(s_values.tolist()), dominant)


def hessian(error_system: ErrorSystem, n: int) -> tuple[tuple[float, ...], ...]:
    """Hessian of the squared-error objective: 2(n-1) times the system matrix."""
    factor = 2 * (n - 1)
    return tuple(
        tuple(factor * v for v in row) for row in error_system.system.coefficients
    )


def squared_error(problem: Problem, unknown_values: tuple[float, ...]) -> float:
    """The quadratic objective itself, for oracles and gradient checks.

    ``unknown_values`` are aligned with ``problem.unknown_indices``; the sum
    runs over all ordered (unknown, other) pairs of the complete matrix.
    """
    m = problem.matrix.entries
    unknowns = problem.unknown_indices
    if len(unknown_values) != len(unknowns):
        raise ValueError(f"expected {len(unknowns)} values, got {len(unknown_values)}")
    mu = dict(problem.references)
    mu.update(zip(unknowns, unknown_values))
    total = 0.0
    for j in unknowns:
        for i in range(1, problem.n + 1):
            if i == j:
                continue
            total += (mu[j] - mu[i] * m[j - 1][i - 1]) ** 2
    return total


def solve_min_error(problem: Problem | Prepared) -> MinErrorResult:
    """Solve the normal system and gate the result on admissibility.

    Succeeds when the system is non-singular and every solved weight is
    strictly positive.  When the coefficient matrix is not strictly
    diagonally dominant the stationary point cannot be certified as a
    minimum here; the result is still returned, flagged accordingly
    (dominance is sufficient for positive definiteness, not necessary).

    A `Prepared` problem from `preprocess` is solved as it is.  Raises
    SingularSystemError or InadmissibleSolutionError on failure.
    """
    prepared, _ = preprocess(problem)
    error_system = build_error_system(prepared)
    solution = solve_linear(error_system.system)
    if min(solution) <= ADMISSIBLE_TOL:
        raise InadmissibleSolutionError(
            "squared-error solution has non-positive weights"
        )
    raw, unit = synthesize(solution, prepared)
    return MinErrorResult(raw, unit, verified_minimum=error_system.hessian_dominant)


def brute_force_min_error(
    problem: Problem,
    bounds: tuple[float, float] | None = None,
    grid_points: int = 11,
) -> WeightVector:
    """Grid-search oracle for the squared-error objective (k <= 3 only).

    Scans a uniform grid over ``bounds`` per unknown axis, then refines by
    halving the step around the incumbent 10 times, re-scanning the same
    number of points each pass.  The returned optimum is accurate to about
    the final step, (hi - lo) / (grid_points - 1) / 2**10 per axis.
    Default bounds: (1e-3, 10 * largest reference weight).
    """
    prepared, _ = preprocess(problem)
    unknowns = prepared.unknown_indices
    k = len(unknowns)
    if k > BRUTE_FORCE_MAX_UNKNOWNS:
        raise ValueError(f"grid search is exponential in the unknowns; {k} > {BRUTE_FORCE_MAX_UNKNOWNS}")
    if not prepared.matrix.is_complete():
        raise IncompleteMatrixError("grid oracle needs a complete matrix")
    if bounds is None:
        bounds = (1e-3, 10.0 * max(prepared.references.values()))
    lo, hi = bounds
    if not (0 < lo < hi):
        raise ValueError("bounds must satisfy 0 < low < high")
    if grid_points < 3:
        raise ValueError("grid needs at least 3 points per axis")

    step = (hi - lo) / (grid_points - 1)
    axis = [lo + t * step for t in range(grid_points)]
    best_point = None
    best_value = math.inf
    for point in itertools.product(axis, repeat=k):
        value = squared_error(prepared, point)
        if value < best_value:
            best_point, best_value = point, value

    half_span = grid_points // 2
    for _ in range(GRID_REFINEMENTS):
        step /= 2.0
        axes = [
            [min(hi, max(lo, center + t * step)) for t in range(-half_span, half_span + 1)]
            for center in best_point
        ]
        for point in itertools.product(*axes):
            value = squared_error(prepared, point)
            if value < best_value:
                best_point, best_value = point, value

    raw, _ = synthesize(best_point, prepared)
    return raw
