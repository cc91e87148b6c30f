"""Least-squares alternative: minimise the squared one-step estimation error.

Replacing the absolute deviations behind the mean estimation error with
squares turns the problem into a quadratic whose stationary point solves a
symmetric k x k normal system.  Strict diagonal dominance of that system
certifies the stationary point as a true minimum (the Hessian is the same
matrix up to the positive factor 2(n-1)).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .baselines import WeightVector
from .errors import InadmissibleSolutionError
from .hre_solver import ADMISSIBLE_TOL, LinearSystem, SystemParts, _system_parts, solve_linear, synthesize
from .matrix_core import Prepared, Problem, preprocess


class ErrorSystem(NamedTuple):
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


class MinErrorResult(NamedTuple):
    weights_raw: WeightVector
    weights_normalized: WeightVector
    verified_minimum: bool  # False when diagonal dominance could not certify it


def build_error_system(problem: Problem, parts: SystemParts | None = None) -> ErrorSystem:
    """Assemble the normal system for a preprocessed, complete problem.

    ``parts``, from `_system_parts` on the same problem, saves building them
    again when the averaging system was built from them first.
    """
    undefined = "the squared-error system is undefined"
    unknowns, block, constants, scale = _system_parts(problem, undefined) if parts is None else parts
    # Python's ** (the C library's pow) rounds differently from x * x in
    # about one case in a thousand; keep its squares
    squares = np.array([v**2 for v in block.ravel().tolist()]).reshape(block.shape)
    # C-ordered sums down axis 0 add in row order (see `jacobi_iterate`); the block's diagonal is zero
    s_values = np.add.reduce(squares, axis=0) * scale
    coefficients = (block + block.T) * -scale[:, None]
    np.fill_diagonal(coefficients, 1.0 + s_values)
    off = np.abs(coefficients)
    np.fill_diagonal(off, 0.0)
    # the matrix is exactly symmetric, so its column sums are its row sums
    dominant = bool((np.abs(np.diagonal(coefficients)) > np.add.reduce(off, axis=0)).all())
    system = LinearSystem(coefficients, constants, unknowns)
    return ErrorSystem(system, tuple(s_values.tolist()), dominant)


def solve_min_error(problem: Problem | Prepared, parts: SystemParts | None = None) -> MinErrorResult:
    """Solve the normal system and gate the result on admissibility.

    Succeeds when the system is non-singular and every solved weight is
    strictly positive.  When the coefficient matrix is not strictly
    diagonally dominant the stationary point cannot be certified as a
    minimum here; the result is still returned, flagged accordingly
    (dominance is sufficient for positive definiteness, not necessary).

    A `Prepared` problem from `preprocess` is solved as it is; ``parts`` is
    passed on to `build_error_system`.  Raises SingularSystemError or
    InadmissibleSolutionError on failure.
    """
    prepared, _ = preprocess(problem)
    error_system = build_error_system(prepared, parts)
    solution = solve_linear(error_system.system)
    if min(solution) <= ADMISSIBLE_TOL:
        raise InadmissibleSolutionError(
            "squared-error solution has non-positive weights"
        )
    raw, unit = synthesize(solution, prepared)
    return MinErrorResult(raw, unit, verified_minimum=error_system.hessian_dominant)
