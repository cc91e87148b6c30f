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
from .hre_solver import LinearSystem, _diagonal, _dominant_columns, _system_parts, solve_linear, synthesize
from .matrix_core import Prepared, Problem, preprocess


class ErrorSystem(NamedTuple):
    """Normal system of the squared-error objective.

    ``s_values[r]`` is the diagonal excess for unknown r: the squared column
    entries of the other unknowns, averaged by 1/(n-1).  The coefficient
    matrix is symmetric with diagonal 1 + s and off-diagonal
    -(m(u,v) + m(v,u))/(n-1); the right-hand side is the averaging
    system's.
    """

    system: LinearSystem
    s_values: tuple[float, ...]
    hessian_dominant: bool


UNVERIFIED_MINIMUM = "least-squares stationary point not verified as a minimum"


class MinErrorResult(NamedTuple):
    weights_raw: WeightVector
    verified_minimum: bool  # False when diagonal dominance could not certify it


def build_error_system(problem: Problem) -> ErrorSystem:
    """Assemble the normal system for a preprocessed problem whose averaging system is defined (see `_system_parts`)."""
    block, b, scale = _system_parts(problem)
    a, s_values = _normal(block, scale)
    # a is exactly symmetric, so its columns are its rows
    return ErrorSystem(LinearSystem._from_arrays(a, b), tuple(s_values.tolist()), _dominant_columns(a))


@np.errstate(over="ignore")  # a square or a sum of squares beyond the float range is inf, which the solve refuses
def _normal(block: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`build_error_system`'s row-major coefficients and s values from a stack (..., k, k) of blocks and their 1 / D."""
    # C-ordered sums down axis -2 add in row order (see `jacobi_iterate`); the block's diagonal is zero
    s_values = np.add.reduce(np.multiply(block, block, order="C"), axis=-2) * scale
    a = np.multiply(block + block.swapaxes(-1, -2), -scale[..., None], order="C")
    _diagonal(a)[...] = 1.0 + s_values
    return a, s_values


def solve_min_error(problem: Problem | Prepared) -> MinErrorResult:
    """Solve the normal system; `synthesize` gates the result on admissibility.

    Succeeds when the system is non-singular and the solved weights are
    admissible.  When the coefficient matrix is not strictly
    diagonally dominant the stationary point cannot be certified as a
    minimum here; the result is still returned, flagged accordingly
    (dominance is sufficient for positive definiteness, not necessary).

    A `Prepared` problem from `preprocess` is solved as it is.  A problem
    with no unknowns gives back its reference weights.  Raises
    SingularSystemError (`solve_linear`'s, including a system beyond the
    float range) or InadmissibleSolutionError on failure.
    """
    prepared, _ = preprocess(problem)
    if not prepared.unknown_indices:
        return MinErrorResult(synthesize((), prepared), verified_minimum=True)
    error_system = build_error_system(prepared)
    return MinErrorResult(synthesize(solve_linear(error_system.system), prepared), error_system.hessian_dominant)
