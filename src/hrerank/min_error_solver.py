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
from .hre_solver import LinearSystem, SystemParts, _dominant_columns, _system_parts, solve_linear, synthesize
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


class MinErrorResult(NamedTuple):
    weights_raw: WeightVector
    weights_normalized: WeightVector
    verified_minimum: bool  # False when diagonal dominance could not certify it


def build_error_system(problem: Problem, parts: SystemParts | None = None) -> ErrorSystem:
    """Assemble the normal system for a preprocessed, complete problem.

    ``parts``, from `_system_parts` on the same problem, saves building them
    again when the averaging system was built from them first.
    """
    block, b, scale = _system_parts(problem) if parts is None else parts
    a, s_values = _normal(block, scale)
    # a is exactly symmetric, so its columns are its rows
    return ErrorSystem(LinearSystem(a, b), tuple(s_values.tolist()), _dominant_columns(a))


@np.errstate(over="ignore")  # a square or a sum of squares beyond the float range is inf, which the solve refuses
def _normal(block: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`build_error_system`'s coefficients and s values from a stack (..., k, k) of blocks and their 1 / D."""
    # C-ordered sums down axis -2 add in row order (see `jacobi_iterate`); the block's diagonal is zero
    s_values = np.add.reduce(_squares(block), axis=-2) * scale
    a = (block + np.swapaxes(block, -1, -2)) * -scale[..., None]
    a[..., range(a.shape[-1]), range(a.shape[-1])] = 1.0 + s_values
    return a, s_values


def _squares(block: np.ndarray) -> np.ndarray:
    """Each block's entries squared with Python's ** (the C library's pow), which rounds differently
    from x * x in about one case in a thousand; a block where ** overflows takes x * x.  Row-major."""
    squares = []
    for one in block.reshape(-1, *block.shape[-2:]):
        try:
            squares.append([v**2 for v in one.ravel().tolist()])
        except OverflowError:  # ** raises where * gives inf
            squares.append((one * one).ravel().tolist())
    return np.array(squares).reshape(block.shape)


def solve_min_error(problem: Problem | Prepared, parts: SystemParts | None = None) -> MinErrorResult:
    """Solve the normal system; `synthesize` gates the result on admissibility.

    Succeeds when the system is non-singular and the solved weights are
    admissible.  When the coefficient matrix is not strictly
    diagonally dominant the stationary point cannot be certified as a
    minimum here; the result is still returned, flagged accordingly
    (dominance is sufficient for positive definiteness, not necessary).

    A `Prepared` problem from `preprocess` is solved as it is; ``parts`` is
    passed on to `build_error_system`.  Raises SingularSystemError or
    InadmissibleSolutionError on failure.
    """
    prepared, _ = preprocess(problem)
    error_system = build_error_system(prepared, parts)
    raw, unit = synthesize(solve_linear(error_system.system), prepared)
    return MinErrorResult(raw, unit, verified_minimum=error_system.hessian_dominant)
