"""Least-squares alternative: minimise the squared one-step estimation error.

Replacing the absolute deviations behind the mean estimation error with
squares turns the problem into a quadratic whose stationary point solves a
symmetric k x k normal system.  That point is always the unique minimum.
The objective is the sum, over each unknown u and each other concept i, of
(mu_u - m(u, i) mu_i)^2, where a reference's mu_i is its fixed weight.
Its Hessian is 2(n - 1) A, with A the normal matrix, and (n - 1) A is the
Gram matrix sum v v^T of the terms' linear parts v.  The system is built
only when every ratio of every unknown's row is given, so each unknown u
has its r terms against the references, whose linear parts are mu_u
alone.  Those give (n - 1) mu^T A mu >= r |mu|^2: A is positive definite
with smallest eigenvalue at least r / (n - 1) on every input that reaches
the solve.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .baselines import WeightVector
from .hre_solver import LinearSystem, _diagonal, _system_parts, solve_linear, synthesize
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


class MinErrorResult(NamedTuple):
    weights_raw: WeightVector


def build_error_system(problem: Problem) -> ErrorSystem:
    """Assemble the normal system for a preprocessed problem whose averaging system is defined (see `_system_parts`)."""
    block, b, scale = _system_parts(problem)
    a, s_values = _normal(block, scale)
    return ErrorSystem(LinearSystem._from_arrays(a, b), tuple(s_values.tolist()))


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
    admissible; the solution is then the objective's minimum (see the
    module docstring).

    A `Prepared` problem from `preprocess` is solved as it is.  A problem
    with no unknowns gives back its reference weights.  Raises
    SingularSystemError (`solve_linear`'s, including a system beyond the
    float range) or InadmissibleSolutionError on failure.
    """
    prepared, _ = preprocess(problem)
    if not prepared.unknown_indices:
        return MinErrorResult(synthesize((), prepared))
    return MinErrorResult(synthesize(solve_linear(build_error_system(prepared).system), prepared))
