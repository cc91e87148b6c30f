"""Classical priority-derivation baselines: eigenvector and geometric mean."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IncompleteMatrixError, NonConvergenceError
from .matrix_core import PcMatrix, _bad_entries, _sum_in_order

POWER_EIG_TOL = 1e-12       # change in eigenvalue estimate between steps
POWER_RESIDUAL_TOL = 1e-10  # max-norm residual required to accept a result
POWER_MAX_ITER = 10_000
NORMALIZED_SUM_TOL = 1e-9


@dataclass(frozen=True)
class WeightVector:
    """Ordered positive weights for concepts 1..n.

    ``normalized`` records whether the values sum to 1; concept c_i maps to
    ``values[i - 1]``.
    """

    values: tuple[float, ...]
    normalized: bool = False

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("weight vector cannot be empty")
        for pos, v in enumerate(vals, start=1):
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"weight for concept {pos} must be positive and finite, got {v!r}")
        if self.normalized and abs(sum(vals) - 1.0) > NORMALIZED_SUM_TOL:
            raise ValueError("normalized vector must sum to 1")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def normalize(self) -> "WeightVector":
        return WeightVector(_unit(self.values), normalized=True)


def _unit(values) -> tuple[float, ...]:
    """Each value divided by their sum added left to right; only a sum that overflows is taken over value / largest."""
    total = _sum_in_order(values)
    if total == math.inf:
        top = max(values)
        values = [v / top for v in values]
        total = _sum_in_order(values)
    return tuple(v / total for v in values)


class EigenResult(NamedTuple):
    lambda_max: float
    vector: WeightVector  # max-norm scale, not sum-normalized
    iterations: int
    residual: float


def _dense(matrix: PcMatrix) -> np.ndarray:
    if not matrix.is_complete():
        raise IncompleteMatrixError("incomplete matrix: every ratio must be specified")
    if _bad_entries(matrix.array).any():  # the fatal-entry rule `validate` applies
        raise ValueError("matrix entries must be positive finite ratios")
    return matrix.array


def principal_eigen(matrix: PcMatrix) -> EigenResult:
    """Dominant eigenpair of a complete positive matrix by power iteration.

    Starts from the uniform vector and renormalizes by the max-norm each
    step; the eigenvalue estimate is the componentwise ratio (M v)_i / v_i
    averaged over i, which is steadier than any single component.  A result
    is accepted once the eigenvalue estimate settles below 1e-12 per step
    and the max-norm residual is at most 1e-10; positivity of the matrix
    guarantees this happens (Perron-Frobenius).
    """
    m = _dense(matrix)
    v = np.ones(matrix.n)
    lam_prev = math.inf
    w = m @ v
    for iteration in range(1, POWER_MAX_ITER + 1):
        lam = float(np.mean(w / v))
        v = w / np.max(np.abs(w))
        w = m @ v  # the residual's product is the next step's
        residual = float(np.max(np.abs(w - lam * v)))
        if abs(lam - lam_prev) < POWER_EIG_TOL and residual <= POWER_RESIDUAL_TOL:
            return EigenResult(lam, WeightVector(tuple(v)), iteration, residual)
        lam_prev = lam
    raise NonConvergenceError(
        f"power iteration did not converge in {POWER_MAX_ITER} iterations",
        residual=residual,
    )


def ev_weights(matrix: PcMatrix) -> WeightVector:
    """Sum-rescaled principal eigenvector of a complete matrix."""
    return principal_eigen(matrix).vector.normalize()


def gm_weights(matrix: PcMatrix) -> WeightVector:
    """Sum-rescaled geometric means of the rows of a complete matrix.

    The means are evaluated in log space (mean of row logs, then exp) so
    large matrices cannot overflow the raw row product.
    """
    m = _dense(matrix)
    g = np.exp(np.mean(np.log(m), axis=1))
    return WeightVector(tuple(g)).normalize()
