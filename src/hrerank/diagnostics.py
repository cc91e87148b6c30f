"""Inconsistency indices, estimation error, and the order-preservation check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baselines import WeightVector, principal_eigen
from .errors import IncompleteMatrixError, NonConvergenceError
from .matrix_core import PcMatrix, Problem, _above_diagonal, _samples, restore_reciprocity

SCAN_BLOCK = 1 << 13  # float64 entries per block of a scan: 64 KiB, under glibc's 128 KiB mmap threshold, so no block is mapped anew
_NO_INDICES = np.empty(0, dtype=np.intp)


class InconsistencyReport(NamedTuple):
    """Saaty CI (complete matrices only) and Koczkodaj index side by side."""

    saaty_ci: float | None
    koczkodaj: float | None
    triads_evaluated: int


class PopViolation(NamedTuple):
    """Order-of-preference failure: a >1 ratio whose weights are not ordered."""

    quadruple: tuple[int, int, int, int]
    failed_pairs: tuple[tuple[int, int], ...]  # subset of {(i,j), (k,l)}


class PoipViolation(NamedTuple):
    """Intensity failure: m_ij > m_kl but mu_i/mu_j <= mu_k/mu_l."""

    quadruple: tuple[int, int, int, int]
    lhs: float  # mu_i / mu_j
    rhs: float  # mu_k / mu_l


# CopReport's columns: the dtype and shape of each
_COP_COLUMNS = {"pop_quadruples": (np.int64, (-1, 4)), "pop_failed": (bool, (-1, 2)),
                "poip_quadruples": (np.int64, (-1, 4)), "lhs": (float, -1), "rhs": (float, -1)}


@dataclass(frozen=True, eq=False)  # array fields have no usable == or hash
class CopReport:
    """Violations of the condition of order preservation, held as columns.

    POP violations are ``pop_quadruples`` (V x 4 concept indices) and
    ``pop_failed`` (V x 2 bool: whether the (i,j) pair, then the (k,l) pair,
    is out of order); POIP violations are ``poip_quadruples`` (W x 4) with
    ``lhs`` and ``rhs`` (W float64 ratios).  Each is copied into a read-only
    array.  ``pop_violations`` and ``poip_violations`` are the same
    violations as tuples of `PopViolation` and `PoipViolation`, built when
    read.  Two reports are equal exactly when their counts and violation
    tuples are.
    """

    pop_quadruples: np.ndarray
    pop_failed: np.ndarray
    poip_quadruples: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    quadruples_checked: int

    def __post_init__(self):
        for name, (dtype, shape) in _COP_COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype).reshape(shape)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "quadruples_checked", int(self.quadruples_checked))

    @property
    def pop_violations(self) -> tuple[PopViolation, ...]:
        return tuple(
            PopViolation(tuple(q), (tuple(q[:2]),) * head + (tuple(q[2:]),) * tail)
            for q, (head, tail) in zip(self.pop_quadruples.tolist(), self.pop_failed.tolist())
        )

    @property
    def poip_violations(self) -> tuple[PoipViolation, ...]:
        return tuple(
            PoipViolation(tuple(q), lhs, rhs)
            for q, lhs, rhs in zip(self.poip_quadruples.tolist(), self.lhs.tolist(), self.rhs.tolist())
        )

    @property
    def satisfies_cop(self) -> bool:
        return not len(self.pop_quadruples) and not len(self.poip_quadruples)

    def __eq__(self, other):
        if not isinstance(other, CopReport):
            return NotImplemented
        # == on the views: NaN ratios differ (each view builds fresh floats), -0.0 equals 0.0
        return self.quadruples_checked == other.quadruples_checked and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COP_COLUMNS
        )


def _triad_scans(a: np.ndarray) -> list[tuple[float | None, int]]:
    """Koczkodaj's index and the number of complete triads of each matrix of a stack (..., n, n).

    Each triad i < j < k with m_ij, m_ik and m_kj specified contributes
    min(|1 - q|, |1 - 1/q|) with q = (m_ik m_kj) / m_ij.  That contribution
    only grows as q moves away from 1 on either side (also in floating
    point, where each step rounds monotonically), so the index is the
    larger contribution of the smallest and the largest q; no other triad
    is evaluated.  The q values are formed over the triads alone, slab by
    slab of the middle index j (j x (n - 1 - j) values per matrix, at most
    about n^2 / 4), never as an n x n x n array.  Consecutive j make one
    block across the whole stack, of at most SCAN_BLOCK entries (one j when
    the stack is larger); each block's extremes go into slots combined
    once, and fmin and fmax pick the same extremes in any order.  When every
    entry is finite and non-zero no q can be NaN (a product of two such
    entries may overflow or underflow, but never both at once, and inf or 0
    over a finite non-zero entry stays inf or 0), so every matrix counts
    C(n, 3) triads; otherwise the non-NaN q are counted block by block.
    Returns one (index, count) pair per matrix, in order; (None, 0) for a
    matrix with no complete triad.
    """
    n = a.shape[-1]
    a = a.reshape(-1, n, n)
    above = _above_diagonal(n)
    upper = np.where(above, a, np.nan)  # m_ij, i < j
    lower = np.where(above.T, a, np.nan)  # m_kj, j < k
    step = max(1, SCAN_BLOCK // a.size)  # middle indices per block
    starts = range(1, n - 1, step)
    # one slot per block, after a first slot that holds the bounds of a matrix without triads
    low = np.full((len(starts) + 1, len(a)), math.inf)
    high = -low
    counted = not (np.isfinite(a).all() and a.all())
    count = np.full(len(a), 0 if counted else math.comb(n, 3))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for slot, j0 in enumerate(starts, 1):
            j1 = min(n - 1, j0 + step)
            # q[., j, i, k] = (m_ik * m_kj) / m_ij over i < j1 - 1 and k > j0, NaN unless i < j < k and all three
            # are given (a masked m_kj or m_ij makes it NaN whatever m_ik is); no padding when the block is one j
            q = a[:, None, : j1 - 1, j0 + 1 :] * lower[:, j0 + 1 :, j0:j1].swapaxes(1, 2)[:, :, None, :]
            q /= upper[:, : j1 - 1, j0:j1].swapaxes(1, 2)[:, :, :, None]
            if counted:
                count += np.count_nonzero(q == q, axis=(1, 2, 3))  # NaN compares false
            low[slot] = np.fmin.reduce(q, axis=(1, 2, 3))  # NaN for an all-NaN slice, which the combination skips
            high[slot] = np.fmax.reduce(q, axis=(1, 2, 3))
    bounds = zip(np.fmin.reduce(low).tolist(), np.fmax.reduce(high).tolist())
    # a q that underflowed to 0 contributes its limit, 1
    index = [max(min(abs(1.0 - q), abs(1.0 - 1.0 / q)) if q else 1.0 for q in pair) for pair in bounds]
    return [(k, found) if found else (None, 0) for k, found in zip(index, count.tolist())]


def koczkodaj_index(matrix: PcMatrix) -> float | None:
    """Worst triad-level inconsistency of a reciprocal matrix.

    Each fully specified triad {i, j, k} contributes
    min(|1 - m_ij/(m_ik m_kj)|, |1 - (m_ik m_kj)/m_ij|); the index is the
    maximum contribution, found by `_triad_scans`.  Returns None when no
    complete triad exists (only possible for incomplete matrices).  Run
    `restore_reciprocity` first: on a reciprocal matrix the contribution
    does not depend on the triad's orientation, which is what makes the
    unordered-triad scan valid.
    """
    if matrix.n <= 2:
        raise ValueError("the triad-based index needs at least 3 concepts")
    return _triad_scans(matrix.array)[0][0]


def saaty_ci(matrix: PcMatrix) -> float:
    """Eigenvalue-based consistency index (lambda_max - n) / (n - 1).

    Requires a complete matrix; raises IncompleteMatrixError otherwise.
    """
    eig = principal_eigen(matrix)
    return (eig.lambda_max - matrix.n) / (matrix.n - 1)


def inconsistency_report(matrix: PcMatrix, restored: PcMatrix | None = None) -> InconsistencyReport:
    """CI of the raw matrix (None if incomplete or power iteration fails) plus Koczkodaj of its restored form.

    ``restored`` is that form when the caller has it already; otherwise it is made here.
    """
    try:
        ci = saaty_ci(matrix)
    except (IncompleteMatrixError, NonConvergenceError):
        ci = None
    ((k, triads),) = _triad_scans((restore_reciprocity(matrix) if restored is None else restored).array)
    return InconsistencyReport(ci, k, triads)


def estimation_error(problem: Problem, mu: WeightVector) -> tuple[dict[int, float], float]:
    """Average absolute one-step estimation error of mu on the unknown concepts.

    For each unknown c_j the row entries act as predictors: every specified
    m_ji turns mu(c_i) into the sample m_ji * mu(c_i) of mu(c_j).  The
    per-concept error is the mean absolute deviation of those samples from
    mu(c_j); the headline figure is the mean over the unknown set.  Note the
    value scales with mu, so compare errors only at a common scale.

    Raises ValueError if mu has the wrong length or some unknown concept has
    no specified ratio at all (an unreachable concept).
    """
    n = problem.n
    if len(mu) != n:
        raise ValueError(f"weight vector has {len(mu)} entries, expected {n}")
    unknowns = problem.unknown_indices
    if not unknowns:
        return {}, 0.0
    per, mean = _errors(problem, np.array([mu.values], dtype=float))
    return dict(zip(unknowns, per[0].tolist())), float(mean[0])


def _errors(problem: Problem, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`estimation_error` of each weight row of a stack (B, n): per-unknown errors (B, k) and means (B).

    The rows are scored in blocks of at most SCAN_BLOCK deviations (one row
    per block when a row has more).  Expects a problem with unknowns.
    """
    rows, ratios, sampled, counts = _samples(problem.matrix.array, problem.references)
    if not counts.all():
        unknown = problem.unknown_indices[int(np.argmin(counts))]
        raise ValueError(f"concept {unknown} has no specified ratio to estimate it from")
    per = np.empty((len(w), len(rows)))
    step = max(1, SCAN_BLOCK // ratios.size)  # weight rows per block
    for b0 in range(0, len(w), step):
        block = w[b0 : b0 + step]
        with np.errstate(over="ignore"):  # a product beyond the float range is an infinite deviation
            deviations = np.where(sampled, np.abs(block[:, rows, None] - block[:, None, :] * ratios), 0.0)
        # n x B x k, C order: summed down axis 0 in column order, as `jacobi_iterate` sums
        deviations = deviations.transpose(2, 0, 1).copy()
        # one unknown and one row make one contiguous column, which numpy adds pairwise: take its last prefix sum
        sums = np.add.reduce(deviations, axis=0) if len(rows) > 1 else np.cumsum(deviations, axis=0)[-1]
        per[b0 : b0 + step] = sums / counts
    # left to right, one rounding per addition, as `_sum_in_order` adds
    return per, np.cumsum(per, axis=1)[:, -1] / len(rows)


def cop_check(matrix: PcMatrix, mu: WeightVector) -> CopReport:
    """Condition-of-order-preservation check of mu against the judgments.

    Scans ordered pairs of ordered pairs ((i,j), (k,l)) with both entries
    specified, m_ij > 1, m_kl >= 1 and m_ij > m_kl.  The comparison pair is
    allowed to sit at exactly 1 so that a strict judgment is also tested
    against every indifference judgment; otherwise a matrix with a single
    entry above 1 could never fail the check.  For each such quadruple:

    * order of preference: mu must rank i above j, and k above l when the
      (k,l) judgment is itself strict;
    * order of intensity: mu_i/mu_j must strictly exceed mu_k/mu_l (equal
      ratios count as violations).

    The verdict depends on mu only through its ratios, so it is invariant
    under uniform rescaling.  Quadruples are counted with one sort of the
    judgments; violations come from boolean masks over blocks of (strict,
    comparable) pairs of at most 8 * SCAN_BLOCK entries, or one strict pair's
    row when there are more comparable judgments than that, in row-major
    order of (i,j), then of (k,l).  Each block keeps only the judgment
    indices of its violations; the report's columns are gathered from the
    judgment tables once, and no per-violation object is built.
    """
    n = matrix.n
    if len(mu) != n:
        raise ValueError(f"weight vector has {len(mu)} entries, expected {n}")
    a = matrix.array
    i, j = np.nonzero((a >= 1.0) & ~np.eye(n, dtype=bool))  # comparable judgments, row-major; NaN compares false
    m = a[i, j]
    w = np.array(mu.values)
    with np.errstate(over="ignore", under="ignore"):
        ratio = w[i] / w[j]
    unranked = w[i] <= w[j]  # mu does not put i above j
    fails_as_kl = unranked & (m > 1.0)
    strict = np.flatnonzero(m > 1.0)
    checked = int(np.searchsorted(np.sort(m), m[strict], side="left").sum())

    blocks = [(_NO_INDICES,) * 4]  # per block: judgment indices x, y of its POP, then its POIP violations
    step = max(1, 8 * SCAN_BLOCK // max(1, len(m)))  # strict pairs per block: its masks take 1 byte an entry, not 8
    for s0 in range(0, len(strict), step):
        s = strict[s0 : s0 + step]
        beats = m[s, None] > m  # the quadruples of this block
        pop_r, pop_c = np.nonzero(beats & (unranked[s, None] | fails_as_kl))  # row-major: (i,j), then (k,l)
        poip_r, poip_c = np.nonzero(beats & (ratio[s, None] <= ratio))
        blocks.append((s[pop_r], pop_c, s[poip_r], poip_c))
    pop_x, pop_y, poip_x, poip_y = (np.concatenate(column) for column in zip(*blocks))
    pairs = np.stack((i + 1, j + 1), axis=1)
    return CopReport(
        np.concatenate((pairs[pop_x], pairs[pop_y]), axis=1),
        np.stack((unranked[pop_x], fails_as_kl[pop_y]), axis=1),
        np.concatenate((pairs[poip_x], pairs[poip_y]), axis=1),
        ratio[poip_x],
        ratio[poip_y],
        checked,
    )
