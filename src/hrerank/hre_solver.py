"""Rating estimation with fixed reference weights.

The averaging heuristic estimates each unknown weight as the arithmetic
mean of neighbour-weight-times-ratio samples.  When every unknown's ratios
are given its fixed point solves a small linear system, so the pipeline
first tries a direct solve, falling back to the least-squares heuristic and
finally to picking the best Jacobi iterate; otherwise it goes straight to
the iterative route, which simply skips samples whose ratio is unspecified.
A ratio between two references is never read: those weights are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

try:  # np.einsum's C kernel, called directly by the Jacobi step (see `jacobi_iterate`)
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .baselines import WeightVector
from .diagnostics import _errors, estimation_error
from .errors import (
    IncompleteMatrixError,
    InadmissibleSolutionError,
    SingularSystemError,
    SolveFailedError,
)
from .matrix_core import Prepared, Problem, _samples, _system_defined, preprocess

PIVOT_TOL = 1e-12          # pivot magnitude below this means "determinant is 0"
RESIDUAL_TOL = 1e-9        # accepted solves satisfy |Ax-b|_inf <= tol * (1+|b|_inf)
ADMISSIBLE_TOL = 1e-9      # admissible weights exceed this times the largest reference weight
JACOBI_STOP_TOL = 1e-10    # relative max-norm change that counts as converged
JACOBI_MAX_ITER = 1000     # iteration budget on the convergent path
DIVERGENCE_LIMIT = 1e12    # any component beyond this aborts the iteration
NONCONVERGENCE_MARGIN = 1e3  # a stopped run's bounds keep every later change this far above the stop test
SPECTRAL_TOL = 1e-9        # a lower bound on rho(I - a) beyond 1 + this skips the direct solve


@dataclass(frozen=True, eq=False)  # array fields have no usable == or hash
class LinearSystem:
    """Dense k x k system a x = b over the unknown concepts, in ascending concept order.

    ``a`` (k x k) and ``b`` (k) are read-only float64 arrays; nested tuples
    are accepted at construction and copied.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=float)
        # row-major whatever the input's layout: the elimination's dot products
        # and matrix-vector products add in an order that depends on it
        a = np.array(self.a, dtype=float, order="C").reshape(len(b), len(b))
        a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)  # an array field has no usable == or hash
class JacobiRun:
    """All iterates of one averaging run, one row per step actually run.

    ``array`` is a read-only steps x n float64 array in which NaN marks a
    concept with no estimate yet, as in `PcMatrix.array`.  ``iterates`` is
    the same run as tuples of floats with None for NaN, built when read.
    A run that `jacobi_iterate` stopped early, because it provably never
    converges, is neither converged nor diverged and holds fewer rows than
    the budget.
    """

    array: np.ndarray
    converged: bool
    diverged: bool

    @property
    def iterates(self) -> tuple[tuple[float | None, ...], ...]:
        return tuple(tuple(None if v != v else v for v in row) for row in self.array.tolist())


class RankOutcome(NamedTuple):
    """Solution plus provenance: which strategy fired and how it behaved.

    ``weights_raw`` is the answer on the references' scale: they keep
    exactly their input values (``weights_raw.normalize()`` rescales it to
    unit sum), and ``error`` is its mean estimation error.  ``admissible``
    reports whether the first-choice strategy for the problem class (direct
    solve, or a convergent iteration) produced an admissible solution;
    it is False whenever a fallback had to fire.  ``convergence_ok`` is the
    diagonal-dominance test of the built system (None when no system was
    built); ``determinant_ok`` is None until a direct solve was attempted,
    and stays None when `_above_one` proved before it that no positive
    solution exists.  ``iterations_used`` is the number of Jacobi steps
    actually run (0 when none ran); a run stopped because it provably never
    converges counts only the steps it ran.
    """

    weights_raw: WeightVector
    path: str  # direct | jacobi | min-error | best-iterate
    convergence_ok: bool | None
    determinant_ok: bool | None
    admissible: bool
    error: float
    iterations_used: int
    warnings: tuple[str, ...]


# unknown-by-unknown block, right-hand side, 1 / D per unknown: what both systems are built from
SystemParts = tuple[np.ndarray, np.ndarray, np.ndarray]


def build_system(problem: Problem) -> LinearSystem:
    """Linear system whose solution is the averaging heuristic's fixed point.

    Row r (for unknown concept u): unit diagonal, off-diagonal
    -m(u, v)/D_u for the other unknowns v, constant
    sum over references c of m(u, c) * weight(c) / D_u, where D_u is the
    number of u's samples (n - 1 on a complete matrix).

    Expects a preprocessed problem with at least one reference and every
    unknown's ratios given.
    """
    block, b, scale = _system_parts(problem)
    return LinearSystem(_averaging(block, scale), b)


def _averaging(block: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """`build_system`'s coefficients from a stack (..., k, k) of blocks and their 1 / D (..., k)."""
    a = block * -scale[..., None]
    a[..., range(a.shape[-1]), range(a.shape[-1])] = 1.0
    return a


def _system_parts(problem: Problem) -> SystemParts:
    """Unknown-by-unknown block, right-hand side and 1 / D_u, shared by both systems.

    D_u counts unknown u's samples (`_samples`; n - 1 on a complete matrix)
    and the block's diagonal is zero.  The constant for u is sum over
    references c of m(u, c) * weight(c) / D_u.  Raises unless the problem
    has references and unknowns, and IncompleteMatrixError unless the
    system is defined: every ratio of every unknown's row (`_system_defined`).
    """
    if not problem.references:
        raise ValueError("at least one reference concept is required")
    if len(problem.references) == problem.n:
        raise ValueError("no unknown concepts: nothing to solve")
    if not _system_defined(problem.matrix.array, problem.references):
        raise IncompleteMatrixError("incomplete matrix: every ratio of an unknown concept must be specified")
    return _parts(problem.matrix.array, problem.references)


def _parts(a: np.ndarray, references: dict[int, float]) -> SystemParts:
    """`_system_parts` of each matrix of a stack (..., n, n) whose system is defined, stacked alike."""
    rows, ratios, _, counts = _samples(a, references)
    scale = 1.0 / counts
    total = 0.0
    with np.errstate(over="ignore"):  # a constant beyond the float range is inf, which the solve refuses
        for c, w in sorted(references.items()):  # in order, as a plain sum adds
            total = total + ratios[..., c - 1] * w
    return ratios[..., rows], total * scale, scale


def solve_linear(system: LinearSystem) -> tuple[float, ...]:
    """Gaussian elimination with partial pivoting on the augmented array [a | b].

    Raises SingularSystemError before eliminating when a coefficient or
    constant is beyond the float range, when some pivot drops below 1e-12 in
    magnitude (the practical "determinant differs from 0" test) or when the
    computed solution fails the residual bound
    |ax - b|_inf <= 1e-9 * (1 + |b|_inf), which a NaN residual fails.  The
    same elimination as `_solved` on a stack of one.
    """
    if not (np.isfinite(system.a).all() and np.isfinite(system.b).all()):
        raise SingularSystemError("linear system leaves the float range")
    (solution,) = _solved(system.a[None], system.b[None])
    if isinstance(solution, SingularSystemError):
        raise solution
    return solution


def _solved(a: np.ndarray, b: np.ndarray) -> list[tuple[float, ...] | SingularSystemError]:
    """Solve a stack of systems, coefficients (B, k, k) and right-hand sides (B, k), in one pass.

    Returns, in order, each system's solution, or the SingularSystemError
    that `solve_linear` raises for it.  The systems are eliminated together
    as one B x k x (k+1) array: each gets the operations it gets alone, in
    the same order, so the results are the same to the bit.  A system whose
    pivot falls below tolerance is carried to the end with the others and
    reported by its first such column.  The infinities and NaNs its
    near-zero pivots produce stay in its own rows; numpy's warnings about
    them are silenced.
    """
    # row-major, as `LinearSystem` holds them: the order of the products' sums depends on the layout
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    count, k = b.shape
    u = np.concatenate((a, b[:, :, None]), axis=2)  # eliminated in place
    at = np.arange(count)
    with np.errstate(all="ignore"):
        for col in range(k):
            offset = np.abs(u[:, col:, col]).argmax(axis=1)
            if offset.any():  # some system's pivot lies below its diagonal: swap rows
                pivot = col + offset
                rows = u[at, pivot]
                u[at, pivot] = u[:, col]
                u[:, col] = rows
            row = u[:, col]
            # columns up to col are not read again
            below = u[:, col + 1 :]
            below[:, :, col + 1 :] -= (below[:, :, col] / row[:, col, None])[:, :, None] * row[:, None, col + 1 :]
        x = u[:, :, k].copy()
        for col in range(k - 1, -1, -1):
            dot = u[:, col, None, col + 1 : k] @ x[:, col + 1 :, None]
            x[:, col] = (x[:, col] - dot[:, 0, 0]) / u[:, col, col]
        residuals = np.abs((a @ x[:, :, None])[:, :, 0] - b).max(axis=1)
        bounds = RESIDUAL_TOL * (1.0 + np.abs(b).max(axis=1))
    pivots = np.diagonal(u, axis1=1, axis2=2)  # each column's pivot, in place after its swap
    small = np.abs(pivots) < PIVOT_TOL
    first = small.argmax(axis=1)
    results: list[tuple[float, ...] | SingularSystemError] = []
    for i, solution in enumerate(x.tolist()):
        if small[i, first[i]]:
            col = first[i]
            results.append(SingularSystemError(f"pivot {pivots[i, col]:.3e} in column {col + 1} below tolerance"))
        elif not residuals[i] <= bounds[i]:  # a NaN residual fails too
            results.append(SingularSystemError(f"solution residual {residuals[i]:.3e} exceeds tolerance"))
        else:
            results.append(tuple(solution))
    return results


def check_convergence(system: LinearSystem) -> tuple[bool, bool]:
    """Strict diagonal dominance by rows and by columns.

    Either kind guarantees the Jacobi iteration converges; neither holding
    proves nothing (the iteration may still converge).
    """
    return _dominant_columns(system.a.T.copy()), _dominant_columns(system.a)


def _dominant_columns(a: np.ndarray) -> bool:
    """Every |a_jj| above the sum of the other |a_ij| in column j, added in row order (see `jacobi_iterate`)."""
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    return bool((np.abs(np.diagonal(a)) > np.add.reduce(off, axis=0)).all())


def _above_one(system: LinearSystem) -> bool:
    """Whether the averaging system provably has no positive solution, so that a direct solve is wasted.

    The system is (I - M) x = b with M = I - a non-negative, irreducible on
    a complete matrix, and b > 0.  When rho(M) > 1 the left Perron vector
    y > 0 of M gives (1 - rho) y.x = y.b > 0, so x has a negative entry.
    The Collatz-Wielandt bound min_i (Mx)_i / x_i <= rho(M) holds for any
    x >= 0 (over its positive entries); x comes from 4 power steps from the
    ones vector, each scaled to a largest entry of 1.  Mx is x - ax, whose
    rounding moves the bound by about k * 1e-16, far below SPECTRAL_TOL.
    A NaN or infinite bound, and a b beyond the float range (which the
    solve refuses by name), prove nothing.
    """
    x = np.ones(len(system.b))
    with np.errstate(all="ignore"):
        for _ in range(4):
            x = x - system.a @ x
            x /= x.max()
        bound = np.min((x - system.a @ x) / x)
    return 1.0 + SPECTRAL_TOL < bound < math.inf and bool(np.isfinite(system.b).all())


def jacobi_iterate(problem: Problem, max_r: int, window: int | None = None) -> JacobiRun:
    """Run the averaging update, starting from the reference weights only.

    At step r each unknown concept j averages the samples
    m(j, i) * previous_estimate(i) over every other concept i whose ratio
    m(j, i) is specified and whose estimate already exists; the divisor is
    the number of samples actually used.  Reference weights never change.
    In the first step only reference concepts have estimates, so step one
    averages over (at most) the reference set; on a complete matrix every
    later step averages over all n-1 other concepts.

    Concepts that cannot be sampled yet simply stay unestimated for the
    round (NaN in that row of the returned array, None in `iterates`); on a
    reachable problem every concept has an estimate after at most the
    comparison graph's diameter in steps.  Until then (the filling phase)
    each step recounts which estimates exist and how many samples each row
    has, and is tested for divergence on its own.  From then on the counts
    cannot change and the steps run in blocks of 2, 4, 8, ... up to 64.
    After each block the tests of all its steps are made at once, by ufunc
    reductions (``np.maximum.reduce``, ``np.logical_or.reduce``), and the
    run is cut right after the first step that is infinite or beyond 1e12
    in magnitude (tested first) or agrees with the step before to a
    relative 1e-10 in the max-norm.  Later steps never change earlier ones,
    so this is the run a test after every step gives, and the steps
    discarded past the cut are never more than those kept.  The rows are
    written into one buffer that grows by doubling, to ``max_r`` at most.

    Each concept's samples are added one at a time in column order, as a
    sample-by-sample loop adds them, so the iterates are reproducible to
    the bit.  The unknowns' samples are those `_samples` gives.  Their
    ratios are held transposed (row i holds every concept's ratio to i;
    zero where it is missing and on an unknown's diagonal), and a step is
    one ``"ij,i->j"`` sum of products of them with the current estimates,
    written into the step's row and divided there by the sample counts.
    The sum of products calls numpy's C kernel ``c_einsum`` directly, the
    one ``np.einsum`` forwards to when ``optimize`` is False (imported from
    ``numpy._core.multiarray`` on numpy 2.x, ``numpy.core.multiarray`` on
    1.x): the same loop without the Python wrapper.  That kernel's
    sum-of-products loop starts each column's sum at +0.0 and adds
    ratio * estimate for rows i = 0 ... n-1 in turn, rounding the product
    and the sum separately, as the loop does.  A zero ratio adds +0.0 or
    -0.0, which leaves the sum as it is: a sum that starts at +0.0 never
    becomes -0.0.  A reference's column holds only its own ratio 1, counted
    as its one sample, so the same step gives back its weight bit for bit:
    the run is cut at the first infinite estimate, so no 0 * inf term turns
    a kept sum into NaN.  A numpy build whose einsum loop fused the multiply
    and the add into one rounding would change the last bits;
    `test_jacobi_iterates_match_loop` has an example that then fails.

    Given a ``window`` (the number of early iterates `hre_rank` selects
    from), the run also stops once it provably never passes the stop test
    and every row of that window (placed as `_window` places it) exists:
    then the rows past the window could only be thrown away.  Such a run is
    neither converged nor diverged, and holds fewer than ``max_r`` rows.
    The proof is tried after each block while the blocks still double (2
    up to 32), so a converging run pays at most five O(n) checks; without a
    ``window`` the run is the full one.  Past the filling phase each step is
    x <- D^-1 R x with D fixed, so consecutive differences of the unknowns
    obey d' = M d with M = D^-1 M_UU >= 0.  If the last three rows give
    d > 0 on every unknown and l d <= d' <= L d componentwise with l > 0,
    then by induction l^t d' <= d_t <= L^t d' for the difference d_t t
    steps later.  So step t changes by at least l^t max d', and its size is
    at most S(t) = max|x| + max d' * (L + ... + L^t), a constant plus a
    multiple of L^t (or linear in t when L = 1).  Where that constant is
    positive and L > 1, log S is convex and the log of the ratio of the two
    bounds concave; otherwise log S rises at least as fast as t log L >=
    t log l and the ratio falls.  Either way its least value over the
    remaining steps is at the first or the last one, and `_never_converges`
    evaluates just those two: O(n) work and two scalars.  A NaN or
    infinite ratio and a power beyond the float range prove nothing.  A
    later step beyond 1e12 would end the full run as diverged instead, and
    `hre_rank` answers a diverged run as it answers one that merely did
    not converge: from the same window.
    The bounds hold for exact steps; the computed ones round.  Each row is
    a sum of positive terms, so it lies within (n+1) eps (eps = 2.2e-16)
    relative of the exact step from the row before: 2.2e-14 of its size at
    n = 100, 2.2e-11 even added up over `hre_rank`'s 1,000 steps.  The
    proof must therefore clear the stop test by NONCONVERGENCE_MARGIN =
    1e3: every change it bounds stays above 1e-7 of the size, 4,500 times
    that sum at n = 100 and still 45 times it at n = 10,000.

    Expects a preprocessed (reciprocal) problem with references.
    """
    if not problem.references:
        raise ValueError("at least one reference concept is required")
    unknown, ratios, unknown_sampled, _ = _samples(problem.matrix.array, problem.references)
    fixed = [c - 1 for c in problem.references]
    anchors = np.full(problem.n, np.nan)
    anchors[fixed] = list(problem.references.values())
    sampled = np.zeros((problem.n, problem.n), dtype=bool)  # row j: the samples concept j may use
    sampled[unknown] = unknown_sampled
    ratios_t = np.zeros((problem.n, problem.n))
    ratios_t[:, unknown] = ratios.T
    sampled[fixed, fixed] = True  # a reference's one sample: itself, at ratio 1
    ratios_t[fixed, fixed] = 1.0
    out, current = np.empty((0, problem.n)), anchors  # out: the iterates, one row per step
    steps, block, filling = 0, 2, True
    converged = diverged = False
    # an overflow to inf ends the run as diverged; the NaNs of steps past it are cut off
    with np.errstate(over="ignore", invalid="ignore"):
        while steps < max_r:
            if filling:
                known = ~np.isnan(current)
                counts = np.count_nonzero(sampled & known, axis=1)
                divisors = np.where(counts > 0, counts, np.nan)  # no sample yet: no estimate
                filling = not known.all()
                current = np.where(known, current, 0.0)
            tested = not filling and steps > 0  # past the filling phase, with a step before to compare with
            stop = min(steps + block, max_r) if tested else steps + 1
            if stop > len(out):
                grown = np.empty((min(max(2 * len(out), stop, 16), max_r), problem.n))
                grown[:steps] = out[:steps]
                out = grown
            rows = out[steps:stop]
            for row in rows:
                c_einsum("ij,i->j", ratios_t, current, out=row)
                row /= divisors
                current = row
            sizes = np.fmax.reduce(np.abs(rows), axis=1)  # fmax skips the unestimated NaNs
            over = sizes > DIVERGENCE_LIMIT  # inf included
            ends = over
            if tested:
                change = np.maximum.reduce(np.abs(rows - out[steps - 1 : stop - 1]), axis=1)
                ends = over | (change <= JACOBI_STOP_TOL * sizes)
            if np.logical_or.reduce(ends):  # cut the run right after the first step that ends it
                last = int(ends.argmax())
                steps += last + 1
                diverged = bool(over[last])
                converged = not diverged
                break
            steps = stop
            if tested:
                if (window is not None and block < 64 and steps >= _window(out[:steps], window).stop
                        and _never_converges(out[steps - 3 : steps, unknown], sizes[-1], max_r - steps)):
                    break
                block = min(2 * block, 64)
    array = out[:steps]
    array.flags.writeable = False
    return JacobiRun(array, converged, diverged)


def _never_converges(rows: np.ndarray, size: float, remaining: int) -> bool:
    """Whether none of the next ``remaining`` fixed-divisor steps can pass the stop test (see `jacobi_iterate`).

    ``rows`` holds the unknowns' estimates in the last three steps, each
    step computed from a row with every estimate, and ``size`` is the last
    step's largest magnitude.
    """
    delta, after = rows[1] - rows[0], rows[2] - rows[1]
    if not (delta > 0).all():  # NaN fails
        return False
    ratios = after / delta
    low, high, top = float(ratios.min()), float(ratios.max()), float(after.max())  # Python floats: pow raises on overflow
    if not 0 < low <= high < math.inf:
        return False

    def ratio(t: int) -> float:  # least change over largest size, t steps on
        total = t if high == 1 else high * math.expm1(t * math.log(high)) / (high - 1)  # high + ... + high^t
        return low**t * top / (size + top * total)

    try:
        least = min(ratio(1), ratio(remaining))
    except OverflowError:
        return False
    return least > NONCONVERGENCE_MARGIN * JACOBI_STOP_TOL  # a NaN fails


def _window(rows: np.ndarray, size: int) -> slice:
    """The rows `hre_rank` selects its best iterate from: the first ``size`` of a run's ``rows``.

    When none of those has an estimate for every concept (a long ring may
    leave one unestimated in every early iterate), the ``size`` rows from
    the first that has; on a reachable problem that row is within n steps.
    """
    start = 0
    if np.isnan(rows[:size]).any(axis=1).all():
        start = int(np.isnan(rows[: rows.shape[1]]).any(axis=1).argmin())
    return slice(start, start + size)


def _admissible(values, problem: Problem) -> bool | np.ndarray:
    """The package's one admissibility rule: every value finite and above ADMISSIBLE_TOL times the largest reference.

    ``values`` is a sequence of floats, or a 2-d array whose rows are then
    tested together, one array comparison for all of them: a bool per row.
    """
    low = ADMISSIBLE_TOL * max(problem.references.values())
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return ((low < values) & (values < math.inf)).all(axis=1)
    return all(low < v < math.inf for v in values)  # NaN fails both comparisons


def select_best_iterate(
    iterates: np.ndarray | tuple[tuple[float | None, ...], ...], problem: Problem
) -> tuple[WeightVector, float]:
    """Among fully-defined admissible iterates, the one with the least mean error, and that error.

    ``iterates`` is a steps x n array with NaN for "no estimate yet", such
    as `JacobiRun.array`, or rows of floats with None for NaN.  The
    admissible rows are scored together, each as `estimation_error` scores
    it, so the returned error equals its mean bit for bit; a NaN or
    infinite error never wins.  Ties go to the earliest iterate.  Raises
    SolveFailedError when no iterate is admissible, saying how many it
    examined and why each failed.
    """
    rows = np.asarray(iterates, dtype=float).reshape(len(iterates), problem.n)
    candidates = rows[_admissible(rows, problem)]
    means = _errors(problem, candidates)[1] if problem.unknown_indices else np.zeros(len(candidates))
    scored = np.flatnonzero(means < math.inf)  # NaN compares false
    if not len(scored):
        partial = int(np.isnan(rows).any(axis=1).sum())
        why = {"with a concept still without an estimate": partial,
               "with a weight that is not positive and finite": len(rows) - partial - len(candidates),
               "whose mean error is not finite": len(candidates)}
        reasons = ", ".join(f"{count} {reason}" for reason, count in why.items() if count)
        raise SolveFailedError(f"no admissible iterate among the {len(rows)} examined" + (reasons and f": {reasons}"))
    best = scored[means[scored].argmin()]
    return WeightVector(candidates[best].tolist()), float(means[best])


def synthesize(solved: tuple[float, ...], problem: Problem) -> WeightVector:
    """Weave solved unknowns and fixed reference weights into one full vector.

    Reference concepts keep their input weights bit for bit.  Raises
    InadmissibleSolutionError unless the solved values are admissible.
    """
    expected = problem.n - len(problem.references)
    if len(solved) != expected:
        raise ValueError(f"expected {expected} solved values, got {len(solved)}")
    if not _admissible(solved, problem):
        nonpositive = [u for u, v in zip(problem.unknown_indices, solved) if not _admissible((v,), problem)]
        raise InadmissibleSolutionError(f"non-positive solved weight for concept(s) {nonpositive}")
    return WeightVector(_woven(solved, problem))


def _woven(solved, problem: Problem) -> list[float]:
    """Every concept's weight in index order: the references' own, the solved values in the unknowns' places."""
    values = iter(solved)
    return [problem.references[i] if i in problem.references else next(values) for i in range(1, problem.n + 1)]


def hre_rank(problem: Problem | Prepared, *, max_iterations: int = 10) -> RankOutcome:
    """Full solution pipeline: validate, repair, solve, attach provenance.

    Where every unknown's ratios are given (`_system_defined`) the system
    is solved directly; a singular or inadmissible direct solution falls
    back to the least-squares heuristic and then to the best Jacobi
    iterate.  The direct solve is skipped, with the same warning, when
    `_above_one` proves that it has no positive solution.  Otherwise the
    iterative route runs: its limit when it converges to admissible
    weights, otherwise again the best early iterate.
    ``max_iterations`` is the number of early iterates examined: the first
    ones, or, when none of those has an estimate for every concept, as many
    from the first iterate that has (`_window`).  The iteration stops early,
    with the same answer, once it provably never converges and those
    iterates exist (see `jacobi_iterate`); ``iterations_used`` then counts
    the steps actually run.

    A `Prepared` problem from `preprocess` is solved as it is, without
    validating or repairing it again.

    Raises ValidationError for fatally invalid input (including unreachable
    concepts), ValueError when no reference concept is given or
    ``max_iterations`` is below 1, and SolveFailedError when every
    strategy fails; its message gives each strategy's failure in turn.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    prepared, issues = ready = preprocess(problem)
    warnings = [str(issue) for issue in issues]

    convergence_ok: bool | None = None
    determinant_ok: bool | None = None
    raw = run = error = None
    defined = _system_defined(prepared.matrix.array, prepared.references)  # else the iterative route

    if not prepared.unknown_indices:
        raw = synthesize((), prepared)
        path = "direct"
    elif defined:
        system = build_system(prepared)
        convergence_ok = any(check_convergence(system))
        try:
            if _above_one(system):  # the elimination could only end in the error below
                raise InadmissibleSolutionError
            determinant_ok = True
            raw = synthesize(solve_linear(system), prepared)
            path = "direct"
        except SingularSystemError as exc:
            determinant_ok = False
            warnings.append(f"direct solve failed: {exc}")
        except InadmissibleSolutionError:
            warnings.append("direct solution has non-positive weights")
        if raw is None:
            from . import min_error_solver  # deferred: it builds on this module, and a direct solve never needs it

            try:
                raw, verified_minimum = min_error_solver.solve_min_error(ready)
                path = "min-error"
                if not verified_minimum:
                    warnings.append(min_error_solver.UNVERIFIED_MINIMUM)
            except (SingularSystemError, InadmissibleSolutionError) as exc:
                warnings.append(f"least-squares heuristic failed: {exc}")
                run = jacobi_iterate(prepared, max_iterations)
    else:
        run = jacobi_iterate(prepared, JACOBI_MAX_ITER, max_iterations)
        if run.converged and _admissible(run.array[-1], prepared):  # a converged run's last row has every estimate
            raw = WeightVector(run.array[-1].tolist())
            path = "jacobi"
        else:
            warnings.append("iteration limit has non-positive weights" if run.converged else "iteration did not converge")
    if raw is None:
        try:
            raw, error = select_best_iterate(run.array[_window(run.array, max_iterations)], prepared)
        except SolveFailedError as exc:  # say why each rung before it failed too
            raise SolveFailedError("; ".join([*warnings[len(issues) :], str(exc)])) from None
        path = "best-iterate"
        if not defined:  # the iterative route's warning announces the selection it made
            warnings[-1] += "; selecting the best early iterate"

    return RankOutcome(
        weights_raw=raw,
        path=path,
        convergence_ok=convergence_ok,
        determinant_ok=determinant_ok,
        admissible=path in ("direct", "jacobi"),
        error=estimation_error(prepared, raw)[1] if error is None else error,
        iterations_used=0 if run is None else len(run.array),
        warnings=tuple(warnings),
    )
