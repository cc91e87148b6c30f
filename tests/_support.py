"""Shared test helpers: printed-value tolerances, generators, independent oracles.

The ``*_loop`` functions are entry-by-entry references for the package's
array kernels: the same arithmetic in the same order, one entry at a time.
``parse_matrix_oracle`` is the token-by-token parser the fast one must match,
``solve_linear_oracle`` the elimination that updates A and b separately,
``run_experiment_oracle`` the Monte Carlo harness solving one system at a time,
``perturb_loop`` the noise drawn by `random.uniform` entry by entry,
``unit_weights_oracle`` its unit-sum weights through `synthesize`,
``estimation_error_prefix_sum`` the estimation error summed by prefix sums
(``ordered_sum``), ``build_system_loop``, ``build_error_system_loop`` and
``check_convergence_loop`` the two linear systems and their dominance tests,
and ``cop_json_oracle`` and ``cop_text_oracle`` the `cop` output written one
template per violation, which the column renderers must match byte for byte.
``cop_report`` builds a `CopReport` from violation tuples,
``is_reciprocal`` tests whether a matrix is reciprocal, and ``entry`` reads
one ratio of a matrix, None where it is missing.
``squared_error``, ``hessian`` and ``brute_force_min_error`` check the
least-squares solver from the objective itself.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from hrerank import (
    CopReport,
    ExperimentConfig,
    HreError,
    IncompleteMatrixError,
    Issue,
    ParseError,
    PcMatrix,
    PoipViolation,
    PopViolation,
    Problem,
    SingularSystemError,
    TrialRecord,
    WeightVector,
    koczkodaj_index,
    preprocess,
    solve_min_error,
)
from hrerank.hre_solver import PIVOT_TOL, RESIDUAL_TOL, _solved, build_system, solve_linear, synthesize
from hrerank.montecarlo import _SEED_STRIDE, generate_consistent, perturb
from hrerank.matrix_core import DIAGONAL_TOL, RECIPROCAL_WARN_TOL, _samples, _sum_in_order
from hrerank.min_error_solver import ErrorSystem

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_printed(value: float, literal: str) -> None:
    """Compare against a value as printed in the reference tables.

    The tables print three decimals, so 1e-3 is the usual tolerance; a few
    entries are printed shorter (e.g. "2.88", "0.13"), where the faithful
    tolerance is half a unit of the last printed digit.
    """
    expected = float(literal)
    decimals = len(literal.split(".")[1]) if "." in literal else 0
    tol = max(1e-3, 0.5 * 10.0 ** (-decimals))
    assert abs(value - expected) <= tol, f"{value!r} not within {tol} of printed {literal}"


def assert_vector_printed(values, literals) -> None:
    assert len(values) == len(literals)
    for value, literal in zip(values, literals):
        assert_printed(value, literal)


def assert_close(a: float, b: float, tol: float) -> None:
    assert abs(a - b) <= tol, f"|{a!r} - {b!r}| > {tol}"


def max_abs_diff(xs, ys) -> float:
    return max(abs(x - y) for x, y in zip(xs, ys))


def max_rel_diff(xs, ys) -> float:
    return max(abs(x - y) / abs(y) for x, y in zip(xs, ys))


def entry(matrix: PcMatrix, i: int, j: int) -> float | None:
    """Ratio of concept i to concept j (1-based) read from ``matrix.array``, None where it is missing."""
    v = float(matrix.array[i - 1, j - 1])
    return None if v != v else v


def consistent_matrix(weights) -> PcMatrix:
    """Exact-ratio matrix from weights; lower triangle is the bit-exact inverse."""
    n = len(weights)
    grid = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = weights[i] / weights[j]
            grid[j][i] = 1.0 / grid[i][j]
    return PcMatrix(tuple(tuple(row) for row in grid))


def random_weights(n: int, rng: random.Random, lo: float = 0.1, hi: float = 10.0):
    return tuple(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n))


def random_reciprocal(n: int, rng: random.Random, spread: float = math.log(9.0)) -> PcMatrix:
    """Reciprocal matrix with log-uniform entries; no consistency structure."""
    grid = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = math.exp(rng.uniform(-spread, spread))
            grid[j][i] = 1.0 / grid[i][j]
    return PcMatrix(tuple(tuple(row) for row in grid))


def noisy_consistent(
    n: int,
    rng: random.Random,
    noise: float,
    lo: float = 0.1,
    hi: float = 10.0,
) -> tuple[PcMatrix, tuple[float, ...]]:
    """Consistent matrix with each upper entry jittered by exp(U(-noise, noise))."""
    weights = random_weights(n, rng, lo, hi)
    grid = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = weights[i] / weights[j] * math.exp(rng.uniform(-noise, noise))
            grid[j][i] = 1.0 / grid[i][j]
    return PcMatrix(tuple(tuple(row) for row in grid)), weights


def permute_problem(problem: Problem, perm: list[int]) -> Problem:
    """Relabel concepts: new index perm[i-1] plays old concept i's role."""
    n = problem.n
    grid = [[None] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            grid[perm[i - 1] - 1][perm[j - 1] - 1] = entry(problem.matrix, i, j)
    refs = {perm[i - 1]: w for i, w in problem.references.items()}
    return Problem(PcMatrix(tuple(tuple(row) for row in grid)), refs)


def unpermute(values, perm: list[int]):
    """Recover original ordering from a permuted solution vector."""
    return tuple(values[perm[i] - 1] for i in range(len(values)))


def estimation_error_oracle(problem: Problem, mu) -> tuple[dict[int, float], float]:
    """Literal re-implementation of the mean absolute estimation error.

    Kept deliberately separate from the library code path: per unknown j,
    the mean of |mu_j - mu_i * m(j, i)| over every other concept i with
    m(j, i) specified, then the mean over unknowns.
    """
    per = {}
    for j in problem.unknown_indices:
        terms = []
        for i in range(1, problem.n + 1):
            if i == j or entry(problem.matrix, j, i) is None:
                continue
            terms.append(abs(mu[j - 1] - mu[i - 1] * entry(problem.matrix, j, i)))
        per[j] = sum(terms) / len(terms)
    return per, sum(per.values()) / len(per)


def ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` from first to last element: the last of the prefix sums.

    numpy's own sum adds pairwise along a contiguous axis, which can change
    the last bit.
    """
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def estimation_error_prefix_sum(problem: Problem, mu: WeightVector) -> tuple[dict[int, float], float]:
    """`estimation_error` summing each unknown's row with a full-prefix `ordered_sum`.

    The array form before the deviations were summed down axis 0; the
    package's result must equal it to the bit.
    """
    unknowns = problem.unknown_indices
    rows, ratios, sampled, counts = _samples(problem.matrix.array, problem.references)
    w = np.array(mu.values)
    deviations = np.where(sampled, np.abs(w[rows, None] - w * ratios), 0.0)
    per = (ordered_sum(deviations, axis=1) / counts).tolist()
    return dict(zip(unknowns, per)), _sum_in_order(per) / len(per)


def build_system_loop(problem: Problem) -> tuple[list[list[float]], list[float]]:
    """The averaging system entry by entry: (a, b) as lists of rows and constants.

    For unknowns u, v with D_u the count of u's specified ratios to other
    concepts: a[u][u] = 1, a[u][v] = -m(u, v) / D_u, and b[u] the sum over
    references c, in index order, of m(u, c) * weight(c), times 1 / D_u.
    """
    m = problem.matrix.entries
    unknowns = problem.unknown_indices
    a, b = [], []
    for u in unknowns:
        scale = 1.0 / sum(1 for i in range(1, problem.n + 1) if i != u and m[u - 1][i - 1] is not None)
        a.append([1.0 if v == u else m[u - 1][v - 1] * -scale for v in unknowns])
        total = 0.0
        for c, w in sorted(problem.references.items()):
            total += m[u - 1][c - 1] * w
        b.append(total * scale)
    return a, b


def build_error_system_loop(problem: Problem) -> tuple[list[list[float]], list[float], list[float], bool]:
    """The least-squares normal system entry by entry: (a, b, s_values, hessian_dominant).

    On a complete matrix: s[v] sums m(u, v) * m(u, v) over the other unknowns
    u in index order, times 1 / (n - 1); a[u][u] = 1 + s[u] and
    a[u][v] = -(m(u, v) + m(v, u)) / (n - 1); b is the averaging system's.
    Dominant when every |a[u][u]| exceeds the sum of its row's other |a[u][v]|.
    """
    m = problem.matrix.entries
    unknowns = problem.unknown_indices
    scale = 1.0 / (problem.n - 1)
    s = []
    for v in unknowns:
        total = 0.0
        for u in unknowns:
            if u != v:
                total += m[u - 1][v - 1] * m[u - 1][v - 1]
        s.append(total * scale)
    a = [
        [1.0 + s[r] if u == v else (m[u - 1][v - 1] + m[v - 1][u - 1]) * -scale for v in unknowns]
        for r, u in enumerate(unknowns)
    ]
    dominant = all(
        abs(row[r]) > _sum_in_order(abs(x) for c, x in enumerate(row) if c != r) for r, row in enumerate(a)
    )
    return a, build_system_loop(problem)[1], s, dominant


def check_convergence_loop(system) -> tuple[bool, bool]:
    """Strict diagonal dominance by rows and by columns, each off-diagonal sum added in index order."""
    a = system.a.tolist()
    k = len(a)
    by_rows = all(_sum_in_order(abs(a[r][c]) for c in range(k) if c != r) < abs(a[r][r]) for r in range(k))
    by_columns = all(_sum_in_order(abs(a[r][c]) for r in range(k) if r != c) < abs(a[c][c]) for c in range(k))
    return by_rows, by_columns


def spearman(xs, ys) -> float:
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        for position, i in enumerate(order):
            out[i] = float(position)
        return out

    rx, ry = ranks(xs), ranks(ys)
    mean_x = sum(rx) / len(rx)
    mean_y = sum(ry) / len(ry)
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mean_x) ** 2 for a in rx) * sum((b - mean_y) ** 2 for b in ry)
    )
    return num / den


# Complete matrix whose averaging system is exactly singular: the unknown
# block is the circulant [[1, t, 1/t], [1/t, 1, t], [t, 1/t, 1]] with
# t + 1/t = 3, whose Perron root is then 1 + t + 1/t = n = 4.
SINGULAR_T = (3.0 + math.sqrt(5.0)) / 2.0


def singular_direct_problem() -> Problem:
    t = SINGULAR_T
    rows = (
        (1.0, t, 1.0 / t, 1.0),
        (1.0 / t, 1.0, t, 1.0),
        (t, 1.0 / t, 1.0, 1.0),
        (1.0, 1.0, 1.0, 1.0),
    )
    return Problem(PcMatrix(rows), {4: 1.0})


def inadmissible_direct_problem() -> Problem:
    """Direct solve succeeds but yields a negative weight; least squares does not."""
    return Problem(random_reciprocal(4, random.Random(9)), {1: 1.0})


def diverging_incomplete_problem(gain: float = 8.0, reference: float = 1.0) -> Problem:
    """Unknowns 2,3,4 form an inconsistent triangle (cycle gain gain^3/12 >> 1).

    Only concept 2 touches the reference, so the iteration blows up and the
    solver must fall back to its best early iterate.  With ``gain=1e44`` and
    ``reference=1e-300`` the run passes 1e12 on step 9 and overflows to inf
    on step 15.
    """
    rows = (
        (1.0, 1.0, None, None),
        (1.0, 1.0, gain, 1.0 / gain),
        (None, 1.0 / gain, 1.0, gain),
        (None, gain, 1.0 / gain, 1.0),
    )
    return Problem(PcMatrix(rows), {1: reference})


def overflow_problem() -> Problem:
    """1e300 * 1e10 overflows to inf in the first step, which ends the run as diverged."""
    return Problem(PcMatrix(((1.0, 1e-300), (1e300, 1.0))), {1: 1e10})


def perturb_loop(matrix: PcMatrix, noise_level: float, seed: int) -> np.ndarray:
    """`perturb` one level at a time: each specified upper entry, in row order, times
    math.exp(random.uniform(-level, level)); each lower entry the exact inverse."""
    rng = random.Random(seed)
    grid = matrix.array.copy()
    for i in range(matrix.n):
        for j in range(i + 1, matrix.n):
            if not math.isnan(grid[i, j]):
                with np.errstate(over="ignore", divide="ignore"):  # numpy scalars: inf or 0, not an error
                    grid[i, j] *= math.exp(rng.uniform(-noise_level, noise_level))
                    grid[j, i] = 1.0 / grid[i, j]
    return grid


def triad_scan_loop(matrix: PcMatrix) -> tuple[float | None, int]:
    """Koczkodaj's index and the complete-triad count, triad by triad."""
    m = matrix.entries
    n = len(m)
    worst: float | None = None
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                m_ij, m_ik, m_kj = m[i][j], m[i][k], m[k][j]
                if m_ij is None or m_ik is None or m_kj is None:
                    continue
                count += 1
                q = m_ik * m_kj / m_ij
                contribution = min(abs(1.0 - q), abs(1.0 - 1.0 / q)) if q else 1.0  # q underflowed: its limit
                if worst is None or contribution > worst:
                    worst = contribution
    return worst, count


def is_reachable_loop(problem: Problem) -> tuple[bool, tuple[int, ...]]:
    m = problem.matrix.entries
    n = problem.n
    seen = set(problem.references)
    stack = list(seen)
    while stack:
        i = stack.pop()
        for j in range(1, n + 1):
            if j in seen or j == i:
                continue
            if m[i - 1][j - 1] is not None or m[j - 1][i - 1] is not None:
                seen.add(j)
                stack.append(j)
    unreachable = tuple(i for i in problem.unknown_indices if i not in seen)
    return (not unreachable, unreachable)


def validate_loop(problem: Problem) -> tuple[Issue, ...]:
    """The validation issues, in order, checked entry by entry."""
    m = problem.matrix.entries
    n = problem.n
    issues = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v = m[i - 1][j - 1]
            if v is not None and not (math.isfinite(v) and v > 0):
                issues.append(
                    Issue(f"({i},{j})", "nonpositive-entry", f"entry {v!r} is not a positive finite ratio")
                )
    for i in range(1, n + 1):
        v = m[i - 1][i - 1]
        if v is None:
            issues.append(Issue(f"({i},{i})", "bad-diagonal", "diagonal entry is missing"))
        elif math.isfinite(v) and v > 0 and abs(v - 1.0) > DIAGONAL_TOL:
            issues.append(Issue(f"({i},{i})", "bad-diagonal", f"diagonal entry {v!r} is not 1"))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, b = m[i - 1][j - 1], m[j - 1][i - 1]
            if a is None or b is None or not all(math.isfinite(v) and v > 0 for v in (a, b)):
                continue
            if abs(a * b - 1.0) > RECIPROCAL_WARN_TOL:
                issues.append(
                    Issue(
                        f"({i},{j})",
                        "non-reciprocal-pair",
                        f"m({i},{j})={a:g} and m({j},{i})={b:g} are not mutual inverses",
                    )
                )
    if problem.references:
        for idx in is_reachable_loop(problem)[1]:
            issues.append(
                Issue(
                    f"c{idx}",
                    "unreachable-concept",
                    "no chain of specified ratios links it to a reference concept",
                )
            )
    return tuple(issues)


def restore_reciprocity_loop(matrix: PcMatrix) -> tuple[tuple[float | None, ...], ...]:
    grid = [list(row) for row in matrix.entries]
    n = matrix.n
    for i in range(n):
        for j in range(i + 1, n):
            a, b = grid[i][j], grid[j][i]
            if a is not None and b is not None:
                grid[i][j] = math.sqrt(a / b)
                grid[j][i] = math.sqrt(b / a)
            elif a is not None:
                grid[j][i] = 1.0 / a
            elif b is not None:
                grid[i][j] = 1.0 / b
    return tuple(tuple(row) for row in grid)


def jacobi_loop(problem: Problem, max_r: int, stop_tol: float, divergence_limit: float, fused: bool = False):
    """Averaging iterates, sample by sample: (iterates, converged, diverged).

    ``fused`` rounds each multiply-add once, as a fused multiply-add does:
    the exact product and sum, rounded by `Fraction`.
    """
    m = problem.matrix.entries
    n = problem.n
    refs = problem.references
    estimates: dict[int, float] = {}
    iterates = []
    previous = None
    for _ in range(max_r):
        new_estimates = {}
        for j in problem.unknown_indices:
            total, count = 0.0, 0
            for i in range(1, n + 1):
                ratio = m[j - 1][i - 1]
                if i == j or ratio is None:
                    continue
                value = refs.get(i, estimates.get(i))
                if value is None:
                    continue
                total = float(Fraction(total) + Fraction(ratio) * Fraction(value)) if fused else total + ratio * value
                count += 1
            if count:
                new_estimates[j] = total / count
        current = tuple(refs[i] if i in refs else new_estimates.get(i) for i in range(1, n + 1))
        iterates.append(current)
        if any(v is not None and (not math.isfinite(v) or abs(v) > divergence_limit) for v in current):
            return iterates, False, True
        if previous is not None and None not in current and None not in previous:
            change = max(abs(c - p) for c, p in zip(current, previous))
            if change <= stop_tol * max(abs(v) for v in current):
                return iterates, True, False
        estimates = new_estimates
        previous = current
    return iterates, False, False


def random_problem(
    seed: int,
    n: int,
    missing: float,
    noise: float,
    references: int,
    reciprocal: bool = True,
    connected: bool = True,
    corrupt: int = 0,
) -> Problem:
    """Noisy consistent matrix with a random missing pattern and reference set.

    ``connected`` keeps every pair (i, i+1) so the comparison graph stays
    connected; ``reciprocal=False`` draws each lower entry's noise on its own
    and leaves some pairs half specified; ``corrupt`` overwrites that many
    random entries with invalid or off-diagonal values.
    """
    rng = random.Random(seed)
    weights = random_weights(n, rng)
    grid = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < missing and not (connected and j == i + 1):
                grid[i][j] = grid[j][i] = None
                continue
            grid[i][j] = weights[i] / weights[j] * math.exp(rng.uniform(-noise, noise))
            if reciprocal:
                grid[j][i] = 1.0 / grid[i][j]
            elif rng.random() < 0.2:
                grid[j][i] = None
            else:
                grid[j][i] = weights[j] / weights[i] * math.exp(rng.uniform(-noise, noise))
    for _ in range(corrupt):
        i, j = rng.randrange(n), rng.randrange(n)
        grid[i][j] = rng.choice([0.0, -1.5, math.inf, -math.inf, None, 2.0, 1.0 + 1e-9])
    chosen = rng.sample(range(1, n + 1), min(references, n))
    return Problem(PcMatrix(grid), {c: weights[c - 1] for c in chosen})


def graph_problem(seed: int, n: int, shape: str, noise: float, references: int) -> Problem:
    """Noisy consistent ratios on a ring (each concept next to two others) or a random spanning tree.

    All other pairs are missing, so the comparison graph's diameter is about
    n/2 on a ring and up to n - 1 on a tree.
    """
    rng = random.Random(seed)
    weights = random_weights(n, rng)
    if shape == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif shape == "tree":
        edges = [(rng.randrange(j), j) for j in range(1, n)]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    grid = [[1.0 if i == j else None for j in range(n)] for i in range(n)]
    for i, j in edges:
        grid[i][j] = weights[i] / weights[j] * math.exp(rng.uniform(-noise, noise))
        grid[j][i] = 1.0 / grid[i][j]
    chosen = rng.sample(range(1, n + 1), min(references, n))
    return Problem(PcMatrix(grid), {c: weights[c - 1] for c in chosen})


def cop_check_loop(matrix: PcMatrix, mu) -> CopReport:
    """The COP check quadruple by quadruple, in the order the report lists them."""
    n = matrix.n
    if len(mu) != n:
        raise ValueError(f"weight vector has {len(mu)} entries, expected {n}")
    pairs = [
        (i, j, v)
        for i, row in enumerate(matrix.array.tolist(), start=1)
        for j, v in enumerate(row, start=1)
        if i != j and v == v
    ]
    strict = [(i, j, v) for i, j, v in pairs if v > 1.0]
    comparable = [(i, j, v) for i, j, v in pairs if v >= 1.0]

    pop: list[PopViolation] = []
    poip: list[PoipViolation] = []
    checked = 0
    w = mu.values
    for i, j, m_ij in strict:
        for k, l, m_kl in comparable:
            if (i, j) == (k, l) or m_ij <= m_kl:
                continue
            checked += 1
            failed = []
            if w[i - 1] <= w[j - 1]:
                failed.append((i, j))
            if m_kl > 1.0 and w[k - 1] <= w[l - 1]:
                failed.append((k, l))
            if failed:
                pop.append(PopViolation((i, j, k, l), tuple(failed)))
            lhs = w[i - 1] / w[j - 1]
            rhs = w[k - 1] / w[l - 1]
            if lhs <= rhs:
                poip.append(PoipViolation((i, j, k, l), lhs, rhs))
    return cop_report(pop, poip, checked)


def cop_report(pop_violations, poip_violations, quadruples_checked: int) -> CopReport:
    """A `CopReport` specified by its violation tuples, turned into its columns."""
    pop, poip = tuple(pop_violations), tuple(poip_violations)
    return CopReport(
        [v.quadruple for v in pop],
        [_failed_flags(v) for v in pop],
        [v.quadruple for v in poip],
        [v.lhs for v in poip],
        [v.rhs for v in poip],
        quadruples_checked,
    )


def _failed_flags(violation: PopViolation) -> tuple[bool, bool]:
    """The (i,j) and (k,l) flags that reproduce ``violation.failed_pairs``."""
    q = tuple(violation.quadruple)
    flags = {(q[:2],): (True, False), (q[2:],): (False, True), (q[:2], q[2:]): (True, True)}
    return flags[tuple(violation.failed_pairs)]


def is_reciprocal(matrix: PcMatrix, tol: float = RECIPROCAL_WARN_TOL) -> bool:
    """True if each pair is given on both sides or on neither, with m_ij * m_ji = 1 +/- tol where given."""
    a = matrix.array
    present = ~np.isnan(a)
    with np.errstate(invalid="ignore", over="ignore"):
        far = ~(np.abs(a * a.T - 1.0) <= tol) & present & present.T  # a NaN product (inf * 0) is far
    np.fill_diagonal(far, False)
    return not far.any() and bool((present == present.T).all())


def cop_payload(report: CopReport) -> dict:
    """What `cop --json` prints, as the payload json.dumps(indent=2) used to serialise."""
    return {
        "satisfies_cop": report.satisfies_cop,
        "quadruples_checked": report.quadruples_checked,
        "pop_violations": [
            {"quadruple": list(v.quadruple), "failed_pairs": [list(p) for p in v.failed_pairs]}
            for v in report.pop_violations
        ],
        "poip_violations": [
            {"quadruple": list(v.quadruple), "lhs": v.lhs, "rhs": v.rhs} for v in report.poip_violations
        ],
    }


# `cop --json` layout, as json.dumps(payload, indent=2) writes it
_QUADRUPLE_JSON = '    {{\n      "quadruple": [\n        {},\n        {},\n        {},\n        {}\n      ],\n'
_PAIR_JSON = '        [\n          {},\n          {}\n        ]'
_POP_JSON = {
    count: _QUADRUPLE_JSON + '      "failed_pairs": [\n' + ",\n".join([_PAIR_JSON] * count) + "\n      ]\n    }}"
    for count in (1, 2)
}
_POIP_JSON = _QUADRUPLE_JSON + '      "lhs": {},\n      "rhs": {}\n    }}'


# `cop` text layout, one line per violation
_POP_TEXT = {
    count: "  - ({},{}) vs ({},{}): " + ", ".join(["mu(c{}) <= mu(c{})"] * count) for count in (1, 2)
}
_POIP_TEXT = "  - ({0},{1}) vs ({2},{3}): mu(c{0})/mu(c{1}) = {4:.6g} <= mu(c{2})/mu(c{3}) = {5:.6g}"


def _json_float(value: float) -> str:
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _json_list(key: str, items: list[str]) -> str:
    return f'  "{key}": [\n' + ",\n".join(items) + "\n  ]" if items else f'  "{key}": []'


def cop_json_oracle(result: CopReport) -> str:
    """The report with the bytes of json.dumps(payload, indent=2), one template per violation.

    With ``indent`` set, json falls back to its pure-Python encoder, which is
    slow on the hundreds of thousands of violations a mid-sized matrix can have.
    """
    pop = [
        _POP_JSON[len(v.failed_pairs)].format(*v.quadruple, *chain.from_iterable(v.failed_pairs))
        for v in result.pop_violations
    ]
    poip = [_POIP_JSON.format(*v.quadruple, _json_float(v.lhs), _json_float(v.rhs)) for v in result.poip_violations]
    return (
        f'{{\n  "satisfies_cop": {"true" if result.satisfies_cop else "false"},\n'
        f'  "quadruples_checked": {result.quadruples_checked},\n'
        f'{_json_list("pop_violations", pop)},\n{_json_list("poip_violations", poip)}\n}}'
    )


def cop_text_oracle(result: CopReport) -> str:
    """The human-readable report, one line per violation, built as one string."""
    lines = [f"quadruples checked: {result.quadruples_checked}"]
    lines.append("POP violations:" if result.pop_violations else "POP violations: none")
    lines.extend(
        _POP_TEXT[len(v.failed_pairs)].format(*v.quadruple, *chain.from_iterable(v.failed_pairs))
        for v in result.pop_violations
    )
    lines.append("POIP violations:" if result.poip_violations else "POIP violations: none")
    lines.extend(_POIP_TEXT.format(*v.quadruple, v.lhs, v.rhs) for v in result.poip_violations)
    lines.append(f"satisfies COP: {'yes' if result.satisfies_cop else 'no'}")
    return "\n".join(lines)


_FRACTION_RE_ORACLE = re.compile(r"^(\d+(?:\.\d+)?)/(\d+(?:\.\d+)?)$")
_TOKEN_RE_ORACLE = re.compile(r"[^\s,]+")


def _tokens_oracle(line: str) -> list[tuple[str, int]]:
    """Tokens of one line with 1-based columns; '#' starts a comment."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE_ORACLE.finditer(line)]


def _parse_value_oracle(token: str, line_no: int, col: int) -> float | None:
    if token == "?":
        return None
    m = _FRACTION_RE_ORACLE.match(token)
    if m:
        den = float(m.group(2))
        if den == 0:
            raise ParseError(f"zero denominator in '{token}'", line_no, col)
        return float(m.group(1)) / den
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"invalid value '{token}'", line_no, col) from None
    if value != value:
        raise ParseError(f"'{token}' is not a ratio; write '?' for a missing comparison", line_no, col)
    return value


def parse_matrix_oracle(text: str) -> Problem:
    """The parser as first written: the fraction regex before float(), a column per token."""
    n: int | None = None
    rows: list[list[float | None]] = []
    references: dict[int, float] = {}
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        toks = _tokens_oracle(raw)
        if not toks:
            continue
        if n is None:
            if len(toks) != 1:
                raise ParseError("expected a single matrix size", line_no, toks[1][1])
            tok, col = toks[0]
            try:
                n = int(tok)
            except ValueError:
                raise ParseError(f"matrix size must be an integer, got '{tok}'", line_no, col) from None
            if n < 2:
                raise ParseError("matrix size must be at least 2", line_no, col)
        elif len(rows) < n:
            if len(toks) != n:
                raise ParseError(
                    f"row {len(rows) + 1} has {len(toks)} values, expected {n}",
                    line_no,
                    toks[0][1],
                )
            rows.append([_parse_value_oracle(tok, line_no, col) for tok, col in toks])
        else:
            tok, col = toks[0]
            if tok != "ref":
                raise ParseError(f"expected 'ref' line, got '{tok}'", line_no, col)
            if len(toks) != 3:
                raise ParseError("ref line needs exactly: ref <index> <weight>", line_no, col)
            try:
                idx = int(toks[1][0])
            except ValueError:
                raise ParseError(f"reference index must be an integer, got '{toks[1][0]}'", line_no, toks[1][1]) from None
            if not (1 <= idx <= n):
                raise ParseError(f"reference index {idx} outside 1..{n}", line_no, toks[1][1])
            if idx in references:
                raise ParseError(f"duplicate reference line for concept {idx}", line_no, toks[1][1])
            try:
                weight = float(toks[2][0])
            except ValueError:
                raise ParseError(f"invalid reference weight '{toks[2][0]}'", line_no, toks[2][1]) from None
            if not (math.isfinite(weight) and weight > 0):
                raise ParseError("reference weight must be a positive number", line_no, toks[2][1])
            references[idx] = weight

    if n is None:
        raise ParseError("empty input, expected matrix size", max(last_line, 1))
    if len(rows) < n:
        raise ParseError(f"expected {n} matrix rows, got {len(rows)}", last_line)
    return Problem(PcMatrix(rows), references)


@np.errstate(invalid="ignore")  # an inf constant turns into NaNs, which the residual test refuses
def solve_linear_oracle(system) -> tuple[float, ...]:
    """Gaussian elimination with partial pivoting, A and b updated as two arrays."""
    k = len(system.b)
    a = np.array(system.a.tolist(), dtype=float)
    b = np.array(system.b.tolist(), dtype=float)
    x = b.copy()
    u = a.copy()
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(u[col:, col])))
        if abs(u[pivot, col]) < PIVOT_TOL:
            raise SingularSystemError(f"pivot {u[pivot, col]:.3e} in column {col + 1} below tolerance")
        if pivot != col:
            u[[col, pivot]] = u[[pivot, col]]
            x[[col, pivot]] = x[[pivot, col]]
        factors = u[col + 1 :, col] / u[col, col]
        u[col + 1 :] -= factors[:, None] * u[col]
        x[col + 1 :] -= factors * x[col]
    for col in range(k - 1, -1, -1):
        x[col] = (x[col] - u[col, col + 1 :] @ x[col + 1 :]) / u[col, col]

    residual = float(np.max(np.abs(a @ x - b)))
    if not residual <= RESIDUAL_TOL * (1.0 + float(np.max(np.abs(b)))):  # a NaN residual fails too
        raise SingularSystemError(f"solution residual {residual:.3e} exceeds tolerance")
    return tuple(float(v) for v in x)


def solve_stack(systems) -> list:
    """`_solved` on a list of systems of one size: each one's solution or SingularSystemError, in order."""
    return _solved(np.stack([s.a for s in systems]), np.stack([s.b for s in systems])) if systems else []


def unit_weights_oracle(solution, problem: Problem) -> tuple[float, ...] | None:
    """`montecarlo._unit_weights` through `synthesize`: both `WeightVector`s built and the unit-sum one kept."""
    if isinstance(solution, HreError):
        return None
    try:  # an inadmissible solution raises InadmissibleSolutionError
        return synthesize(solution, problem)[1].values
    except HreError:
        return None


def _averaging_direct(problem: Problem) -> tuple[float, ...] | None:
    """Unit-sum direct solution of the averaging system; None when singular or inadmissible."""
    try:
        return synthesize(solve_linear(build_system(problem)), problem)[1].values
    except HreError:
        return None


def _least_squares(prepared) -> tuple[float, ...] | None:
    try:
        return solve_min_error(prepared).weights_normalized.values
    except HreError:
        return None


def run_experiment_oracle(config: ExperimentConfig) -> list[TrialRecord]:
    """`run_experiment` one system at a time, level by level, trial by trial.

    Each noisy matrix's averaging system goes to `solve_linear` on its own
    and its least-squares problem to `solve_min_error`, each building the
    unknown block and constants again.
    """
    records = []
    for noise in config.noise_levels:
        for trial in range(config.trials):
            gen_seed = config.seed * _SEED_STRIDE + 2 * trial
            matrix, weights = generate_consistent(config.n, gen_seed)
            references = {i + 1: weights[i] for i in range(config.reference_count)}
            noisy = perturb(matrix, noise, gen_seed + 1)
            try:
                prepared = preprocess(Problem(noisy, references))
            except HreError:
                averaging = least_squares = None
            else:
                averaging = _averaging_direct(prepared.problem)
                least_squares = _least_squares(prepared)
            solved = averaging is not None and least_squares is not None
            distance = max(abs(a - b) for a, b in zip(averaging, least_squares)) if solved else math.nan
            records.append(TrialRecord(gen_seed, config.n, noise, koczkodaj_index(noisy), distance, solved))
    return records

GRID_REFINEMENTS = 10  # halvings of the brute-force grid step around the incumbent
BRUTE_FORCE_MAX_UNKNOWNS = 3


def hessian(error_system: ErrorSystem, n: int) -> tuple[tuple[float, ...], ...]:
    """Hessian of the squared-error objective: 2(n-1) times the system matrix."""
    factor = 2 * (n - 1)
    return tuple(
        tuple(factor * v for v in row) for row in error_system.system.a.tolist()
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
