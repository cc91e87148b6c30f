"""Independent output checks, written with numpy only.

Nothing here imports the package: each check recomputes what an answer must
satisfy from the benchmark's own copy of the input.  A check returns a list
of problems; an empty list means the answer is accepted.

Run ``python3 bench/oracle.py`` to see the self-check: the oracle accepts
exact answers and rejects the same answers with one weight nudged.
"""

from __future__ import annotations

import math
import random

import numpy as np

from inputs import make_case

ADMISSIBLE = 1e-9   # the package's positivity threshold for solved weights
RESIDUAL_TOL = 1e-8  # fixed-point / normal-equation residual, relative per row
VALUE_TOL = 1e-9     # recomputed scalars (error, K) relative to their size
TRUTH_TOL = 1e-8     # noise-0 controls: distance to the generating weights
NUDGE = 1e-5         # relative change the self-check makes to one weight


def prepare(matrix: np.ndarray, references: dict[int, float]) -> np.ndarray:
    """Reciprocity repair plus reference-ratio fill, as the solvers define it.

    ``matrix`` may be a stack of matrices, shape (..., n, n).
    """
    m = np.asarray(matrix, dtype=float)
    mt = np.swapaxes(m, -1, -2)
    present = ~np.isnan(m)
    both = present & ~np.isnan(mt)
    half = present & np.isnan(mt)
    p = np.full_like(m, np.nan)
    p[both] = np.sqrt(m[both] / mt[both])
    p[half] = m[half]
    np.swapaxes(p, -1, -2)[half] = 1.0 / m[half]
    known = sorted(references)
    for pos, a in enumerate(known):
        for b in known[pos + 1 :]:
            target = references[a] / references[b]
            p[..., a - 1, b - 1] = target
            p[..., b - 1, a - 1] = 1.0 / target
    return p


def _unknown(n: int, references) -> np.ndarray:
    return np.array([i for i in range(n) if i + 1 not in references], dtype=int)


def _off_diagonal(p: np.ndarray):
    q = p.copy()
    np.fill_diagonal(q, np.nan)
    spec = ~np.isnan(q)
    return np.where(spec, q, 0.0), spec


def averaging_residual(p: np.ndarray, w: np.ndarray, unknown: np.ndarray) -> float:
    """Largest |w_u - mean of specified samples p_uv w_v| / w_u over unknowns."""
    q, spec = _off_diagonal(p)
    estimate = (q * w[None, :]).sum(axis=1) / spec.sum(axis=1)
    return float(np.max(np.abs(w - estimate)[unknown] / w[unknown], initial=0.0))


def normal_equation_residual(p: np.ndarray, w: np.ndarray, unknown: np.ndarray) -> float:
    """Gradient of sum_{j unknown, i != j} (w_j - p_ji w_i)^2, relative per row.

    Each component is divided by the sum of the magnitudes of its terms, so
    the figure is the cancellation left over, independent of weight scale.
    """
    q, spec = _off_diagonal(p)
    dev = np.where(spec, w[:, None] - q * w[None, :], 0.0)  # dev[j, i]
    in_u = np.zeros(len(w), dtype=bool)
    in_u[unknown] = True
    own = dev.sum(axis=1)
    cross = -(q * dev)[in_u].sum(axis=0)
    mag = np.where(spec, np.abs(w[:, None]) + np.abs(q * w[None, :]), 0.0)
    scale = mag.sum(axis=1) + (np.abs(q) * mag)[in_u].sum(axis=0)
    return float(np.max(np.abs(own + cross)[unknown] / scale[unknown], initial=0.0))


def estimation_error(p: np.ndarray, w: np.ndarray, unknown: np.ndarray) -> float:
    """Mean over unknowns of the mean |w_j - w_i p_ji| over specified i."""
    q, spec = _off_diagonal(p)
    dev = np.where(spec, np.abs(w[:, None] - w[None, :] * q), 0.0)
    per_concept = dev.sum(axis=1) / spec.sum(axis=1)
    return float(per_concept[unknown].mean()) if unknown.size else 0.0


def koczkodaj(m: np.ndarray):
    """(worst triad inconsistency, complete triads) over i < j < k.

    For one matrix returns (float or None, int); for a stack (..., n, n)
    returns arrays, with -inf where a matrix has no complete triad.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[-1]
    mt = np.swapaxes(m, -1, -2)
    worst = np.full(m.shape[:-2], -np.inf)
    count = np.zeros(m.shape[:-2], dtype=int)
    for i in range(n - 2):
        q = (m[..., i, None, :] * mt) / m[..., i, :, None]  # q[j, k] = m_ik m_kj / m_ij
        keep = np.triu(np.ones((n, n), dtype=bool), 1)
        keep[: i + 1] = False
        keep = keep & ~np.isnan(q)
        contribution = np.where(keep, np.minimum(np.abs(1.0 - q), np.abs(1.0 - 1.0 / q)), -np.inf)
        worst = np.maximum(worst, contribution.max(axis=(-2, -1)))
        count += keep.sum(axis=(-2, -1))
    if m.ndim == 2:
        return (float(worst) if count else None), int(count)
    return worst, count


def _close(value, expected, tol) -> bool:
    return abs(value - expected) <= tol * max(abs(expected), 1e-300)


def check_weights(case, weights, path, error) -> list[str]:
    """A solver answer: positivity, references, path equations, error, truth."""
    w = np.asarray(weights, dtype=float)
    problems = []
    if w.shape != (case.n,) or not np.all(np.isfinite(w)) or np.any(w <= 0):
        return ["weights are not n positive finite numbers"]
    moved = [i for i, v in case.references.items() if w[i - 1] != v]
    if moved:
        problems.append(f"reference weights changed for {moved}")
    p = prepare(case.matrix, case.references)
    unknown = _unknown(case.n, case.references)
    if path in ("direct", "jacobi"):
        if path == "direct" and not case.complete:
            problems.append("direct path on an incomplete matrix")
        res = averaging_residual(p, w, unknown)
        if res > RESIDUAL_TOL:
            problems.append(f"{path}: fixed-point residual {res:.2e}")
        if case.noise == 0:
            gap = float(np.max(np.abs(w - case.truth)) / np.max(case.truth))
            if gap > TRUTH_TOL:
                problems.append(f"{path}: noise-0 control off truth by {gap:.2e}")
    elif path == "min-error":
        res = normal_equation_residual(p, w, unknown)
        if res > RESIDUAL_TOL:
            problems.append(f"min-error: normal-equation residual {res:.2e}")
    elif path != "best-iterate":
        problems.append(f"unknown path {path!r}")
    expected = estimation_error(p, w, unknown)
    if not _close(error, expected, VALUE_TOL):
        problems.append(f"reported error {error!r}, recomputed {expected!r}")
    return problems


def check_ev(case, weights, error) -> list[str]:
    w = np.asarray(weights, dtype=float)
    m = case.matrix
    if not np.all(w > 0) or abs(w.sum() - 1.0) > 1e-9:
        return ["ev: weights not positive with unit sum"]
    mw = m @ w
    lam = float(np.mean(mw / w))
    problems = []
    res = float(np.max(np.abs(mw - lam * w)) / np.max(w))
    if res > RESIDUAL_TOL:
        problems.append(f"ev: eigen-residual {res:.2e}")
    return problems + _check_error(case, w, error)


def check_gm(case, weights, error) -> list[str]:
    w = np.asarray(weights, dtype=float)
    g = np.exp(np.mean(np.log(case.matrix), axis=1))
    g /= g.sum()
    problems = []
    if float(np.max(np.abs(w - g)) / np.max(g)) > VALUE_TOL:
        problems.append("gm: weights differ from row geometric means")
    return problems + _check_error(case, w, error)


def _check_error(case, w, error) -> list[str]:
    p = prepare(case.matrix, case.references)
    expected = estimation_error(p, w, _unknown(case.n, case.references))
    return [] if _close(error, expected, VALUE_TOL) else [f"reported error {error!r}, recomputed {expected!r}"]


def check_indices(case, ci, k, triads=None, *, kscan=None) -> list[str]:
    """Saaty CI against numpy's eigenvalues, K against a triad scan."""
    problems = []
    worst, count = kscan if kscan is not None else koczkodaj(prepare(case.matrix, {}))
    if k is None or worst is None or not _close(k, worst, VALUE_TOL):
        problems.append(f"K {k!r}, triad scan {worst!r}")
    if triads is not None and triads != count:
        problems.append(f"triads evaluated {triads}, triad scan {count}")
    if case.complete:
        lam = float(np.max(np.linalg.eigvals(case.matrix).real))
        expected = (lam - case.n) / (case.n - 1)
        if ci is None or abs(ci - expected) > 1e-8:
            problems.append(f"CI {ci!r}, eigenvalues give {expected!r}")
    return problems


def cop_counts(m: np.ndarray, w: np.ndarray) -> tuple[int, int, int]:
    """(quadruples checked, POP violations, POIP violations) by brute force."""
    rows, cols = np.nonzero(~np.isnan(m) & ~np.eye(m.shape[0], dtype=bool))
    v = m[rows, cols]
    s, c = v > 1.0, v >= 1.0
    si, sj, sv = rows[s], cols[s], v[s]
    ci, cj, cv = rows[c], cols[c], v[c]
    checked = sv[:, None] > cv[None, :]
    pop = checked & ((w[si] <= w[sj])[:, None] | ((cv > 1.0) & (w[ci] <= w[cj]))[None, :])
    poip = checked & ((w[si] / w[sj])[:, None] <= (w[ci] / w[cj])[None, :])
    return int(checked.sum()), int(pop.sum()), int(poip.sum())


def check_cop(case, weights, checked, pop, poip, satisfies) -> list[str]:
    expected = cop_counts(case.matrix, np.asarray(weights, dtype=float))
    got = (checked, pop, poip)
    problems = [] if got == expected else [f"cop counts {got}, brute force {expected}"]
    if satisfies != (expected[1] == 0 and expected[2] == 0):
        problems.append("cop verdict disagrees with the violation counts")
    return problems


def harness_matrix(n: int, seed: int, noise: float, weight_range=(0.1, 10.0)):
    """The Monte Carlo harness's documented draw: log-uniform weights from
    random.Random(seed), then exp(U(-noise, noise)) on the upper triangle
    from random.Random(seed + 1), lower triangle the exact inverse."""
    lo, hi = weight_range
    rng = random.Random(seed)
    weights = [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n)]
    grid = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = weights[i] / weights[j]
            grid[j][i] = 1.0 / grid[i][j]
    rng = random.Random(seed + 1)
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] *= math.exp(rng.uniform(-noise, noise))
            grid[j][i] = 1.0 / grid[i][j]
    return np.array(grid), np.array(weights)


def _systems(matrix: np.ndarray, references: dict[int, float]):
    """Averaging and least-squares systems over the unknowns (shared constants).

    ``matrix`` may be a stack (..., n, n) of complete matrices.
    """
    n = matrix.shape[-1]
    p = prepare(matrix, references)
    u = _unknown(n, references)
    k = np.array(sorted(i - 1 for i in references))
    wk = np.array([references[i + 1] for i in k])
    b = p[..., u[:, None], k[None, :]] @ wk / (n - 1)
    puu = p[..., u[:, None], u[None, :]]
    diag = np.arange(u.size)
    averaging = -puu / (n - 1)
    averaging[..., diag, diag] = 1.0
    squares = -(puu + np.swapaxes(puu, -1, -2)) / (n - 1)
    sq = puu**2
    sq[..., diag, diag] = 0.0
    squares[..., diag, diag] = 1.0 + sq.sum(axis=-2) / (n - 1)
    return u, k, wk, (averaging, squares), b


def _full(n, u, k, wk, x):
    full = np.empty(n)
    full[u] = x
    full[k] = wk
    return full


def check_mc(n: int, refs: int, noise_levels, records) -> list[str]:
    """One run_experiment trial: records per noise level, K and distances."""
    if [(r.n, r.noise_level) for r in records] != [(n, lv) for lv in noise_levels]:
        return ["records do not match the configured n and noise levels"]
    if len({r.seed for r in records}) != 1:
        return ["trial seed differs between noise levels"]
    drawn = [harness_matrix(n, records[0].seed, level) for level in noise_levels]
    matrices, weights = np.stack([m for m, _ in drawn]), drawn[0][1]
    worst, _ = koczkodaj(matrices)
    u, k, wk, systems, b = _systems(matrices, {i + 1: weights[i] for i in range(refs)})
    solutions = [np.linalg.solve(a, b[..., None])[..., 0] for a in systems]
    problems = []
    for idx, r in enumerate(records):
        if not _close(r.koczkodaj, worst[idx], VALUE_TOL):
            problems.append(f"noise {r.noise_level}: K {r.koczkodaj!r}, triad scan {float(worst[idx])!r}")
        xs = [x[idx] for x in solutions]
        solved = all(x.min() > ADMISSIBLE for x in xs)
        if solved != r.both_solved:
            problems.append(f"noise {r.noise_level}: both_solved {r.both_solved}, oracle {solved}")
        elif solved:
            a, s = (_full(n, u, k, wk, x) for x in xs)
            distance = float(np.max(np.abs(a / a.sum() - s / s.sum())))
            if abs(r.distance - distance) > 1e-9 + 1e-6 * distance:
                problems.append(f"noise {r.noise_level}: distance {r.distance!r}, oracle {distance!r}")
    return problems


def self_check() -> None:
    """Raise unless exact answers pass and the same answers with one value
    nudged by a relative 1e-5 are rejected, on every kind of check."""
    def nudged(w):
        w = np.array(w, dtype=float)
        w[-1] *= 1.0 + NUDGE
        return w

    case = make_case(0, "complete", 8, 0.2, 1)
    p = prepare(case.matrix, case.references)
    u, k, wk, (averaging, squares), b = _systems(case.matrix, case.references)
    trials = {}
    for path, a in (("direct", averaging), ("min-error", squares), ("best-iterate", averaging)):
        w = _full(case.n, u, k, wk, np.linalg.solve(a, b))
        err = estimation_error(p, w, u)
        trials[path] = (check_weights(case, w, path, err), check_weights(case, nudged(w), path, err))
    ring = make_case(0, "ring", 6, 0.0, 1)  # noise 0: the answer is the truth
    ru = _unknown(ring.n, ring.references)
    rerr = estimation_error(prepare(ring.matrix, ring.references), ring.truth, ru)
    trials["jacobi"] = (check_weights(ring, ring.truth, "jacobi", rerr),
                        check_weights(ring, nudged(ring.truth), "jacobi", rerr))
    worst, count = koczkodaj(prepare(case.matrix, {}))
    ci = (float(np.max(np.linalg.eigvals(case.matrix).real)) - case.n) / (case.n - 1)
    trials["koczkodaj"] = (check_indices(case, ci, worst, count),
                           check_indices(case, ci, worst * (1.0 + NUDGE), count))
    for name, (exact, bad) in trials.items():
        if exact:
            raise AssertionError(f"oracle rejects an exact {name} answer: {exact}")
        if not bad:
            raise AssertionError(f"oracle accepts a nudged {name} answer")


if __name__ == "__main__":
    self_check()
    print("oracle self-check: exact answers accepted, nudged answers rejected")
