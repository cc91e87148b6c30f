"""Seeded input generator owned by the benchmark.

Every input is built here with numpy from the benchmark seed, never with the
package's own Monte Carlo helpers, so a change to the package cannot change
what the benchmark feeds it.  A case's random stream depends only on the
seed and the case's own label, so adding or reordering cases leaves the
other cases' inputs untouched.

Missing entries are NaN in the arrays; the matrix file format writes them
as '?'.  Values are written with ``repr`` so parsing the file gives back
the array bit for bit.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

WEIGHT_RANGE = (0.1, 10.0)


@dataclass(frozen=True)
class Case:
    """One comparison problem: matrix (NaN = missing), references, truth."""

    label: str
    matrix: np.ndarray
    references: dict[int, float]  # 1-based concept index -> fixed weight
    truth: np.ndarray  # generating weights; the answer itself when noise == 0
    noise: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def complete(self) -> bool:
        return not np.isnan(self.matrix).any()


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def _consistent_noisy(rng: np.random.Generator, n: int, noise: float):
    lo, hi = np.log(WEIGHT_RANGE[0]), np.log(WEIGHT_RANGE[1])
    weights = np.exp(rng.uniform(lo, hi, n))
    matrix = weights[:, None] / weights[None, :]
    upper = np.triu_indices(n, 1)
    matrix[upper] *= np.exp(rng.uniform(-noise, noise, upper[0].size))
    matrix.T[upper] = 1.0 / matrix[upper]
    np.fill_diagonal(matrix, 1.0)
    return weights, matrix


def _connected(mask: np.ndarray) -> bool:
    seen = np.zeros(mask.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        reached = mask[frontier].any(axis=0) & ~seen
        seen |= reached
        frontier = reached
    return bool(seen.all())


def _half_missing_mask(rng: np.random.Generator, n: int) -> np.ndarray:
    """Each pair present with probability 1/2; redrawn until connected.

    ``rng`` is seeded by the case label alone, not by the benchmark seed:
    the averaging iteration's convergence rate depends on the pattern (for
    consistent data its iteration matrix is similar to the adjacency walk),
    so a fixed pattern keeps each case's cost the same from seed to seed
    while the seed still draws the weights and the noise.
    """
    upper = np.triu_indices(n, 1)
    while True:
        mask = np.eye(n, dtype=bool)
        keep = rng.random(upper[0].size) < 0.5
        mask[upper[0][keep], upper[1][keep]] = True
        mask |= mask.T
        if _connected(mask):
            return mask


def _ring_mask(n: int) -> np.ndarray:
    """Concept i compared only with its two neighbours on the cycle 1..n."""
    mask = np.eye(n, dtype=bool)
    idx = np.arange(n)
    mask[idx, (idx + 1) % n] = True
    mask[(idx + 1) % n, idx] = True
    return mask


def make_case(seed: int, pattern: str, n: int, noise: float, refs: int) -> Case:
    """pattern is 'complete', 'half' (50% of pairs missing) or 'ring'.

    References are concepts 1..refs with their generating weights; on a
    ring they are neighbours, so the farthest concept is ~n/2 hops away.
    """
    label = f"{pattern}-n{n}-noise{noise:g}-r{refs}"
    rng = _rng(seed, label)
    weights, matrix = _consistent_noisy(rng, n, noise)
    if pattern == "half":
        matrix[~_half_missing_mask(_rng(0, label), n)] = np.nan
    elif pattern == "ring":
        matrix[~_ring_mask(n)] = np.nan
    elif pattern != "complete":
        raise ValueError(f"unknown pattern {pattern!r}")
    references = {i + 1: float(weights[i]) for i in range(refs)}
    return Case(label, matrix, references, weights, noise)


def matrix_text(case: Case) -> str:
    """The case in the package's matrix file format."""
    lines = [str(case.n)]
    for row in case.matrix:
        lines.append(" ".join("?" if np.isnan(v) else repr(float(v)) for v in row))
    lines.extend(f"ref {i} {w!r}" for i, w in sorted(case.references.items()))
    return "\n".join(lines) + "\n"


def digest(parts) -> str:
    """sha256 over a sequence of byte strings or str, order-sensitive."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def case_digest_parts(case: Case):
    yield case.label
    yield np.ascontiguousarray(case.matrix).tobytes()
    yield repr(sorted(case.references.items()))


def rounded(values) -> str:
    """Values rounded to ~1e-9 relative, for answer digests."""
    return ",".join(f"{float(v):.9e}" for v in values)
