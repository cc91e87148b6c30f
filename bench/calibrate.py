"""Fixed reference computations, timed alongside the workload.

They show how fast the host ran during a run, independently of the
package.  Each has a nominal time, its time on the 2-core Xeon VM the
benchmark was written on; the benchmark scales its time metrics by the
nominal time over the measured one.

`reference_seconds` times runs of a small, fixed mix of the kind of work
the package does in process: a pure-Python triad scan over a tuple-of-tuples
grid and a few small numpy solves, about 4 ms each.  `sweep_seconds` times
averaging sweeps over a half-empty 100x100 tuple grid, shaped like the
iterative solve of an incomplete matrix.  `program_seconds` times a stand-alone
program shaped like one command-line request.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

KERNEL_S = 0.004  # nominal time of one `_kernel` run
SWEEP_S = 0.08  # nominal time of one `_sweeps` run
PROGRAM_S = 0.33  # nominal time of one PROGRAM run

_N = 40
_rng = np.random.default_rng(0)
_W = np.exp(_rng.uniform(-2.0, 2.0, _N))
_GRID = tuple(tuple(float(a / b) for b in _W) for a in _W)
_SYSTEM = np.eye(8) * 8.0 + _rng.uniform(0.0, 1.0, (8, 8))
_RHS = np.ones(8)


def _kernel() -> float:
    grid, worst = _GRID, 0.0
    for i in range(_N):
        row_i = grid[i]
        for j in range(i + 1, _N):
            m_ij = row_i[j]
            for k in range(j + 1, _N):
                q = row_i[k] * grid[k][j] / m_ij
                worst = max(worst, min(abs(1.0 - q), abs(1.0 - 1.0 / q)))
    for _ in range(20):
        worst += float(np.linalg.solve(_SYSTEM, _RHS)[0])
    return worst


class _Grid:
    def __init__(self, rows):
        self.rows = rows

    def entry(self, i, j):
        return self.rows[i][j]


_SPARSE_N = 100
_keep = _rng.random((_SPARSE_N, _SPARSE_N)) < 0.5
_SPARSE = _Grid(tuple(tuple(float(_W[i % _N] / _W[j % _N]) if _keep[i, j] or i == j else None
                            for j in range(_SPARSE_N)) for i in range(_SPARSE_N)))


def _sweeps() -> float:
    """Averaging sweeps: each concept but the first, fixed at 1, becomes the
    mean of ratio * estimate over its specified neighbours; every iterate
    is kept, as an iterative solver keeps them to choose the best."""
    grid, n = _SPARSE, _SPARSE_N
    estimates, iterates = {0: 1.0}, []
    for _ in range(50):
        new = {0: 1.0}
        for j in range(1, n):
            total, count = 0.0, 0
            for i in range(n):
                ratio = grid.entry(j, i)
                if i == j or ratio is None or i not in estimates:
                    continue
                total += ratio * estimates[i]
                count += 1
            if count:
                new[j] = total / count
        estimates = new
        iterates.append(tuple(estimates.get(k) for k in range(n)))
    return iterates[-1][-1]


def sweep_seconds() -> float:
    start = time.perf_counter()
    _sweeps()
    return time.perf_counter() - start


def reference_seconds(budget_s: float) -> list[float]:
    """Times of back-to-back runs of the reference for about ``budget_s``."""
    times = []
    stop = time.perf_counter() + budget_s
    while not times or time.perf_counter() < stop:
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


# A fixed stand-alone program of the same kind as one `hrerank` request at
# n=200: start an interpreter, import numpy, write and parse a 200x200
# matrix as text, and scan triads through a method call per entry.  About
# 0.3 s.
PROGRAM = """
import numpy as np

n = 200
w = np.exp(np.random.default_rng(0).uniform(-2.0, 2.0, n))
text = "\\n".join(" ".join(repr(float(a / b)) for b in w) for a in w)
grid = tuple(tuple(float(tok) for tok in line.split()) for line in text.splitlines())


class Grid:
    def entry(self, i, j):
        return grid[i - 1][j - 1]


m, worst = Grid(), 0.0
for i in range(1, 3):
    for j in range(i + 1, n + 1):
        for k in range(j + 1, n + 1):
            q = m.entry(i, k) * m.entry(k, j) / m.entry(i, j)
            worst = max(worst, min(abs(1.0 - q), abs(1.0 - 1.0 / q)))
print(worst)
"""


def program_seconds() -> float:
    """Wall time of one run of PROGRAM in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROGRAM], check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start
