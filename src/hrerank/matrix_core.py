"""Pairwise-comparison data model: parsing, validation, reciprocity repair.

A comparison matrix stores, for every ordered pair of concepts (i, j), how
many times concept i outweighs concept j.  Entries may be missing ("?" in
the file format); all indices in the public API are 1-based, matching the
file format and the usual decision-analysis convention.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

# Tolerances used by validation and the repair operations.
DIAGONAL_TOL = 1e-12          # diagonal entries must equal 1 within this
RECIPROCAL_WARN_TOL = 1e-9    # |m_ij * m_ji - 1| beyond this is flagged
KNOWN_RATIO_WARN_TOL = 1e-6   # relative deviation of a provided known-known ratio
_TINY = np.finfo(float).tiny  # smallest normal float64

FATAL_CATEGORIES = frozenset({"nonpositive-entry", "bad-diagonal", "unreachable-concept"})


class PcMatrix:
    """Square grid of optional positive ratios, held as one read-only float64 array.

    ``array[i - 1, j - 1]`` is the ratio of concept i to concept j; NaN
    marks a missing entry.  The constructor takes rows of numbers with
    ``None`` for a missing entry.  A NaN value is refused there, since it
    would read as a missing comparison.

    Structural soundness (squareness, n >= 2) is enforced on construction.
    Numeric soundness (positivity, unit diagonal) is checked by `validate`,
    so that diagnostic tooling can describe broken input instead of refusing
    to represent it.
    """

    __slots__ = ("_array",)

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        if len(rows) < 2:
            raise ValueError("a comparison matrix needs at least 2 concepts")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("comparison matrix must be square")
        array = np.array(rows, dtype=float)  # None becomes NaN
        if np.count_nonzero(np.isnan(array)) != sum(row.count(None) for row in rows):  # some NaN is not a None
            for i, j in np.argwhere(np.isnan(array)).tolist():
                if rows[i][j] is not None:
                    raise ValueError(f"entry ({i + 1},{j + 1}) is NaN; use None for a missing comparison")
        array.flags.writeable = False
        self._array = array

    @classmethod
    def _from_array(cls, array: np.ndarray) -> PcMatrix:
        """Wrap a square float array the package built itself; NaN means missing."""
        matrix = object.__new__(cls)
        array.flags.writeable = False
        matrix._array = array
        return matrix

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def entries(self) -> tuple[tuple[float | None, ...], ...]:
        """The grid as tuples, ``None`` for a missing entry."""
        return tuple(tuple(None if v != v else v for v in row) for row in self._array.tolist())

    @property
    def n(self) -> int:
        return self._array.shape[0]

    def is_complete(self) -> bool:
        return not np.isnan(self._array).any()

    def __eq__(self, other):
        if not isinstance(other, PcMatrix):
            return NotImplemented
        return np.array_equal(self._array, other._array, equal_nan=True)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"PcMatrix({self.entries!r})"


@dataclass(frozen=True)
class Problem:
    """A comparison matrix plus fixed weights for the reference concepts.

    ``references`` maps 1-based concept indices to their known weights; the
    remaining concepts are the unknowns the solvers estimate.  The mapping
    may be empty for operations that do not need reference concepts.
    """

    matrix: PcMatrix
    references: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        refs = dict(self.references)
        for idx, w in refs.items():
            if not (1 <= idx <= self.matrix.n):
                raise ValueError(f"reference index {idx} outside 1..{self.matrix.n}")
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"reference weight for concept {idx} must be positive")
        object.__setattr__(self, "references", refs)

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def unknown_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i not in self.references)


class Issue(NamedTuple):
    location: str
    category: str
    message: str

    @property
    def fatal(self) -> bool:
        return self.category in FATAL_CATEGORIES

    def __str__(self) -> str:
        return f"{self.category} at {self.location}: {self.message}"


class ValidationReport(NamedTuple):
    issues: tuple[Issue, ...]

    @property
    def ok(self) -> bool:
        return not any(i.fatal for i in self.issues)

    @property
    def warnings(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if not i.fatal)

    @property
    def fatal_issues(self) -> tuple[Issue, ...]:
        return tuple(i for i in self.issues if i.fatal)


_FRACTION_RE = re.compile(r"^(\d+(?:\.\d+)?)/(\d+(?:\.\d+)?)$")
_TOKEN_RE = re.compile(r"[^\s,]+")


def _tokens(line: str) -> list[str]:
    """Tokens of one line; '#' starts a comment."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return line.replace(",", " ").split()  # str.split() and _TOKEN_RE agree on whitespace


def _column(line: str, index: int) -> int:
    """1-based column of token ``index``, for an error message; a comment only cuts the line's end."""
    return [m.start() + 1 for m in _TOKEN_RE.finditer(line)][index]


def _parse_value(token: str, line_no: int, line: str, index: int) -> float | None:
    if token == "?":
        return None
    try:
        value = float(token)
    except ValueError:
        m = _FRACTION_RE.match(token)  # float() refuses every fraction, so it is tried second
        if not m:
            raise ParseError(f"invalid value '{token}'", line_no, _column(line, index)) from None
        den = float(m.group(2))
        if den == 0:
            raise ParseError(f"zero denominator in '{token}'", line_no, _column(line, index)) from None
        return float(m.group(1)) / den
    if value != value:
        raise ParseError(f"'{token}' is not a ratio; write '?' for a missing comparison", line_no, _column(line, index))
    return value


def parse_matrix(text: str) -> Problem:
    """Parse the matrix file format into a Problem.

    Format (UTF-8, '#' comments, tokens split on spaces/tabs/commas)::

        <n>                  size, first line
        <n rows of n tokens> token := decimal | integer | a/b | ?
        ref <i> <w>          zero or more reference lines, i 1-based

    Raises ParseError with line/column on any syntax problem.  Numeric
    soundness (positivity, unit diagonal) is left to `validate`.
    """
    n: int | None = None
    rows: list[list[float | None]] = []
    references: dict[int, float] = {}
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        toks = _tokens(raw)
        if not toks:
            continue
        if n is None:
            if len(toks) != 1:
                raise ParseError("expected a single matrix size", line_no, _column(raw, 1))
            try:
                n = int(toks[0])
            except ValueError:
                raise ParseError(f"matrix size must be an integer, got '{toks[0]}'", line_no, _column(raw, 0)) from None
            if n < 2:
                raise ParseError("matrix size must be at least 2", line_no, _column(raw, 0))
        elif len(rows) < n:
            if len(toks) != n:
                raise ParseError(f"row {len(rows) + 1} has {len(toks)} values, expected {n}", line_no, _column(raw, 0))
            try:
                values = list(map(float, toks))  # the whole row in one call
                if math.isnan(sum(values)):  # a 'nan' token, or inf beside -inf
                    raise ValueError
            except ValueError:  # '?', a fraction or a bad token: token by token, for the value or the error
                values = [_parse_value(tok, line_no, raw, index) for index, tok in enumerate(toks)]
            rows.append(values)
        else:
            if toks[0] != "ref":
                raise ParseError(f"expected 'ref' line, got '{toks[0]}'", line_no, _column(raw, 0))
            if len(toks) != 3:
                raise ParseError("ref line needs exactly: ref <index> <weight>", line_no, _column(raw, 0))
            try:
                idx = int(toks[1])
            except ValueError:
                raise ParseError(f"reference index must be an integer, got '{toks[1]}'", line_no, _column(raw, 1)) from None
            if not (1 <= idx <= n):
                raise ParseError(f"reference index {idx} outside 1..{n}", line_no, _column(raw, 1))
            if idx in references:
                raise ParseError(f"duplicate reference line for concept {idx}", line_no, _column(raw, 1))
            try:
                weight = float(toks[2])
            except ValueError:
                raise ParseError(f"invalid reference weight '{toks[2]}'", line_no, _column(raw, 2)) from None
            if not (math.isfinite(weight) and weight > 0):
                raise ParseError("reference weight must be a positive number", line_no, _column(raw, 2))
            references[idx] = weight

    if n is None:
        raise ParseError("empty input, expected matrix size", max(last_line, 1))
    if len(rows) < n:
        raise ParseError(f"expected {n} matrix rows, got {len(rows)}", last_line)
    return Problem(PcMatrix(rows), references)  # refuses a fraction that came out NaN


def validate(problem: Problem) -> ValidationReport:
    """Check every matrix/problem invariant, collecting issues rather than raising.

    Fatal categories: nonpositive-entry, bad-diagonal and unreachable-concept
    (only checked when reference concepts exist, since reachability is a
    solver precondition).  Non-reciprocal pairs are warnings; reciprocity
    restoration handles them.  Issues come in that order, each kind by row
    and then column.
    """
    a = problem.matrix.array
    bad, bad_diagonal = _fatal_masks(a)
    with np.errstate(over="ignore", invalid="ignore"):
        far = np.abs(a * a.T - 1.0) > RECIPROCAL_WARN_TOL  # symmetric: reported for i < j only
    issues: list[Issue] = []
    if bad.any():
        far &= ~(bad | bad.T)
        rows, cols = np.nonzero(bad)
        for i, j, v in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()):
            message = f"entry {v!r} is not a positive finite ratio"
            issues.append(Issue(f"({i + 1},{j + 1})", "nonpositive-entry", message))

    if bad_diagonal.any():
        for i, v in enumerate(a.diagonal().tolist(), start=1):
            if v != v:
                issues.append(Issue(f"({i},{i})", "bad-diagonal", "diagonal entry is missing"))
            elif 0 < v < math.inf and abs(v - 1.0) > DIAGONAL_TOL:
                issues.append(Issue(f"({i},{i})", "bad-diagonal", f"diagonal entry {v!r} is not 1"))

    if far.any():
        rows, cols = np.nonzero(far)
        for i, j, x, y in zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist(), a[cols, rows].tolist()):
            if i < j:
                message = f"m({i + 1},{j + 1})={x:g} and m({j + 1},{i + 1})={y:g} are not mutual inverses"
                issues.append(Issue(f"({i + 1},{j + 1})", "non-reciprocal-pair", message))

    if problem.references:
        message = "no chain of specified ratios links it to a reference concept"
        issues.extend(Issue(f"c{idx}", "unreachable-concept", message) for idx in is_reachable(problem)[1])
    return ValidationReport(tuple(issues))


def restore_reciprocity(matrix: PcMatrix) -> PcMatrix:
    """Force m_ij * m_ji = 1 on every pair while staying close to the input.

    For a fully specified pair both entries move to the geometric mean of
    the entry and the inverse of its counterpart; a half-specified pair is
    completed with the exact inverse; fully missing pairs stay missing.
    The diagonal is left as it is.  Already-reciprocal matrices pass
    through unchanged (this is a fixpoint), so the solve pipeline applies
    it unconditionally.

    Expects entries to be positive (run `validate` first on foreign input).
    """
    return PcMatrix._from_array(_restored(matrix.array))


def _restored(a: np.ndarray) -> np.ndarray:
    """`restore_reciprocity` of each matrix of a stack (..., n, n), as one new stack."""
    at = np.swapaxes(a, -1, -2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        quotient = a / at
        ratio = np.sqrt(quotient)
        # a quotient leaves the float range only together with its mirror, which then falls below tiny
        if np.fmin.reduce(quotient, axis=None) < _TINY:  # take the roots first there
            ratio = np.where((quotient == math.inf) | (quotient < _TINY), np.sqrt(a) / np.sqrt(at), ratio)
        restored = np.where(np.isnan(at), a, np.where(np.isnan(a), 1.0 / at, ratio))
    diagonal = range(a.shape[-1])
    restored[..., diagonal, diagonal] = a[..., diagonal, diagonal]
    return restored


def fill_known_ratios(problem: Problem) -> tuple[Problem, tuple[Issue, ...]]:
    """Overwrite every known-known ratio with the one its reference weights define.

    For reference concepts the ratio is definitional: m_ji = w_j / w_i.
    Provided values that deviate by more than a relative 1e-6 are kept in
    the returned issue list as known-known-mismatch warnings (survey noise
    is worth reporting, not worth failing on).  Entries touching at least
    one unknown concept are never modified.
    """
    a = problem.matrix.array
    grid, rows, cols, targets = _filled(a, problem.references)
    if not targets:
        return problem, ()
    issues = tuple(
        Issue(f"({i + 1},{j + 1})", "known-known-mismatch", f"provided ratio {old:g} replaced by reference-defined {t:g}")
        for i, j, old, t in zip(rows, cols, a[rows, cols].tolist(), targets)
        if abs(old - t) > KNOWN_RATIO_WARN_TOL * abs(t)
    )
    return Problem(PcMatrix._from_array(grid), problem.references), issues


def _filled(a: np.ndarray, references: dict[int, float]) -> tuple[np.ndarray, list[int], list[int], list[float]]:
    """`fill_known_ratios` over a stack (..., n, n): the filled copy and the pairs' rows, columns and ratios."""
    known = sorted(references)
    rows, cols, targets = [], [], []
    for pos, i in enumerate(known):
        for j in known[pos + 1 :]:
            target = references[i] / references[j]
            rows += (i - 1, j - 1)
            cols += (j - 1, i - 1)
            targets += (target, 1.0 / target)
    grid = a.copy()
    grid[..., rows, cols] = targets
    return grid, rows, cols, targets


def is_reachable(problem: Problem) -> tuple[bool, tuple[int, ...]]:
    """Can every unknown concept be linked to a reference one?

    Uses the undirected graph whose edges are the pairs with at least one
    specified ratio (which is exactly the presence pattern after reciprocity
    restoration).  Returns (all reachable, sorted unreachable indices).
    """
    linked = ~np.isnan(problem.matrix.array)
    linked |= linked.T
    seen = np.zeros(problem.n, dtype=bool)
    seen[[i - 1 for i in problem.references]] = True
    count, previous = len(problem.references), -1
    while count != previous:  # one more hop per step, until nothing new is reached
        seen = seen @ linked | seen
        count, previous = np.count_nonzero(seen), count
    unreachable = tuple((np.flatnonzero(~seen) + 1).tolist())
    return (not unreachable, unreachable)


class Prepared(NamedTuple):
    """A validated, repaired problem and its warnings, as `preprocess` returns them.

    Every solver accepts one in place of a `Problem` and then neither
    validates nor repairs again.
    """

    problem: Problem
    warnings: tuple[Issue, ...]


def preprocess(problem: Problem | Prepared) -> Prepared:
    """Validation + reciprocity restoration + known-ratio fill, in that order.

    The standard entry gate for every solver.  Raises ValidationError when
    the report contains fatal issues; returns the repaired problem together
    with the accumulated warnings.  An already prepared problem is returned
    as it is.
    """
    if isinstance(problem, Prepared):
        return problem
    report = validate(problem)
    if not report.ok:
        raise ValidationError(report)
    filled, fill_issues = fill_known_ratios(Problem(restore_reciprocity(problem.matrix), problem.references))
    return Prepared(filled, report.warnings + fill_issues)


def _above_diagonal(n: int) -> np.ndarray:
    """Boolean n x n mask of the strict upper triangle (i < j), rows first."""
    index = np.arange(n)
    return index[:, None] < index


def _fatal_masks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`validate`'s fatal rule on a stack (..., n, n), reachability aside: bad entries, diagonals not 1."""
    bad_diagonal = ~(np.abs(np.diagonal(a, axis1=-2, axis2=-1) - 1.0) <= DIAGONAL_TOL)
    return (a <= 0) | (a == math.inf), bad_diagonal  # a missing (NaN) entry compares false


def _samples(a: np.ndarray, references) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unknowns' row indices, their rows zeroed where not sampled, the sample mask, the counts D.

    The one place that decides what the averaging rule samples: unknown u
    samples every other concept i whose ratio m(u, i) is specified, so D_u
    is n - 1 on a complete matrix.  ``a`` is one matrix or a stack
    (..., n, n) of them; the unknowns are the concepts not in ``references``.
    """
    rows = np.array([i for i in range(a.shape[-1]) if i + 1 not in references], dtype=np.intp)
    ratios = a[..., rows, :]
    sampled = ~np.isnan(ratios)
    sampled[..., np.arange(len(rows)), rows] = False
    return rows, np.where(sampled, ratios, 0.0), sampled, sampled.sum(axis=-1)


def _sum_in_order(values) -> float:
    """Add floats left to right, one rounding per addition.

    From Python 3.12 on the built-in sum() compensates its rounding errors,
    so printed sums would depend on the interpreter version.
    """
    total = 0.0
    for v in values:
        total += v
    return total
