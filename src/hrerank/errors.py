"""Exception types shared across the package."""

from __future__ import annotations


class HreError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HreError):
    """Malformed matrix or weights file."""

    def __init__(self, message: str, line: int, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(HreError):
    """A problem failed fatal validation; carries the full report."""

    def __init__(self, report):
        self.report = report
        fatal = [i for i in report.issues if i.fatal]
        detail = "; ".join(f"{i.category} at {i.location}" for i in fatal)
        super().__init__(f"invalid problem: {detail}")


class IncompleteMatrixError(HreError):
    """A ratio the operation reads is missing: any ratio for EV, GM and CI; an unknown concept's ratio for the averaging systems."""


class SingularSystemError(HreError):
    """Linear system without a usable solution: beyond the float range, a pivot below tolerance, or a failed residual."""


class InadmissibleSolutionError(HreError):
    """Solver produced a weight that is not admissible (finite and above 1e-9 times the largest reference weight)."""


class NonConvergenceError(HreError):
    """Iterative method failed to converge within its iteration budget."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


class SolveFailedError(HreError):
    """Every solution strategy failed for this problem."""
