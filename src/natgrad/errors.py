"""Exception types shared across the library.

The CLI maps exceptions onto exit codes: usage and contract violations exit
with 1, numerical failures (everything below NumericalError) with 2, and
file problems (OSError, FormatError) with 3.
"""
from __future__ import annotations


class NumericalError(RuntimeError):
    """A computation failed for numerical reasons, not caller error.

    step is the training step the failure happened at, when known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class SingularMatrixError(NumericalError):
    """A matrix that must be invertible is singular; message names the
    offending smallest eigenvalue."""


class RankDeficiencyError(NumericalError):
    """An input matrix does not have the rank an algorithm requires."""


class NonConvergenceError(NumericalError):
    """An iteration hit its budget before reaching tolerance."""

    def __init__(self, message: str, final_error: float | None = None):
        super().__init__(message)
        self.final_error = final_error


class DivergenceError(NumericalError):
    """Training produced non-finite outputs."""


class FormatError(ValueError):
    """A file failed to parse; the message carries the row/column location."""


class DegenerateInputError(ValueError):
    """Input data is degenerate for the requested operation (e.g. a
    zero-norm row cannot be normalized)."""
