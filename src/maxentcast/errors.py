"""Exception types shared across the package, and its one integer check."""

from __future__ import annotations

from numbers import Integral


def check_int(name: str, value, minimum: int = 1) -> int:
    """value as an int; a ValueError unless it is an integer >= minimum."""
    if not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


class MaxentcastError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MaxentcastError):
    """A CSV header or row could not be interpreted."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptySeriesError(MaxentcastError):
    """No usable observations were found."""


class GapError(MaxentcastError):
    """A gap in a series could not be repaired under the active policy."""

    def __init__(self, when, reason: str):
        super().__init__(f"{when}: {reason}")
        self.when = when
        self.reason = reason


class InfeasibleWindowError(MaxentcastError):
    """The requested fit or forecast window does not fit inside the series."""

    def __init__(self, message: str, *, start=None, n_rows=None, needed=None,
                 available=None):
        super().__init__(message)
        self.start = start
        self.n_rows = n_rows
        self.needed = needed
        self.available = available


class DegenerateMatrixError(MaxentcastError):
    """Every singular value of the system matrix is numerically zero."""


class NumericalFailureError(MaxentcastError):
    """A matrix decomposition failed to converge."""


class DimensionMismatchError(MaxentcastError):
    """Operands disagree on feature-vector length."""


class DegenerateWindowError(MaxentcastError):
    """A scoring window has too few points or zero variance."""


class DivergentOrbitError(MaxentcastError):
    """A generated orbit left the configured bound."""

    def __init__(self, step: int, value: float, bound: float):
        super().__init__(
            f"orbit exceeded |v| <= {bound:g} at step {step} (value {value:g})")
        self.step = step
        self.value = value
        self.bound = bound


class SchemaMismatchError(MaxentcastError):
    """A JSON document does not carry the expected schema version."""
