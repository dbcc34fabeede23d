"""Exception types shared across the package, and the shared positivity and integer checks."""

import math
from operator import index

_INF = math.inf


class DomainError(ValueError):
    """Input is well-formed but outside the domain of the operation."""


def require_positive(message: str, *values, zero_ok: bool = False) -> None:
    """Raise DomainError(message) unless every value is finite and above zero.

    zero_ok also admits 0. NaN and the infinities always fail: NaN slips
    through a bare `x <= 0` test because every comparison with it is false.
    A str, None or complex fails too: it has no order against 0.
    """
    try:
        for v in values:
            if not 0 < v < _INF and not (zero_ok and v == 0):
                raise DomainError(message)
    except TypeError:
        raise DomainError(message) from None


def require_integer(name: str, value) -> int:
    """value as an int (operator.index: True reads as 1, 3.0 is refused), else DomainError naming it."""
    try:
        return index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


class ResourceLimitError(RuntimeError):
    """Request would exceed a fixed enumeration, resolution or period limit."""


class UnsupportedCodeError(DomainError):
    """Code has no entry in the hardware mapping being queried."""


class SingularSystemError(ValueError):
    """Linear system has no unique solution; solve_unique's message names the ranks."""


class FitError(DomainError):
    """Regression input is degenerate (too few or collinear points)."""
