"""Exception types shared across the package, and the shared number checks.

require_finite is the one gate for real-number inputs: it returns them as
floats, or raises the caller's DomainError for NaN, an infinity, a str, None,
a complex, or an int or Fraction past the float range.
"""

import math
from operator import index


class DomainError(ValueError):
    """Input is well-formed but outside the domain of the operation."""


def require_finite(message: str, *values) -> tuple[float, ...]:
    """values as floats; DomainError(message) unless math.isfinite accepts every one."""
    try:
        if all(map(math.isfinite, values)):
            return tuple(map(float, values))
    except (TypeError, OverflowError):  # a str, None or complex; an int or Fraction past the float range
        pass
    raise DomainError(message)


def require_positive(message: str, *values, zero_ok: bool = False) -> tuple[float, ...]:
    """require_finite's floats; DomainError(message) unless each is above zero (or is zero, with zero_ok)."""
    floats = require_finite(message, *values)
    for v in floats:
        if not (v > 0 or zero_ok and v == 0):
            raise DomainError(message)
    return floats


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
