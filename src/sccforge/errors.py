"""Exception types shared across the package, and the shared number checks.

require_finite is the one gate for real-number inputs, require_exact for exact
ones: each returns floats or Fractions, or raises the caller's DomainError for NaN,
an infinity, a str, None or a complex, and require_finite for an int or Fraction past the float range.
"""

import math
import numbers
from decimal import Decimal
from fractions import Fraction
from operator import index

# digits (of the mantissa, plus the exponent's size) that require_exact and _si.parse_fraction admit:
# far above any ratio a bank can reach, far below Python's 4,300-digit int-to-str limit
FRACTION_DIGITS = 1000


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


def require_exact(message: str, *values) -> tuple[Fraction, ...]:
    """values as Fractions, exactly but for a float, read at its printed value (0.1 is 1/10)."""
    exact = []
    for v in values:
        if isinstance(v, numbers.Real) and not isinstance(v, numbers.Rational):
            v = str(v)  # a float, numpy's too; "nan" and "inf" do not parse
        elif not isinstance(v, (numbers.Rational, Decimal)):
            raise DomainError(message)  # a str, None or a complex
        elif isinstance(v, Decimal) and v.is_finite():  # bounded before its Fraction costs 10**|exponent|
            if len(v.as_tuple().digits) + abs(v.as_tuple().exponent) > FRACTION_DIGITS:
                raise DomainError(f"{message}: a Decimal past the {FRACTION_DIGITS}-digit limit")
        try:
            exact.append(Fraction(index(v) if isinstance(v, numbers.Integral) else v))  # a numpy int as an int
        except (ValueError, OverflowError):  # NaN or an infinity, a float's or a Decimal's
            raise DomainError(message) from None
    return tuple(exact)


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
