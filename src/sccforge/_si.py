"""Parsing helpers for quantities, fractions, and flat config files; short fraction text."""

from __future__ import annotations

import math
import sys
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

from .errors import FRACTION_DIGITS, DomainError

# SI prefixes as powers of ten
_PREFIXES = {"p": -12, "n": -9, "u": -6, "µ": -6, "m": -3, "k": 3, "M": 6, "G": 9}

# unit letters that may trail a magnitude ("4.7uF", "100kHz", "1.2Ohm")
_UNIT_SUFFIXES = ("ohm", "Ohm", "OHM", "Hz", "hz", "F", "V", "A", "s", "S")


def _split_quantity(text: str) -> tuple[str, int]:
    """The number of a quantity and its SI prefix as a power of ten; the unit letter is dropped."""
    s = text.strip()
    if not s:
        raise DomainError("empty quantity")
    for unit in _UNIT_SUFFIXES:
        if s.endswith(unit) and len(s) > len(unit):
            s = s[: -len(unit)]
            break
    # a NaN is a number, not n(ano) times "na"
    if s[-1] in _PREFIXES and s.lstrip("+-").lower() != "nan":
        return s[:-1], _PREFIXES[s[-1]]
    return s, 0


def parse_quantity(text: str) -> float:
    """Parse a number with an optional SI prefix and unit, e.g. "4.7uF" -> 4.7e-6.

    The unit letter is stripped and ignored; dimensional consistency is the
    caller's concern. NaN, infinities and values that overflow to infinity
    are rejected.
    """
    number, power = _split_quantity(text)
    try:
        value = float(number) * float(f"1e{power}")
    except ValueError:
        raise DomainError(f"cannot parse quantity {text!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"quantity {text!r} is not a finite number")
    return value


def parse_fraction(text: str) -> Fraction:
    """Parse "3/8", "0.4", "2" or "4e-1" into an exact Fraction.

    Neither numerator nor denominator can have more digits than the text
    before the exponent plus the exponent's size; text where that exceeds
    FRACTION_DIGITS is rejected before the Fraction is built, so
    "1e-9999999" costs nothing.
    """
    s = text.strip()
    mantissa, _, exponent = s.lower().partition("e")
    try:
        size = len(mantissa) + abs(int(exponent or 0))
    except ValueError:
        raise DomainError(f"cannot parse fraction {text!r}") from None
    if size > FRACTION_DIGITS:
        raise DomainError(f"fraction {text!r} exceeds the {FRACTION_DIGITS}-digit limit")
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse fraction {text!r}") from None


def parse_slot(text: str) -> Fraction | Decimal:
    """Parse a slot duration: "Ts/4" -> Fraction(1, 4) of a period, else seconds.

    Seconds pass parse_quantity's checks and are kept exact, "2.5u" ->
    Decimal("2.5E-6"); a value that underflows a float reads as 0.
    """
    s = text.strip()
    if s.lower().startswith("ts/"):
        try:
            den = int(s[3:])
        except ValueError:
            raise DomainError(f"cannot parse slot spec {text!r}") from None
        if den < 1:
            raise DomainError(f"slot divisor must be positive, got {den}")
        return Fraction(1, den)
    if not parse_quantity(s):
        return Decimal(0)
    number, power = _split_quantity(s)
    sign, digits, exponent = Decimal(number).as_tuple()
    return Decimal((sign, digits, exponent + power))


def fraction_text(value: Fraction) -> str:
    """value as m/d when d <= 64 and |value| <= 1, else to four significant digits.

    A float-born Fraction has an unreadable denominator, and a large value
    an unreadable numerator. A value past the float range, or too small
    for a normal float, is rounded from its integers.
    """
    if value.denominator <= 64 and abs(value) <= 1:
        return str(value)
    if sys.float_info.min <= abs(value) <= sys.float_info.max:
        return f"{float(value):.4g}"
    rounded = Context(prec=4).divide(Decimal(value.numerator), Decimal(value.denominator))
    return f"{rounded.normalize():g}"


def load_config(path: str | Path) -> dict[str, str]:
    """Read a flat key = value file; '#' starts a comment, blank lines skipped.

    Keys are normalized to lowercase with hyphens replaced by underscores, and
    a key set twice is an error; values are raw strings for the caller to parse.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not UTF-8 text") from None
    out: dict[str, str] = {}
    seen: dict[str, int] = {}  # the line that set each key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if not key:
            raise DomainError(f"{path}:{lineno}: empty key")
        if key in seen:
            raise DomainError(f"{path}:{lineno}: key {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        out[key] = value.strip()
    return out
