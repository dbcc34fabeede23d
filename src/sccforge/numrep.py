"""Signed-digit representations of switched-capacitor conversion ratios.

A ratio m / radix**n admits many representations of the form

    value = a0 + sum_j A_j * radix**-j,    a0 in {0, 1},  |A_j| <= radix - 1,

and each one corresponds to a distinct way of stacking the flying capacitors
of an n-capacitor bank. This module generates the complete code family of a
ratio by two independent routes (a digit-by-digit construction from the least
significant digit up, and an exhaustive join of the digit lattice's two
halves) and, for binary banks, reads a cyclic schedule of that family off a
phase accumulator, which engages each capacitor alternately in each direction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._value import Value
from .errors import DomainError, ResourceLimitError, require_integer

_ENUMERATION_CELL_LIMIT = 2 * 10**5
_BALANCE_RESOLUTION_LIMIT = 10


class TargetRatio(Value):
    """A conversion ratio m / radix**resolution strictly between 0 and 1."""

    __slots__ = _fields = ("m", "radix", "resolution")

    def __init__(self, m: int, radix: int, resolution: int) -> None:
        m = require_integer("m", m)
        radix, resolution = require_integer("radix", radix), require_integer("resolution", resolution)
        if radix < 2:
            raise DomainError(f"radix must be at least 2, got {radix}")
        if resolution < 1:
            raise DomainError(f"resolution must be at least 1, got {resolution}")
        top = radix**resolution - 1
        if not 1 <= m <= top:
            raise DomainError(
                f"numerator must lie in [1, {top}] for radix {radix} at resolution {resolution}, got {m}"
            )
        self._set(m, radix, resolution)

    @classmethod
    def from_fraction(cls, numerator: int, denominator: int, radix: int = 2) -> "TargetRatio":
        """Build from numerator/denominator where the denominator is a radix power."""
        radix, denominator = require_integer("radix", radix), require_integer("denominator", denominator)
        if radix < 2:
            # the power search below would never end for radix 1
            raise DomainError(f"radix must be at least 2, got {radix}")
        n, d = 0, denominator
        while d > 1 and d % radix == 0:
            d //= radix
            n += 1
        if d != 1 or n < 1:
            raise DomainError(
                f"denominator {denominator} is not a power of {radix} greater than 1"
            )
        return cls(numerator, radix, n)

    @property
    def value(self) -> Fraction:
        return Fraction(self.m, self.radix**self.resolution)

    @property
    def effective_resolution(self) -> int:
        """Digit positions that remain once trailing zeros of the plain expansion drop."""
        m, n = self.m, self.resolution
        while m % self.radix == 0:
            m //= self.radix
            n -= 1
        return n

    def reduced(self) -> "TargetRatio":
        """The same value expressed at its effective resolution."""
        shift = self.resolution - self.effective_resolution
        return TargetRatio(self.m // self.radix**shift, self.radix, self.resolution - shift)

    def __str__(self) -> str:
        return f"{self.m}/{self.radix**self.resolution}"


class SignedDigitCode(Value):
    """One representation a0 + sum_j digits[j-1] * radix**-j.

    a0 is the source-connection bit. Digit index 1 is the most significant;
    a positive digit stacks its capacitor subtractively during charge
    redistribution, a negative digit additively, zero leaves it bypassed.
    """

    __slots__ = _fields = ("a0", "digits", "radix")

    def __init__(self, a0: int, digits: tuple[int, ...], radix: int = 2) -> None:
        digits = tuple(require_integer(f"digit {j}", d) for j, d in enumerate(digits, start=1))
        a0 = require_integer("a0", a0)
        if a0 not in (0, 1):
            raise DomainError(f"a0 must be 0 or 1, got {a0}")
        radix = require_integer("radix", radix)
        if radix < 2:
            raise DomainError(f"radix must be at least 2, got {radix}")
        if not digits:
            raise DomainError("a code needs at least one fractional digit")
        limit = radix - 1
        if min(digits) < -limit or max(digits) > limit:
            j, d = next((j, d) for j, d in enumerate(digits, start=1) if not -limit <= d <= limit)
            raise DomainError(f"digit {j} outside [-{limit}, {limit}]: {d}")
        self._set(a0, digits, radix)

    @property
    def resolution(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> Fraction:
        return Fraction(_numerator(self), self.radix**self.resolution)

    @property
    def zero_count(self) -> int:
        return self.digits.count(0)

    def to_text(self) -> str:
        """Space-separated digits, a0 first: "1 -1 0 -1"."""
        return " ".join(map(str, (self.a0, *self.digits)))

    def to_json_dict(self) -> dict:
        return {"a0": self.a0, "digits": list(self.digits), "radix": self.radix}


# the setters of a code's slots, which fill one faster than _set does
_PUT_CODE = tuple(getattr(SignedDigitCode, name).__set__ for name in ("_values", *SignedDigitCode._fields))


def _unchecked_codes(pairs, radix: int) -> list[SignedDigitCode]:
    # codes from (a0, digits) pairs without the constructor's checks, which
    # cannot fail for the two generators: spawn_codes places digits in range
    # (see there), and balanced_sequence's a0 is a carry, each digit a difference of two bits
    new = object.__new__
    put_values, put_a0, put_digits, put_radix = _PUT_CODE
    codes = []
    for a0, digits in pairs:
        code = new(SignedDigitCode)
        put_values(code, (a0, digits, radix))
        put_a0(code, a0)
        put_digits(code, digits)
        put_radix(code, radix)
        codes.append(code)
    return codes


def _numerator(code: SignedDigitCode) -> int:
    # a0*r**n + sum_j d_j*r**(n-j): the code's value times r**n, in integers
    m, r = code.a0, code.radix
    for d in code.digits:
        m = m * r + d
    return m


def _canonical_key(code: SignedDigitCode) -> tuple[int, ...]:
    # ascending by the digit tuple read least-significant first
    return tuple(reversed(code.digits))


class CodeSet(Value):
    """Codes of one ratio in canonical order: one family by construction.

    spawn_codes and enumerate_codes return the complete family. The
    constructor sorts the codes, checks that each represents the ratio, then
    runs check_family (not completeness); spawn_codes, whose family passes
    by construction, sets the fields directly.
    """

    __slots__ = _fields = ("ratio", "codes")

    def __init__(self, ratio: TargetRatio, codes: tuple[SignedDigitCode, ...]) -> None:
        codes = tuple(sorted(codes, key=_canonical_key))
        want = (ratio.radix, ratio.resolution, ratio.m)
        for code in codes:
            if (code.radix, code.resolution, _numerator(code)) != want:
                raise DomainError(f"code {code.to_text()!r} does not represent {ratio}")
        check_family(codes)
        self._set(ratio, codes)

    def __iter__(self):
        return iter(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, idx):
        return self.codes[idx]

    def as_set(self) -> frozenset[tuple[int, tuple[int, ...]]]:
        return frozenset((c.a0, c.digits) for c in self.codes)


def check_family(codes: CodeSet | Sequence[SignedDigitCode]) -> None:
    """The one family rule: raise DomainError unless the codes are some, distinct, of one ratio.

    A CodeSet passes at once, being one family by construction.
    """
    if isinstance(codes, CodeSet):
        return
    if not codes:
        raise DomainError("no codes")
    if len({(c.radix, len(c.digits), _numerator(c)) for c in codes}) > 1:
        raise DomainError("codes mix ratios")
    if len({c.digits for c in codes}) < len(codes):
        raise DomainError("duplicate codes")


def spawn_codes(ratio: TargetRatio) -> CodeSet:
    """Every code of the ratio, built digit by digit from the least significant.

    With k digits still to place above digit j, the numerator left over must
    equal digit j modulo the radix, so digit j is the residue or the residue
    minus the radix: two choices, one when the residue is 0. Every choice
    leads to a code. The leftover is the value of a0 and the k digits above,
    and from 1 <= m < radix**n it stays within [0, radix**k], since each
    digit is smaller than the radix in magnitude; a0 and k digits make any
    such value. So no partial code is a dead end, and once every digit is
    placed the leftover is a0. Taking the lower choice first yields the
    family in canonical order. The codes and the set are built without their
    constructors' checks, none of which can fail here: every digit and a0
    is an int in range, and two codes differ where their choices first did.
    """
    r = ratio.radix
    partial = [(ratio.m, ())]  # (numerator left over, the digits placed)
    for _ in range(ratio.resolution):
        grown = []
        for rest, low in partial:
            residue = rest % r
            for d in (residue - r, residue) if residue else (0,):
                grown.append(((rest - d) // r, (d, *low)))
        partial = grown
    family = object.__new__(CodeSet)
    family._set(ratio, tuple(_unchecked_codes(partial, r)))
    return family


def _digit_tuples(r: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    # every tuple of k digits in [1 - r, r - 1], with its value sum_j d_j*r**(k-j)
    tuples = [((), 0)]
    for _ in range(k):
        tuples = [(t + (d,), v * r + d) for t, v in tuples for d in range(1 - r, r)]
    return tuples


def enumerate_codes(ratio: TargetRatio) -> CodeSet:
    """Every code of the ratio, by exhaustive search of the digit lattice.

    Deliberately independent of spawn_codes (it uses no residues or carries),
    so the two generators can be cross-checked. A code's numerator is
    a0*r**n + head*r**(n-h) + tail, for its high h = n//2 digits and its low
    n - h. The tails are swept once into a table by value; each head, with
    a0 = 0 and with a0 = 1, looks up the tails that complete m. That takes
    about 2*(2r - 1)**(n/2) steps, and the cap is on the larger sweep, the
    (2r - 1)**(n - h) tails: it admits every ratio with a denominator up to
    2**16 and stops radix 2 after n = 22. Every match passes the checked
    constructors.
    """
    r, n = ratio.radix, ratio.resolution
    h = n // 2
    cells = (2 * r - 1) ** (n - h)
    if cells > _ENUMERATION_CELL_LIMIT:
        raise ResourceLimitError(
            f"enumeration would sweep {cells} tuples of the low {n - h} digits "
            f"(limit {_ENUMERATION_CELL_LIMIT})"
        )
    tails: dict[int, list[tuple[int, ...]]] = {}
    for tail, value in _digit_tuples(r, n - h):
        tails.setdefault(value, []).append(tail)
    found = [SignedDigitCode(a0, head + tail, r)
             for head, value in _digit_tuples(r, h) for a0 in (0, 1)
             for tail in tails.get(ratio.m - a0 * r**n - value * r ** (n - h), ())]
    return CodeSet(ratio, tuple(found))


def balanced_sequence(ratio: TargetRatio) -> tuple[SignedDigitCode, ...]:
    """Cyclic schedule of 2**n codes that balances capacitor activity.

    Defined for radix 2 only. The rows are the steps of a phase accumulator
    x_t = (2**n - 1 + t*m) mod 2**n, bit k of x (k = 1 the most significant)
    standing for capacitor k: row t has a0 = the carry out of x_t + m and
    digit k = bit_k(x_{t+1}) - bit_k(x_t). Each row is a code of m/2**n, as
    sum_k d_k*2**(n-k) = x_{t+1} - x_t = m - a0*2**n. A code (a0, d) is the
    step from the prod_k (2 - |d_k|) = 2**zero_count states whose bit k is
    fixed where d_k is nonzero. For odd m the walk visits every state once,
    so each code fills its 2**zero_count rows with no bookkeeping; for even
    m = 2**s * m' the low s bits stay set, and the walk is m'/2**(n - s)'s,
    2**s times over. Capacitor k is engaged when bit k flips, with the sign
    of the flip, and one bit's flips alternate up and down, so each
    capacitor alternates in sign around the cycle; the near-uniform spacing
    that comes with it is checked by the tests. The walk ends where it
    began, so each capacitor's digits sum to 0 and the a0 column to m.
    """
    if ratio.radix != 2:
        raise DomainError("balanced sequencing is defined for radix 2 only")
    n, m = ratio.resolution, ratio.m
    if n > _BALANCE_RESOLUTION_LIMIT:
        raise ResourceLimitError(
            f"balanced sequence of 2**{n} rows exceeds the supported resolution "
            f"{_BALANCE_RESOLUTION_LIMIT}"
        )
    top = (1 << n) - 1
    rows, x = [], top  # each row's code as (carry, bits flipped, bits flipped up)
    for _ in range(top + 1):
        y = x + m
        x, flip = y & top, (x ^ y) & top
        rows.append((y >> n, flip, flip & x))
    places = range(n - 1, -1, -1)
    keys = dict.fromkeys(rows)
    codes = _unchecked_codes(
        ((a0, tuple((1 if up >> b & 1 else -1) if flip >> b & 1 else 0 for b in places))
         for a0, flip, up in keys), 2)
    code_of = dict(zip(keys, codes))
    return tuple(map(code_of.__getitem__, rows))
