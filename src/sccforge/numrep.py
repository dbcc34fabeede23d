"""Signed-digit representations of switched-capacitor conversion ratios.

A ratio m / radix**n admits many representations of the form

    value = a0 + sum_j A_j * radix**-j,    a0 in {0, 1},  |A_j| <= radix - 1,

and each one corresponds to a distinct way of stacking the flying capacitors
of an n-capacitor bank. This module generates the complete code family of a
ratio by two independent routes (a digit-by-digit construction from the least
significant digit up, and a full sweep of the digit lattice) and, for binary
banks, arranges that family into a cyclic schedule that balances how often and
in which direction each capacitor is engaged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ResourceLimitError

_ENUMERATION_CELL_LIMIT = 10**7
_BALANCE_RESOLUTION_LIMIT = 10


@dataclass(frozen=True, order=True)
class TargetRatio:
    """A conversion ratio m / radix**resolution strictly between 0 and 1."""

    m: int
    radix: int
    resolution: int

    def __post_init__(self) -> None:
        if self.radix < 2:
            raise DomainError(f"radix must be at least 2, got {self.radix}")
        if self.resolution < 1:
            raise DomainError(f"resolution must be at least 1, got {self.resolution}")
        top = self.radix**self.resolution - 1
        if not 1 <= self.m <= top:
            raise DomainError(
                f"numerator must lie in [1, {top}] for radix {self.radix} "
                f"at resolution {self.resolution}, got {self.m}"
            )

    @classmethod
    def from_fraction(cls, numerator: int, denominator: int, radix: int = 2) -> "TargetRatio":
        """Build from numerator/denominator where the denominator is a radix power."""
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


@dataclass(frozen=True)
class SignedDigitCode:
    """One representation a0 + sum_j digits[j-1] * radix**-j.

    a0 is the source-connection bit. Digit index 1 is the most significant;
    a positive digit stacks its capacitor subtractively during charge
    redistribution, a negative digit additively, zero leaves it bypassed.
    """

    a0: int
    digits: tuple[int, ...]
    radix: int = 2

    def __post_init__(self) -> None:
        digits = tuple(map(int, self.digits))
        object.__setattr__(self, "digits", digits)
        if self.a0 not in (0, 1):
            raise DomainError(f"a0 must be 0 or 1, got {self.a0}")
        if self.radix < 2:
            raise DomainError(f"radix must be at least 2, got {self.radix}")
        if not digits:
            raise DomainError("a code needs at least one fractional digit")
        limit = self.radix - 1
        if min(digits) < -limit or max(digits) > limit:
            for j, d in enumerate(digits, start=1):
                if not -limit <= d <= limit:
                    raise DomainError(f"digit {j} outside [-{limit}, {limit}]: {d}")

    @property
    def resolution(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> Fraction:
        acc = Fraction(self.a0)
        for j, d in enumerate(self.digits, start=1):
            acc += Fraction(d, self.radix**j)
        return acc

    @property
    def zero_count(self) -> int:
        return self.digits.count(0)

    @property
    def engaged_count(self) -> int:
        return len(self.digits) - self.zero_count

    def to_text(self) -> str:
        """Space-separated digits, a0 first: "1 -1 0 -1"."""
        return " ".join(str(x) for x in (self.a0, *self.digits))

    def to_json_dict(self) -> dict:
        return {"a0": self.a0, "digits": list(self.digits), "radix": self.radix}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SignedDigitCode":
        return cls(data["a0"], tuple(data["digits"]), data.get("radix", 2))


def _canonical_key(code: SignedDigitCode) -> tuple[int, ...]:
    # ascending by the digit tuple read least-significant first; this is the
    # order a full factorial sweep with the last digit fastest meets matches
    return tuple(reversed(code.digits))


@dataclass(frozen=True)
class CodeSet:
    """A duplicate-free set of codes of one ratio, in canonical order.

    spawn_codes and enumerate_codes return the complete family. A hand-built
    set is checked for radix, resolution, value and duplicates, not for
    completeness. Codes are kept in canonical order regardless of
    construction order.
    """

    ratio: TargetRatio
    codes: tuple[SignedDigitCode, ...]

    def __post_init__(self) -> None:
        codes = tuple(sorted(self.codes, key=_canonical_key))
        object.__setattr__(self, "codes", codes)
        if not codes:
            raise DomainError("empty code set")
        seen = set()
        r = self.ratio.radix
        for code in codes:
            if code.radix != r:
                raise DomainError("code radix does not match the ratio")
            if code.resolution != self.ratio.resolution:
                raise DomainError("code resolution does not match the ratio")
            # a0*r**n + sum_j d_j*r**(n-j) == m, the exact value test in integers
            numerator = code.a0
            for d in code.digits:
                numerator = numerator * r + d
            if numerator != self.ratio.m:
                raise DomainError(f"code {code.to_text()!r} does not represent {self.ratio}")
            key = (code.a0, code.digits)
            if key in seen:
                raise DomainError(f"duplicate code {code.to_text()!r}")
            seen.add(key)

    def __iter__(self):
        return iter(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, idx):
        return self.codes[idx]

    def __contains__(self, code) -> bool:
        return code in self.codes

    def as_set(self) -> frozenset[tuple[int, tuple[int, ...]]]:
        return frozenset((c.a0, c.digits) for c in self.codes)


def conventional_code(m: int, radix: int, resolution: int) -> SignedDigitCode:
    """Plain base-radix expansion of m / radix**resolution, a0 = 0."""
    TargetRatio(m, radix, resolution)  # bounds check
    digits = tuple((m // radix ** (resolution - j)) % radix for j in range(1, resolution + 1))
    return SignedDigitCode(0, digits, radix)


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
    family in canonical order. Partial codes share their lower digits as a
    chain (digit, lower chain), so each step costs the same however many
    digits lie below it.
    """
    r = ratio.radix
    partial = [(ratio.m, ())]  # (numerator left over, chain of the digits placed)
    for _ in range(ratio.resolution):
        grown = []
        for rest, low in partial:
            residue = rest % r
            for d in (residue - r, residue) if residue else (0,):
                grown.append(((rest - d) // r, (d, low)))
        partial = grown
    codes = []
    for a0, chain in partial:
        digits = []
        while chain:  # the most significant digit heads the chain
            d, chain = chain
            digits.append(d)
        codes.append(SignedDigitCode(a0, tuple(digits), r))
    return CodeSet(ratio, tuple(codes))


def enumerate_codes(ratio: TargetRatio) -> CodeSet:
    """Every code of the ratio, by exhaustive sweep of the digit lattice.

    Deliberately independent of spawn_codes so the two generators can be
    cross-checked. The sweep size (2*radix - 1)**resolution is capped.
    """
    r, n = ratio.radix, ratio.resolution
    cells = (2 * r - 1) ** n
    if cells > _ENUMERATION_CELL_LIMIT:
        raise ResourceLimitError(
            f"enumeration would visit {cells} digit tuples (limit {_ENUMERATION_CELL_LIMIT})"
        )
    want_plain = ratio.m  # integer numerator when a0 == 0
    want_carry = ratio.m - r**n  # and when a0 == 1
    found = []
    for digits in itertools.product(range(-(r - 1), r), repeat=n):
        f = 0
        for d in digits:
            f = f * r + d
        if f == want_plain:
            found.append(SignedDigitCode(0, digits, r))
        elif f == want_carry:
            found.append(SignedDigitCode(1, digits, r))
    return CodeSet(ratio, tuple(found))


def _arrange(family: CodeSet) -> list[SignedDigitCode]:
    """Order the family into a balanced cycle of 2**n rows, first fit.

    Each code fills 2**zero_count rows; the copies add up to 2**n, n being
    the resolution, because each sign pattern of the n digits matches exactly
    one code. Each row takes the first code, in the family's canonical order,
    that has copies left and is admissible: every capacitor it engages was
    last engaged with the opposite sign, or not yet. Up to
    _BALANCE_RESOLUTION_LIMIT this single pass fills every row and closes the
    cycle alternating. It does not enforce spacing, yet each capacitor's
    engagements fall floor(2**n/q) to ceil(2**n/q) rows apart (q being its
    count over the cycle); the tests check both properties.
    """
    order = family.codes
    left = [1 << c.zero_count for c in order]  # copies still to place, by index in order
    # bit k stands for capacitor k: pos[i] and neg[i] hold the capacitors code i
    # engages with each sign, up and down those last engaged with each sign
    pos = [sum(1 << k for k, d in enumerate(c.digits) if d > 0) for c in order]
    neg = [sum(1 << k for k, d in enumerate(c.digits) if d < 0) for c in order]
    up = down = 0

    seq: list[SignedDigitCode] = []
    for _ in range(1 << family.ratio.resolution):
        i = next(i for i in range(len(order)) if left[i] and not (pos[i] & up or neg[i] & down))
        left[i] -= 1
        up = up & ~neg[i] | pos[i]
        down = down & ~pos[i] | neg[i]
        seq.append(order[i])
    return seq


def balanced_sequence(ratio: TargetRatio) -> tuple[SignedDigitCode, ...]:
    """Cyclic schedule of 2**n codes that balances capacitor activity.

    Defined for radix 2 only. The rows are the family from spawn_codes, each
    code taken 2**(n - s) times, s being its engaged-digit count, so the
    schedule exercises the whole family. Consecutive engagements of every
    capacitor alternate in sign around the cycle; that is the only rule the
    pass follows, and the near-uniform spacing that comes with it is checked
    by the tests.
    """
    if ratio.radix != 2:
        raise DomainError("balanced sequencing is defined for radix 2 only")
    n = ratio.resolution
    if n > _BALANCE_RESOLUTION_LIMIT:
        raise ResourceLimitError(
            f"balanced sequence of 2**{n} rows exceeds the supported resolution "
            f"{_BALANCE_RESOLUTION_LIMIT}"
        )
    return tuple(_arrange(spawn_codes(ratio)))
