"""Output regulation planning: ratio dithering and LDO pre-selection.

A bank with fixed resolution only offers the lattice m / 2**n, so fine
regulation comes from either time-averaging two adjacent lattice ratios
(dithering) or picking the cheapest ratio whose output clears a linear
regulator's dropout (LDO pre-selection).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ._si import fraction_text
from ._value import Value
from .errors import DomainError, ResourceLimitError, require_exact, require_integer, require_positive
from .numrep import TargetRatio

_MAX_PERIOD_LIMIT = 10_000
# Finest lattice planned on: every gain 2**n/m stays a finite float (2**1024
# overflows), and 2**1000 prints in 302 digits, far inside Python's
# 4,300-digit int-to-str limit.
_RESOLUTION_LIMIT = 1000


def _check_resolution(resolution: int) -> int:
    resolution = require_integer("resolution", resolution)
    if resolution < 1:
        raise DomainError("resolution must be at least 1")
    if resolution > _RESOLUTION_LIMIT:
        raise ResourceLimitError(f"resolution {resolution} beyond the limit {_RESOLUTION_LIMIT}")
    return resolution


class DitherPlan(Value):
    """Repeating schedule: ratios[i] for weights[i] periods each."""

    __slots__ = _fields = ("ratios", "weights")

    def __init__(self, ratios: tuple[TargetRatio, ...], weights: tuple[int, ...]) -> None:
        ratios, weights = tuple(ratios), tuple(weights)
        if not ratios or len(ratios) != len(weights):
            raise DomainError("one positive weight per ratio")
        if not all(type(w) is int and w >= 1 for w in weights):
            raise DomainError("weights must be positive integers")
        if not all(isinstance(r, TargetRatio) for r in ratios):
            raise DomainError("ratios must be TargetRatios")
        if len(set(ratios)) != len(ratios):
            raise DomainError("duplicate ratio in plan")
        self._set(ratios, weights)

    @property
    def period(self) -> int:
        return sum(self.weights)

    def to_json_dict(self) -> dict:
        return {
            "ratios": [str(r) for r in self.ratios],
            "weights": list(self.weights),
            "period": self.period,
            "average": str(dither_average(self)),
        }


def dither_average(plan: DitherPlan) -> Fraction:
    """Exact time-averaged ratio of a plan."""
    total = sum(
        (w * r.value for r, w in zip(plan.ratios, plan.weights)), Fraction(0)
    )
    return total / plan.period


def dither_plan(target, resolution: int, max_period: int) -> DitherPlan:
    """Cheapest dither between adjacent lattice ratios approximating target.

    Minimizes |average - target| over schedules of up to max_period periods;
    ties go to the shorter schedule, then to the lower average. A target
    sitting exactly on the lattice returns the single-ratio plan. Targets
    outside [1/2**n, (2**n - 1)/2**n] are unreachable and rejected.
    Resolution is capped at _RESOLUTION_LIMIT and max_period at
    _MAX_PERIOD_LIMIT.

    Running (m_lo + 1)/2**n for k of p periods and m_lo/2**n, the lattice
    ratio below target, for the rest averages (p*m_lo + k) / (p * 2**n), so
    the best plan is the best rational approximation k/p, p <= max_period,
    of the fractional part of target * 2**n: Fraction.limit_denominator,
    a continued-fraction walk of O(log max_period) steps.
    """
    resolution = _check_resolution(resolution)
    max_period = require_integer("max_period", max_period)
    if max_period < 1:
        raise DomainError("max_period must be at least 1")
    if max_period > _MAX_PERIOD_LIMIT:
        raise ResourceLimitError(f"max_period beyond {_MAX_PERIOD_LIMIT}")
    (t,) = require_exact(f"target {target} is not a finite number", target)
    denom = 2**resolution
    if not Fraction(1, denom) <= t <= Fraction(denom - 1, denom):
        low, high = f"1/{denom}", f"{denom - 1}/{denom}"
        if denom > 64:
            low, high = f"2**-{resolution}", f"1 - 2**-{resolution}"
        text = fraction_text(t)
        if text == "1" and t != 1:  # rounded to 1, so told from 1 by its distance
            text = f"1 {'-' if t < 1 else '+'} {fraction_text(abs(1 - t))}"
        raise DomainError(f"target {text} outside the reachable band [{low}, {high}]")
    m_lo, rest = divmod(t * denom, 1)
    # The closest k/p comes out reduced, so p is the shortest period giving
    # that average. Two different fractions at the same distance are the
    # last convergent and a semiconvergent of larger denominator, and on a
    # tie CPython returns the convergent: the shorter period. The only
    # same-period tie, 0/1 against 1/1 at rest = 1/2 with max_period 1,
    # returns the floor 0/1: the lower average.
    best = rest.limit_denominator(max_period)
    k, period = best.numerator, best.denominator
    lo = TargetRatio(m_lo, 2, resolution)
    if k == 0:
        return DitherPlan((lo,), (1,))
    hi = TargetRatio(m_lo + 1, 2, resolution)
    if k == period:
        return DitherPlan((hi,), (1,))
    return DitherPlan((lo, hi), (period - k, k))


class RatioChoice(NamedTuple):
    """A lattice ratio used straight (step-down) or inverted (step-up)."""

    ratio: TargetRatio
    step_up: bool

    @property
    def gain(self) -> Fraction:
        return 1 / self.ratio.value if self.step_up else self.ratio.value

    def __str__(self) -> str:
        denom = self.ratio.radix**self.ratio.resolution
        if self.step_up:
            return f"{denom}/{self.ratio.m}"
        return str(self.ratio)


def ldo_select_ratio(
    vin: float,
    vout: float,
    dropout: float,
    resolution: int,
    allow_step_up: bool = True,
) -> RatioChoice:
    """Smallest conversion gain that still clears the regulator's dropout.

    Takes the lowest step-down ratio m/2**n that clears vout + dropout,
    else (when allowed) the lowest step-up ratio 2**n/m. Headroom beyond
    vout + dropout is pure dissipation, so smaller sufficient gain means
    better efficiency. The voltages are read exactly (a float at its printed
    value), so each m has a closed form, below. Resolution is capped at _RESOLUTION_LIMIT.
    """
    require_positive("vin and vout must be positive", vin, vout)
    require_positive("dropout must be non-negative", dropout, zero_ok=True)
    resolution = _check_resolution(resolution)
    vin, vout, dropout = require_exact("vin, vout and dropout must be finite", vin, vout, dropout)
    need = vout + dropout
    denom = 2**resolution
    m = math.ceil(need * denom / vin)  # the smallest m with m / 2**n * vin >= need
    if m < denom:
        return RatioChoice(TargetRatio(m, 2, resolution), False)
    if allow_step_up:
        m = min(math.floor(denom * vin / need), denom - 1)  # the largest m with 2**n / m * vin >= need
        if m >= 1:
            return RatioChoice(TargetRatio(m, 2, resolution), True)
    raise DomainError(
        f"no ratio at resolution {resolution} lifts {fraction_text(vin)} V to {fraction_text(need)} V"
        + ("" if allow_step_up else " without step-up")
    )


def ldo_efficiency_bound(vout: float, dropout: float) -> float:
    """Best-case efficiency of the downstream regulator itself."""
    (vout,) = require_positive("vout must be positive", vout)
    (dropout,) = require_positive("dropout must be non-negative", dropout, zero_ok=True)
    if math.isinf(vout + dropout):  # halving is exact up here, and the halves' sum is finite
        vout, dropout = vout / 2, dropout / 2
    return vout / (vout + dropout)
