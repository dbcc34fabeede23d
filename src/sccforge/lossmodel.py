"""Conduction-loss model: equivalent output resistance of a switched bank.

Each slot k of a ratio's schedule moves charge through an RC loop with
resistance R = switches_per_loop * r_on and capacitance C_k = C / stack_k,
where stack_k counts the unit capacitors the slot's digits stack in series.
With slot duration t and beta = t / (R * C), the bank behaves like an ideal
transformer feeding a series resistance

    R_eq = sum_k (I_k / I_o)**2 * (T_s / (2 * C_k)) * coth(beta_k / 2),

where beta_k = stack_k * beta and I_k is the slot's share of the
output current. As beta_k grows the charge transfer completes within the
slot and R_eq tends to the slow-switching value
sum_k (I_k / I_o)**2 * T_s / (2 * C_k). As beta_k falls toward zero the
current stays flat through the slot and R_eq approaches the fast-switching
(zero-beta) floor (T_s / t) * R * sum (I_k/I_o)**2; since coth x >= 1/x,
the floor also bounds R_eq from below at every beta. The floor is exact in
rationals here.
Equivalent-series resistance of the capacitors is folded into r_on.

The two-phase single-capacitor follower is the two-slot case: currents 1,
stack 1, t = T_s/2, so R_eq = coth(beta/2) / (f_s * C), which rises as 4R
under fast switching and floors at 1/(f_s * C) under slow switching.

The slot currents I_k come from linsolve's exact charge balance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Sequence

from ._si import fraction_text
from ._value import Value
from .errors import DomainError, FitError, require_exact, require_finite, require_positive
from .linsolve import current_balance, schedule_currents
from .numrep import CodeSet, SignedDigitCode, TargetRatio

_NORMAL_MIN = 2.0**-1022  # the smallest positive normal float


def _coth(x: float) -> float:
    # within 3e-11 relative (1e-15 from x = 0.05 up); 1/tanh is closer but moves req's pinned JSON bytes
    # series head below 1e-6 dodges the 0/0 of the exponential form
    if x < 1e-6:
        return 1.0 / x + x / 3.0
    e = math.exp(-2.0 * x)
    return (1.0 + e) / (1.0 - e)


class ReqSpec(Value):
    """Operating point for the multi-slot resistance model.

    slots holds one (current, stack) pair per slot: its exact share of the
    output current and the int count of unit capacitors its digits stack in
    series. t_over_ts is the slot duration as an exact fraction of the period
    (a float read at its printed value), at most 1/len(slots). Slot k's beta is stack_k * beta.
    """

    __slots__ = _fields = ("f_s", "c", "r_on", "switches_per_loop", "t_over_ts", "slots")

    def __init__(self, f_s: float, c: float, r_on: float, switches_per_loop: int,
                 t_over_ts: Fraction, slots: tuple[tuple[Fraction, int], ...]) -> None:
        f_s, c, r_on = require_positive("f_s, c, and r_on must be positive", f_s, c, r_on)
        if not slots:
            raise DomainError("at least one slot")
        # index reads True as 1 and a numpy int as an int, and refuses 1.5 and Fraction(3, 2)
        try:
            switches_per_loop = index(switches_per_loop)
            slots = tuple([(current, index(stack)) for current, stack in slots])
        except TypeError:
            switches_per_loop = 0
        if switches_per_loop < 1 or min([stack for _, stack in slots]) < 1:
            raise DomainError("switches_per_loop and every slot stack must be integers of at least 1")
        for k, (current, _) in enumerate(slots, start=1):
            if not isinstance(current, (int, Fraction)):
                raise DomainError(f"slot {k} current {current!r} is not exact: give an int or a Fraction")
        (t_over_ts,) = require_exact("slot duration t_over_ts must be positive", t_over_ts)
        # 0 < t <= 1/L, in integers: a Fraction's denominator is positive
        if not 0 < t_over_ts.numerator * len(slots) <= t_over_ts.denominator:
            raise DomainError(
                f"slot duration {fraction_text(t_over_ts)} of a period does not fit {len(slots)} slots"
            )
        require_finite("operating point out of float range: switches_per_loop above the largest float",
                       switches_per_loop)
        self._set(f_s, c, r_on, switches_per_loop, t_over_ts, slots)
        # a product can leave the float range although each factor lies in it;
        # normal (not subnormal) values keep req_multi's divisors off zero
        rc, fc = self.loop_resistance * self.c, self.f_s * self.c
        if not (_NORMAL_MIN <= rc < math.inf and _NORMAL_MIN <= fc < math.inf):
            raise DomainError(f"operating point out of float range: R*C = {rc:g}, f_s*C = {fc:g}")
        if not _NORMAL_MIN <= self.beta < math.inf:
            raise DomainError(f"operating point out of float range: beta = {self.beta:g}")

    @property
    def loop_resistance(self) -> float:
        return self.switches_per_loop * self.r_on

    @property
    def slot_duration(self) -> float:
        return self.t_over_ts.numerator / self.t_over_ts.denominator / self.f_s

    @property
    def beta(self) -> float:
        return self.slot_duration / (self.loop_resistance * self.c)


def build_req_spec(
    codes: TargetRatio | CodeSet | Sequence[SignedDigitCode],
    f_s: float,
    c: float,
    r_on: float,
    switches_per_loop: int,
    t_over_ts: Fraction | None = None,
) -> ReqSpec:
    """Assemble the model inputs for an active (post-elimination) schedule.

    A TargetRatio stands for its active schedule, which comes with its
    currents from one elimination (schedule_currents). Codes are taken as
    the schedule and must be one family; their currents come from the exact
    charge balance (current_balance). Digit d_j stacks |d_j| units of group
    j in series, so a slot stacks sum |d_j| units. The slot duration
    defaults to an even split of the period.
    """
    if isinstance(codes, TargetRatio):
        codes, currents = schedule_currents(codes)
    else:
        currents = current_balance(codes)
    slots = []
    for code, current in zip(codes, currents):
        stack = sum(map(abs, code.digits))
        if not stack:
            raise DomainError(f"code {code.to_text()!r} engages no capacitor")
        slots.append((current, stack))
    if t_over_ts is None:
        t_over_ts = Fraction(1, len(codes))
    return ReqSpec(f_s, c, r_on, switches_per_loop, t_over_ts, tuple(slots))


def req_multi(spec: ReqSpec) -> float:
    """Equivalent resistance of a multi-slot schedule at the operating point."""
    total = 0.0
    beta = spec.beta
    for i, series_count in spec.slots:
        # int true division rounds correctly: the bits of float(Fraction), read faster
        half_period_cap = 1.0 / (2.0 * spec.f_s * spec.c * (1 / series_count))
        total += (i.numerator / i.denominator) ** 2 * half_period_cap * _coth(series_count * beta / 2.0)
    if not math.isfinite(total):
        raise DomainError(f"R_eq is {total} at this operating point, out of float range")
    return total


def req_zero_beta_multiplier(spec: ReqSpec) -> Fraction:
    """Fast-switching (zero-beta) floor of req_multi in units of the loop resistance, exact."""
    # one Fraction at the end: a Fraction per slot made this 5x slower at n = 10
    currents = [i for i, _ in spec.slots]
    den = math.lcm(*(i.denominator for i in currents))
    shares = sum((i.numerator * (den // i.denominator)) ** 2 for i in currents)
    return Fraction(shares * spec.t_over_ts.denominator, den * den * spec.t_over_ts.numerator)


def vo_under_load(v_trg, r_eq: float, r_o: float):
    """Output of an ideal target source v_trg behind r_eq loaded by r_o."""
    (v_trg,) = require_positive("target voltage must be positive", v_trg)
    (r_o,) = require_positive("load resistance must be positive", r_o)
    (r_eq,) = require_positive("equivalent resistance must be non-negative", r_eq, zero_ok=True)
    v_o = v_trg * r_o / (r_eq + r_o)
    if not math.isfinite(v_o):
        raise DomainError(f"output voltage is {v_o} at this load, out of float range")
    return v_o


def extract_req(v_trg: float, v_o: float, r_o: float) -> float:
    """Equivalent resistance recovered from one loaded measurement."""
    (v_trg,) = require_positive("target voltage must be positive", v_trg)
    (r_o,) = require_positive("load resistance must be positive", r_o)
    (v_o,) = require_positive("measured output must be positive", v_o)
    if v_o >= v_trg:
        raise DomainError(
            f"measured output {v_o} does not droop below the target {v_trg}"
        )
    r_eq = (v_trg / v_o - 1.0) * r_o
    if not math.isfinite(r_eq):
        raise DomainError(f"R_eq is {r_eq} from this measurement, out of float range")
    return r_eq


def average_extracted_req(v_trg: float, points: Sequence[tuple[float, float]]) -> float:
    """Mean per-point extraction over (r_o, v_o) measurements.

    This is how measurement tables summarize a load sweep; it weights light
    loads more than the two-parameter line fit does, so the two can differ
    by a few percent on real data.
    """
    if not points:
        raise FitError("no measurements")
    mean = sum(extract_req(v_trg, v_o, r_o) for r_o, v_o in points) / len(points)
    if not math.isfinite(mean):
        raise DomainError(f"mean R_eq is {mean} over these measurements, out of float range")
    return mean


def load_line_fit(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(v_trg, r_eq) least-squares fit of (r_o, v_o) measurements.

    The divider model is linear in disguise: r_o / v_o = r_o / v_trg +
    r_eq / v_trg, so a straight-line fit of y = r_o/v_o against x = r_o
    recovers both parameters.
    """
    if len(points) < 2:
        raise FitError("need at least two measurements")
    try:
        for r_o, v_o in points:
            require_positive("measurements must be positive", r_o, v_o)
    except (DomainError, TypeError):  # TypeError: a point that is not a pair
        raise FitError("measurements must be positive") from None
    xs = [r_o for r_o, _ in points]
    ys = [r_o / v_o for r_o, v_o in points]
    if len(set(xs)) < 2:
        raise FitError("need at least two distinct load points")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    try:
        sxx = sum((x - mx) ** 2 for x in xs)
    except OverflowError:
        sxx = math.inf
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    # an sxx past the float range, or below the normal floats (its digits lost), makes slope nan
    slope = sxy / sxx if _NORMAL_MIN <= sxx < math.inf else math.nan
    intercept = my - slope * mx
    if slope <= 0:
        raise FitError("load line implies a non-positive target voltage")
    v_trg = 1.0 / slope
    r_eq = intercept * v_trg
    if not (math.isfinite(v_trg) and math.isfinite(r_eq)):
        raise FitError(f"load points out of float range: v_trg = {v_trg:g}, r_eq = {r_eq:g}")
    return v_trg, r_eq
