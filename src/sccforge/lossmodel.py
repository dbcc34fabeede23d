"""Conduction-loss model: equivalent output resistance of a switched bank.

Each slot k of a ratio's schedule moves charge through an RC loop with
resistance R = switches_per_loop * r_on and capacitance C_k = C * cap_ratio.
With slot duration t and beta = t / (R * C), the bank behaves like an ideal
transformer feeding a series resistance

    R_eq = sum_k (I_k / I_o)**2 * (T_s / (2 * C_k)) * coth(beta_k / 2),

where beta_k = series_count_k * beta and I_k is the slot's share of the
output current. As beta_k grows the charge transfer completes within the
slot and R_eq approaches the slow-switching floor
(T_s / t) * R * sum (I_k/I_o)**2; the floor is exact in rationals here.
Equivalent-series resistance of the capacitors is folded into r_on.

A digit d moves charge through |d| stacked units, so slot k changes the
charge of digit j's group by d_j * I_k. The currents are those that leave
every group's charge unchanged over a period; with them the input delivers
ratio * I_o, as a lossless converter must (sum of a0 * I_k == ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, TextIO

from .errors import DomainError, FitError, SingularSystemError, require_positive
from .linsolve import build_system, find_redundant, fraction_free_rref, sort_codes_by_zeros
from .numrep import CodeSet, SignedDigitCode, TargetRatio, spawn_codes

_NORMAL_MIN = 2.0**-1022  # the smallest positive normal float


@dataclass(frozen=True)
class RcParams:
    """One charging loop: resistance, capacitance, and its allotted interval."""

    resistance: float
    capacitance: float
    interval: float = 0.0

    def __post_init__(self) -> None:
        require_positive(
            "resistance and capacitance must be positive", self.resistance, self.capacitance
        )
        require_positive("interval must be non-negative", self.interval, zero_ok=True)

    @property
    def tau(self) -> float:
        return self.resistance * self.capacitance

    @property
    def beta(self) -> float:
        return self.interval / self.tau


class CapPairResponse(NamedTuple):
    v1: float
    v2: float
    current: float


def charging_response(vs: float, v0: float, rc: RcParams, t: float | None = None) -> tuple[float, float]:
    """Voltage and current of an RC charge from v0 toward vs after time t.

    t defaults to the loop's own interval.

        v(t) = vs + (v0 - vs) * exp(-t/tau)
        i(t) = (vs - v0) / R * exp(-t/tau)
    """
    if t is None:
        t = rc.interval
    require_positive("time must be non-negative", t, zero_ok=True)
    decay = math.exp(-t / rc.tau)
    return vs + (v0 - vs) * decay, (vs - v0) / rc.resistance * decay


def cap_to_cap_response(vs: float, c1: float, c2: float, r: float, t: float) -> CapPairResponse:
    """Two capacitors equalizing through r: c1 starts at vs, c2 empty.

    tau = r * c1 * c2 / (c1 + c2); both voltages approach c1*vs/(c1+c2) and
    the current starts at vs/r.
    """
    require_positive("capacitances and resistance must be positive", c1, c2, r)
    require_positive("time must be non-negative", t, zero_ok=True)
    tau = r * c1 * c2 / (c1 + c2)
    v_end = c1 * vs / (c1 + c2)
    rise = 1.0 - math.exp(-t / tau)
    v2 = v_end * rise
    v1 = vs - (c2 / c1) * v2
    return CapPairResponse(v1, v2, vs / r * math.exp(-t / tau))


def redistribution_loss(c1: float, c2: float, dv: float) -> float:
    """Energy burned equalizing two capacitors that start dv apart.

    Independent of the loop resistance. c2 = inf models a stiff rail:
    the loss becomes c1 * dv**2 / 2.
    """
    require_positive("capacitances must be positive", c1)
    if not c2 > 0:
        raise DomainError("capacitances must be positive")
    series = c1 if math.isinf(c2) else c1 * c2 / (c1 + c2)
    return series * dv * dv / 2.0


def _coth(x: float) -> float:
    # series head below 1e-6 dodges the 0/0 of the exponential form
    if x < 1e-6:
        return 1.0 / x + x / 3.0
    e = math.exp(-2.0 * x)
    return (1.0 + e) / (1.0 - e)


def req_follower(f_s: float, c: float, beta1: float, beta2: float) -> float:
    """Equivalent resistance of the two-phase single-capacitor follower.

        R_eq = (coth(beta1/2) + coth(beta2/2)) / (2 * f_s * C)

    Fast switching (small beta) raises it as 4R; slow switching floors it
    at 1/(f_s * C).
    """
    require_positive("frequency and capacitance must be positive", f_s, c)
    require_positive("beta must be positive", beta1, beta2)
    return (_coth(beta1 / 2.0) + _coth(beta2 / 2.0)) / (2.0 * f_s * c)


def current_balance(codes: Sequence[SignedDigitCode]) -> tuple[Fraction, ...]:
    """Slot currents, in output-current units, that balance every capacitor.

    Over one period each capacitor group must shed exactly the charge it
    takes on: for position k, sum over slots of A_k * I_k = 0, with the
    discharge direction counted positive; the slot currents themselves sum
    to the output current. These are the columns of the loop system, so
    the balance is build_system(codes) transposed, with right-hand side 0
    for each V_k column and -1 for the Vo column (Tellegen's theorem). Solved
    exactly; a negative entry means the slot runs charge backward
    (legitimate for some schedules). The codes passed in are the ACTIVE
    slots only; with a dependent slot still present the system is
    underdetermined and the error names candidates to eliminate.
    """
    system = build_system(codes)
    w = system.rows
    rows = [[*col, 0] for col in zip(*system.matrix)]
    rows[-1][-1] = -1
    reduced, pivots, d = fraction_free_rref(rows)
    if w in pivots:
        raise SingularSystemError("no current assignment balances these codes")
    if len(pivots) < w:
        raise SingularSystemError(
            "charge balance is underdetermined; eliminate dependent slots first "
            f"(candidate row indices, 0-based: {find_redundant(system)})"
        )
    solution = [Fraction(0)] * w
    for i, col in enumerate(pivots):
        solution[col] = Fraction(reduced[i][-1], d)
    return tuple(solution)


def active_schedule(
    codes_or_ratio: TargetRatio | CodeSet | Sequence[SignedDigitCode],
) -> list[SignedDigitCode]:
    """The slots a schedule runs: codes sorted by zeros, dependent rows dropped.

    A TargetRatio is expanded with spawn_codes first. The rows find_redundant
    flags in the zero-sorted system are removed; the rest keep their order.
    """
    codes = codes_or_ratio
    if isinstance(codes, TargetRatio):
        codes = spawn_codes(codes)
    ordered = sort_codes_by_zeros(codes)
    drop = set(find_redundant(build_system(ordered)))
    return [code for i, code in enumerate(ordered) if i not in drop]


def slot_cap_ratios(codes: Sequence[SignedDigitCode]) -> tuple[Fraction, ...]:
    """Effective slot capacitance over unit capacitance: 1 / stacked count.

    Digit d_j stacks |d_j| units of group j in series, so a slot stacks
    sum |d_j| units (at radix 2, the number of non-zero digits).
    """
    out = []
    for code in codes:
        stacked = sum(map(abs, code.digits))
        if stacked == 0:
            raise DomainError(f"code {code.to_text()!r} engages no capacitor")
        out.append(Fraction(1, stacked))
    return tuple(out)


@dataclass(frozen=True)
class TopologySlot:
    """One schedule slot: its current share and capacitance ratio 1/series_count."""

    current_ratio: Fraction
    cap_ratio: Fraction

    def __post_init__(self) -> None:
        # a Fraction keeps its sign in the numerator, so this also rules out k <= 0
        if not (isinstance(self.cap_ratio, (int, Fraction)) and self.cap_ratio.numerator == 1):
            raise DomainError("cap_ratio must be 1/k for a positive integer stack count k")

    @property
    def series_count(self) -> int:
        return self.cap_ratio.denominator


@dataclass(frozen=True)
class ReqSpec:
    """Operating point for the multi-slot resistance model.

    t_over_ts is the slot duration as an exact fraction of the period; it
    may not exceed 1/len(slots). Slot k's beta is series_count_k * beta.
    """

    f_s: float
    c: float
    r_on: float
    switches_per_loop: int
    t_over_ts: Fraction
    slots: tuple[TopologySlot, ...]

    def __post_init__(self) -> None:
        require_positive("f_s, c, and r_on must be positive", self.f_s, self.c, self.r_on)
        if self.switches_per_loop < 1:
            raise DomainError("switches_per_loop must be at least 1")
        if not self.slots:
            raise DomainError("at least one slot")
        t_over_ts = Fraction(self.t_over_ts)
        object.__setattr__(self, "t_over_ts", t_over_ts)
        if not 0 < t_over_ts <= Fraction(1, len(self.slots)):
            # a float-born Fraction has an unreadable denominator
            shown = (
                str(t_over_ts)
                if t_over_ts.denominator <= 64
                else f"{float(t_over_ts):.4g}"
            )
            raise DomainError(
                f"slot duration {shown} of a period does not fit "
                f"{len(self.slots)} slots"
            )
        # a product can leave the float range although each factor lies in it;
        # normal (not subnormal) values keep req_multi's divisors off zero
        rc, fc = self.loop_resistance * self.c, self.f_s * self.c
        if not (_NORMAL_MIN <= rc < math.inf and _NORMAL_MIN <= fc < math.inf):
            raise DomainError(f"operating point out of float range: R*C = {rc:g}, f_s*C = {fc:g}")
        if not _NORMAL_MIN <= self.beta < math.inf:
            raise DomainError(f"operating point out of float range: beta = {self.beta:g}")

    @property
    def period(self) -> float:
        return 1.0 / self.f_s

    @property
    def loop_resistance(self) -> float:
        return self.switches_per_loop * self.r_on

    @property
    def slot_duration(self) -> float:
        return float(self.t_over_ts) / self.f_s

    @property
    def beta(self) -> float:
        return self.slot_duration / (self.loop_resistance * self.c)


def build_req_spec(
    codes: Sequence[SignedDigitCode],
    f_s: float,
    c: float,
    r_on: float,
    switches_per_loop: int,
    t_over_ts: Fraction | None = None,
) -> ReqSpec:
    """Assemble the model inputs for an active (post-elimination) schedule.

    Currents come from the exact charge balance, capacitance ratios from the
    stack depths. The slot duration defaults to an even split of the period.
    """
    currents = current_balance(codes)
    caps = slot_cap_ratios(codes)
    if t_over_ts is None:
        t_over_ts = Fraction(1, len(codes))
    slots = tuple(TopologySlot(i, cr) for i, cr in zip(currents, caps))
    return ReqSpec(f_s, c, r_on, switches_per_loop, t_over_ts, slots)


def req_multi(spec: ReqSpec) -> float:
    """Equivalent resistance of a multi-slot schedule at the operating point."""
    total = 0.0
    beta = spec.beta
    for slot in spec.slots:
        share = float(slot.current_ratio) ** 2
        half_period_cap = 1.0 / (2.0 * spec.f_s * spec.c * float(slot.cap_ratio))
        total += share * half_period_cap * _coth(slot.series_count * beta / 2.0)
    if not math.isfinite(total):
        raise DomainError(f"R_eq is {total} at this operating point, out of float range")
    return total


def req_zero_beta_multiplier(spec: ReqSpec) -> Fraction:
    """Slow-switching floor of req_multi in units of the loop resistance, exact."""
    shares = sum((slot.current_ratio**2 for slot in spec.slots), Fraction(0))
    return shares / spec.t_over_ts


def req_zero_beta_limit(spec: ReqSpec) -> float:
    """Slow-switching floor of req_multi, in ohms."""
    return float(req_zero_beta_multiplier(spec)) * spec.loop_resistance


def vo_under_load(v_trg, r_eq: float, r_o: float):
    """Output of an ideal target source v_trg behind r_eq loaded by r_o."""
    require_positive("load resistance must be positive", r_o)
    require_positive("equivalent resistance must be non-negative", r_eq, zero_ok=True)
    return v_trg * r_o / (r_eq + r_o)


def extract_req(v_trg: float, v_o: float, r_o: float) -> float:
    """Equivalent resistance recovered from one loaded measurement."""
    require_positive("load resistance must be positive", r_o)
    require_positive("measured output must be positive", v_o)
    if v_o >= v_trg:
        raise DomainError(
            f"measured output {v_o} does not droop below the target {v_trg}"
        )
    return (v_trg / v_o - 1.0) * r_o


def efficiency(
    v_o: float | None,
    v_trg: float,
    r_eq: float | None = None,
    r_o: float | None = None,
) -> float:
    """Conversion efficiency v_o / v_trg.

    Pass a measured v_o directly, or v_o=None with r_eq and r_o to use the
    divider model. Switching overhead is outside this figure.
    """
    require_positive("target voltage must be positive", v_trg)
    if v_o is None:
        if r_eq is None or r_o is None:
            raise DomainError("need either v_o or both r_eq and r_o")
        v_o = vo_under_load(v_trg, r_eq, r_o)
    if not 0 < v_o <= v_trg:
        raise DomainError("output must lie in (0, target]")
    return v_o / v_trg


def average_extracted_req(v_trg: float, points: Sequence[tuple[float, float]]) -> float:
    """Mean per-point extraction over (r_o, v_o) measurements.

    This is how measurement tables summarize a load sweep; it weights light
    loads more than the two-parameter line fit does, so the two can differ
    by a few percent on real data.
    """
    if not points:
        raise FitError("no measurements")
    return sum(extract_req(v_trg, v_o, r_o) for r_o, v_o in points) / len(points)


def load_line_fit(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(v_trg, r_eq) least-squares fit of (r_o, v_o) measurements.

    The divider model is linear in disguise: r_o / v_o = r_o / v_trg +
    r_eq / v_trg, so a straight-line fit of y = r_o/v_o against x = r_o
    recovers both parameters.
    """
    if len(points) < 2:
        raise FitError("need at least two measurements")
    xs, ys = [], []
    for r_o, v_o in points:
        if not (0 < r_o < math.inf and 0 < v_o < math.inf):
            raise FitError("measurements must be positive")
        xs.append(r_o)
        ys.append(r_o / v_o)
    if len(set(xs)) < 2:
        raise FitError("need at least two distinct load points")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    if slope <= 0:
        raise FitError("load line implies a non-positive target voltage")
    v_trg = 1.0 / slope
    return v_trg, intercept * v_trg


def write_load_csv(rows: Iterable[tuple[str, float, float, float, float]], stream: TextIO) -> None:
    """ratio,R_o,V_o,R_eq,eta rows; header included."""
    stream.write("ratio,R_o,V_o,R_eq,eta\n")
    for ratio, r_o, v_o, r_eq, eta in rows:
        stream.write(f"{ratio},{r_o:.12g},{v_o:.12g},{r_eq:.12g},{eta:.12g}\n")
