import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sccforge.errors import DomainError, ResourceLimitError
from sccforge.numrep import TargetRatio
from sccforge.regulation import (
    DitherPlan,
    RatioChoice,
    dither_average,
    dither_plan,
    ldo_efficiency_bound,
    ldo_select_ratio,
)

from oracles import brute_force_dither, ldo_select_by_scan

F = Fraction


def R(m: int, n: int = 3) -> TargetRatio:
    return TargetRatio(m, 2, n)


# -- dithering ---------------------------------------------------------------------


def test_average_examples():
    assert dither_average(DitherPlan((R(3), R(4)), (4, 1))) == F(2, 5)
    assert dither_average(DitherPlan((R(3),), (7,))) == F(3, 8)
    assert dither_average(DitherPlan((R(3), R(5)), (1, 1))) == F(1, 2)


def test_plan_validation():
    with pytest.raises(DomainError):
        DitherPlan((), ())
    with pytest.raises(DomainError):
        DitherPlan((R(3), R(4)), (1,))
    with pytest.raises(DomainError):
        DitherPlan((R(3), R(4)), (0, 2))
    with pytest.raises(DomainError):
        DitherPlan((R(3), R(3)), (1, 1))
    # dither_average is an exact Fraction only over int weights
    with pytest.raises(DomainError, match="weights must be positive integers"):
        DitherPlan((R(3),), (1.5,))


def test_plan_refuses_bool_weights_and_non_ratios():
    # a bool is an int, but a plan of True periods would print "weights": [true]
    with pytest.raises(DomainError, match="weights must be positive integers"):
        DitherPlan((R(3),), (True,))
    with pytest.raises(DomainError, match="ratios must be TargetRatios"):
        DitherPlan((0.5,), (1,))
    with pytest.raises(DomainError, match="ratios must be TargetRatios"):
        DitherPlan((R(3), F(1, 2)), (1, 1))


def test_plan_holds_tuples():
    plan = DitherPlan([R(3), R(4)], [4, 1])
    assert plan.ratios == (R(3), R(4)) and plan.weights == (4, 1)
    assert plan == DitherPlan((R(3), R(4)), (4, 1))
    assert hash(plan) == hash(DitherPlan((R(3), R(4)), (4, 1)))
    assert plan.to_json_dict()["weights"] == [4, 1]


def test_lattice_target_needs_no_dither():
    for target in (F(3, 8), 0.375, Decimal("0.375")):
        plan = dither_plan(target, 3, 8)
        assert plan.ratios == (R(3),)
        assert plan.weights == (1,)
    edge = dither_plan(F(1, 8), 3, 8)
    assert edge.ratios == (R(1),)
    # text is parsed at the command line, not here: the library takes numbers
    with pytest.raises(DomainError, match="^target 3/8 is not a finite number$"):
        dither_plan("3/8", 3, 8)


def test_worked_plan():
    for target in (F(2, 5), 0.4):
        plan = dither_plan(target, 3, 8)
        assert plan.ratios == (R(3), R(4))
        assert plan.weights == (4, 1)
        assert plan.period == 5
        assert dither_average(plan) == F(2, 5)
    # 10**-300 off 2/5 with 10,000 periods allowed: still 2/5, found at once
    near = F(2, 5) + F(1, 10**300)
    assert dither_plan(near, 40, 10_000) == dither_plan(F(2, 5), 40, 10_000)


def test_exact_plan_with_larger_remainder():
    plan = dither_plan(F(9, 20), 3, 8)
    assert plan.ratios == (R(3), R(4))
    assert plan.weights == (2, 3)
    assert dither_average(plan) == F(9, 20)


def test_midpoint_tie_prefers_the_lower_ratio():
    # with one period allowed, 7/16 misses both neighbors by 1/16
    plan = dither_plan(F(7, 16), 3, 1)
    assert plan.ratios == (R(3),)
    assert plan.weights == (1,)
    # 3/8 at n = 2 sits midway between 1/4 and 2/4
    plan = dither_plan(F(3, 8), 2, 1)
    assert plan.ratios == (R(1, 2),)
    assert plan.weights == (1,)


def test_period_ties_prefer_short_schedules():
    plan = dither_plan(F(5, 12), 3, 12)
    assert plan.period == 3
    assert plan.weights == (2, 1)
    assert dither_average(plan) == F(5, 12)
    # 7/16 at n = 2 misses 3/8 (period 2) and 2/4 (period 1) by 1/16 each
    plan = dither_plan(F(7, 16), 2, 2)
    assert plan.ratios == (R(2, 2),)
    assert plan.weights == (1,)


def test_unreachable_targets():
    with pytest.raises(DomainError):
        dither_plan(F(1, 16), 3, 8)
    with pytest.raises(DomainError):
        dither_plan(F(15, 16), 3, 8)
    with pytest.raises(DomainError):
        dither_plan(0.9, 3, 8)
    for target in (math.nan, math.inf, -math.inf, Decimal("Infinity")):
        with pytest.raises(DomainError, match="not a finite number"):
            dither_plan(target, 3, 8)
    # a target that four significant digits round to 1 is told by its distance to 1
    tiny = F(1, 10**30)
    for target, text in ((1 - tiny, "1 - 1e-30"), (1 + tiny, "1 + 1e-30"), (F(1), "1")):
        with pytest.raises(DomainError, match=rf"^target {re.escape(text)} outside"):
            dither_plan(target, 12, 8)


def test_planner_guards():
    with pytest.raises(DomainError):
        dither_plan(F(2, 5), 0, 8)
    with pytest.raises(DomainError):
        dither_plan(F(2, 5), 3, 0)
    with pytest.raises(ResourceLimitError):
        dither_plan(F(2, 5), 3, 10_001)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: dither_plan(0.4, 3.0, 8), "resolution"),
        (lambda: dither_plan(0.4, 3, 8.5), "max_period"),
        (lambda: dither_plan(0.4, 3, "8"), "max_period"),
        (lambda: ldo_select_ratio(10, 3.3, 0.3, 3.0), "resolution"),
    ],
    ids=["dither-resolution-float", "dither-period-float", "dither-period-text", "ldo-resolution-float"],
)
def test_counts_must_be_integers(call, name):
    # a float count would fail inside Fraction or plan a fractional period: refused by name
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
        call()


def test_plan_json_shape():
    data = dither_plan(F(2, 5), 3, 8).to_json_dict()
    assert data == {
        "ratios": ["3/8", "4/8"],
        "weights": [4, 1],
        "period": 5,
        "average": "2/5",
    }


def plan_key(target, plan):
    average = dither_average(plan)
    return abs(target - average), plan.period, average


def test_planner_matches_exhaustive_scan_on_a_grid():
    # every target of denominator 41 or <= 16, budgets 1..16; the second set
    # holds twelve exact ties between two periods
    grid = {F(p, q) for q in (*range(2, 17), 41) for p in range(1, q)}
    for resolution in (1, 2, 3):
        denom = 2**resolution
        for target in sorted(t for t in grid if F(1, denom) <= t <= F(denom - 1, denom)):
            for max_period in range(1, 17):
                plan = dither_plan(target, resolution, max_period)
                ms, weights = brute_force_dither(target, resolution, max_period)
                assert tuple(r.m for r in plan.ratios) == ms
                assert plan.weights == weights


@st.composite
def dither_cases(draw):
    resolution = draw(st.integers(1, 4))
    denom = 2**resolution
    target = draw(
        st.fractions(F(1, denom), F(denom - 1, denom), max_denominator=256)
    )
    return target, resolution, draw(st.integers(1, 40))


@given(dither_cases())
def test_planner_is_optimal(case):
    target, resolution, max_period = case
    plan = dither_plan(target, resolution, max_period)
    ms, weights = brute_force_dither(target, resolution, max_period)
    oracle = DitherPlan(tuple(R(m, resolution) for m in ms), weights)
    assert plan_key(target, plan) == plan_key(target, oracle)
    assert plan.weights == weights


# -- LDO pre-selection ---------------------------------------------------------------


def test_choice_rendering_and_gain():
    down = RatioChoice(R(3), False)
    assert str(down) == "3/8"
    assert down.gain == F(3, 8)
    up = RatioChoice(R(4), True)
    assert str(up) == "8/4"
    assert up.gain == F(2)


def test_selection_examples():
    assert ldo_select_ratio(10.0, 3.3, 0.3, 3) == RatioChoice(R(3), False)
    assert ldo_select_ratio(8.0, 3.3, 0.3, 3) == RatioChoice(R(4), False)
    assert ldo_select_ratio(1.8, 3.3, 0.3, 3) == RatioChoice(R(4), True)
    assert ldo_select_ratio(100.0, 1.0, 0.0, 3) == RatioChoice(R(1), False)


def test_step_up_can_be_disabled():
    with pytest.raises(DomainError) as err:
        ldo_select_ratio(1.8, 3.3, 0.3, 3, allow_step_up=False)
    assert "without step-up" in str(err.value)


def test_infeasible_supply():
    with pytest.raises(DomainError):
        ldo_select_ratio(1.0, 10.0, 0.0, 2)


def all_gains(resolution: int, allow_step_up: bool):
    denom = 2**resolution
    gains = [F(m, denom) for m in range(1, denom)]
    if allow_step_up:
        gains += [F(denom, m) for m in range(denom - 1, 0, -1)]
    return gains


@given(
    st.floats(1.0, 20.0),
    st.floats(0.5, 15.0),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_selected_gain_is_minimal(vin, vout, dropout, allow_step_up):
    try:
        choice = ldo_select_ratio(vin, vout, dropout, 3, allow_step_up)
    except DomainError:
        choice = None
    # the library reads each float at its printed value, so the check does too
    vin, need = F(str(vin)), F(str(vout)) + F(str(dropout))
    if choice is None:
        assert all(g * vin < need for g in all_gains(3, allow_step_up))
        return
    assert choice.gain * vin >= need
    for g in all_gains(3, allow_step_up):
        if g < choice.gain:
            assert g * vin < need


@given(
    st.floats(0.1, 50.0),
    st.floats(0.1, 50.0),
    st.floats(0.0, 2.0),
    st.integers(1, 12),
    st.booleans(),
)
def test_selection_matches_the_lattice_scan(vin, vout, dropout, resolution, allow_step_up):
    want = ldo_select_by_scan(vin, vout, dropout, resolution, allow_step_up)
    try:
        choice = ldo_select_ratio(vin, vout, dropout, resolution, allow_step_up)
    except DomainError:
        assert want is None
        return
    assert (choice.ratio.m, choice.step_up) == want
    assert choice.ratio.resolution == resolution


@pytest.mark.parametrize(
    "vin, vout, dropout, resolution, m, step_up",
    [
        # 6/32 of 19.2 V is 3.6 V exactly; in floats it fell short
        (19.2, 3.1, 0.5, 5, 6, False),
        (8.08, 4.4, 0.65, 4, 10, False),
        (2.9, 12.5, 0.3, 11, 464, True),
        # vout + dropout is past the float range; gain 2 falls short of it
        (1e308, 1.5e308, 1e308, 3, 3, True),
    ],
    ids=["down-19.2", "down-8.08", "up-2.9", "need-past-float"],
)
def test_selection_on_the_boundary_is_exact(vin, vout, dropout, resolution, m, step_up):
    assert ldo_select_ratio(vin, vout, dropout, resolution) == RatioChoice(R(m, resolution), step_up)


def test_selection_takes_decimals():
    assert ldo_select_ratio(Decimal(5), 1.8, 0.2, 3) == ldo_select_ratio(5.0, 1.8, 0.2, 3)
    assert ldo_select_ratio(Decimal("19.2"), Decimal("3.1"), Decimal("0.5"), 5).ratio == R(6, 5)


def test_selection_validation():
    with pytest.raises(DomainError):
        ldo_select_ratio(0.0, 3.3, 0.3, 3)
    with pytest.raises(DomainError):
        ldo_select_ratio(10.0, -1.0, 0.3, 3)
    with pytest.raises(DomainError):
        ldo_select_ratio(10.0, 3.3, -0.1, 3)
    with pytest.raises(DomainError):
        ldo_select_ratio(10.0, 3.3, 0.3, 0)


def test_resolution_limit():
    # at the limit every gain 2**n/m is still a finite float, so a supply no
    # ratio can lift ends in a DomainError, not an OverflowError
    assert dither_plan(F(2, 5), 1000, 8).ratios[0].resolution == 1000
    with pytest.raises(DomainError, match="no ratio at resolution 1000"):
        ldo_select_ratio(5e-324, 3.3, 0.0, 1000)
    with pytest.raises(ResourceLimitError):
        dither_plan(F(2, 5), 1001, 8)
    with pytest.raises(ResourceLimitError):
        ldo_select_ratio(10.0, 3.3, 0.3, 1001)


def test_efficiency_bound():
    assert ldo_efficiency_bound(3.3, 0.3) == pytest.approx(3.3 / 3.6, rel=1e-12)
    assert ldo_efficiency_bound(5.0, 0.5) == pytest.approx(10.0 / 11.0, rel=1e-12)
    assert ldo_efficiency_bound(3.3, 0.0) == 1.0
    # the sum overflows, but the bound does not
    assert ldo_efficiency_bound(1.5e308, 1e308) == 0.6
    assert ldo_efficiency_bound(1e308, 1e308) == 0.5
    assert ldo_efficiency_bound(1e308, 7.9e307) == 1e308 / (1e308 + 7.9e307)
    with pytest.raises(DomainError):
        ldo_efficiency_bound(0.0, 0.3)
    with pytest.raises(DomainError):
        ldo_efficiency_bound(3.3, -0.1)
