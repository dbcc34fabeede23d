import ast
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sccforge.errors import DomainError, FitError, SingularSystemError
from sccforge.linsolve import (
    build_system,
    current_balance,
    find_redundant,
    schedule_currents,
    sort_codes_by_zeros,
)
from sccforge.lossmodel import (
    ReqSpec,
    _coth,
    average_extracted_req,
    build_req_spec,
    extract_req,
    load_line_fit,
    req_multi,
    req_zero_beta_multiplier,
    vo_under_load,
)
from sccforge.numrep import CodeSet, SignedDigitCode, TargetRatio, spawn_codes

from golden import (
    AVERAGED_REQ_ROW,
    CURRENT_CAP_TABLE,
    DEPENDENT_ROW_ORDER_38,
    EXTRACT_EXAMPLE,
    FIT_FROZEN,
    LOAD_RO,
    LOAD_TABLE,
    REQ_COLUMN,
    REQ_FLOOR,
    REQ_FROZEN,
    REQ_OPERATING,
    UNSORTED_38_CAPS,
    UNSORTED_38_CURRENTS,
    UNSORTED_38_FLOOR,
    UNSORTED_38_REQ,
)
from oracles import (
    decimal_coth,
    float_fraction_req_multi,
    follower_req,
    rational_rref,
    redistribution_loss,
    two_elimination_schedule,
)

F = Fraction


def operating_spec(m: int, t_over_ts=None) -> ReqSpec:
    return build_req_spec(
        schedule_currents(TargetRatio(m, 2, 3))[0],
        REQ_OPERATING["f_s"],
        REQ_OPERATING["c"],
        REQ_OPERATING["r_on"],
        REQ_OPERATING["switches"],
        t_over_ts,
    )


# -- two-capacitor redistribution loss, the simulator's energy-audit oracle -----------


def test_redistribution_loss():
    assert redistribution_loss(1e-6, 1e-6, 0.0) == 0.0
    c = 4.7e-6
    assert redistribution_loss(c, c, 2.0) == pytest.approx(c * 4.0 / 4.0)
    assert redistribution_loss(c, math.inf, 2.0) == pytest.approx(c * 4.0 / 2.0)


@given(st.floats(1e-7, 1e-5), st.floats(1e-7, 1e-5), st.floats(0.1, 8.0))
def test_loss_is_the_settled_energy_gap(c1, c2, dv):
    # charge one cap dv above the other, let them settle, compare stored energy
    settled = c1 * dv / (c1 + c2)
    e_init = c1 * dv * dv / 2.0
    e_final = (c1 + c2) * settled * settled / 2.0
    assert redistribution_loss(c1, c2, dv) == pytest.approx(e_init - e_final, rel=1e-9)


def follower_spec(f_s: float, c: float, r_on: float) -> ReqSpec:
    """The two-phase single-capacitor follower: two slots, each carrying the
    whole output current through one capacitor for half the period."""
    return ReqSpec(f_s, c, r_on, 1, F(1, 2), ((1, 1), (1, 1)))


def test_follower_limits():
    # fast switching looks like four times the loop resistance
    r, c, beta = 1.0, 1e-6, 1e-3
    f_s = 1.0 / (2.0 * beta * r * c)
    spec = follower_spec(f_s, c, r)
    assert spec.beta == pytest.approx(beta)
    assert req_multi(spec) == pytest.approx(4.0 * r, rel=1e-2)
    # slow switching floors at 1/(f_s C)
    f_s, c = 1e5, 4.7e-6
    spec = follower_spec(f_s, c, 1.0 / (2.0 * f_s * c * 20.0))
    assert spec.beta == pytest.approx(20.0)
    assert req_multi(spec) == pytest.approx(1.0 / (f_s * c), rel=1e-3)
    # beta 0 is r_on = inf
    with pytest.raises(DomainError, match="must be positive"):
        follower_spec(f_s, c, math.inf)
    with pytest.raises(DomainError, match="must be positive"):
        follower_spec(-f_s, c, 1.0)


@given(st.floats(0.0, 7.0), st.floats(-9.0, -3.0), st.floats(-7.0, 2.0))
def test_req_multi_prices_the_follower_by_its_closed_form(log_f_s, log_c, log_beta):
    # f_s 1 Hz .. 10 MHz, C 1 nF .. 1 mF, beta 1e-7 .. 100
    f_s, c, beta = 10.0**log_f_s, 10.0**log_c, 10.0**log_beta
    spec = follower_spec(f_s, c, 1.0 / (2.0 * f_s * c * beta))
    assert math.isclose(req_multi(spec), follower_req(f_s, c, spec.beta, spec.beta), rel_tol=1e-14)


def test_coth_error_bound():
    # 1 - exp(-2x) cancels just above the series head's 1e-6 (2.7e-11 there);
    # the req table's terms lie at x >= 0.05, where coth is within 1e-15
    for k in range(4501):
        x = 10.0 ** (-7 + k / 500)
        err = abs(Decimal(_coth(x)) / decimal_coth(x) - 1)
        assert err < (1e-15 if x >= 0.05 else 3e-11), x


@pytest.mark.parametrize(
    "args, text",
    [
        # a subnormal beta would halve to 0 in coth (5e-324) or price R_eq at inf (1e-310)
        ((1e16, 1.0, 1e307), "beta = 4.94066e-324"),
        ((1e16, 1.0, 5e293), "beta = 1e-310"),
        # f_s*C underflows to a zero divisor, or overflows to R_eq 0
        ((1e-200, 1e-200, 1e200), "f_s*C = 0"),
        ((1e300, 1e300, 1e-300), "f_s*C = inf"),
        # a normal beta (2**-1022) whose two coth terms sum past the float range
        ((1.0, 0.25, 2.0**1023), "R_eq is inf"),
    ],
    ids=["beta-5e-324", "beta-1e-310", "fc-underflow", "fc-overflow", "req-overflow"],
)
def test_follower_refuses_an_operating_point_out_of_float_range(args, text):
    with pytest.raises(DomainError, match="out of float range") as err:
        req_multi(follower_spec(*args))
    assert text in str(err.value)


# -- charge balance -----------------------------------------------------------------


def test_schedule_currents_takes_a_ratio_or_its_codes():
    ratio = TargetRatio(3, 2, 3)
    ordered = sort_codes_by_zeros(spawn_codes(ratio))
    # the zero-sorted 3/8 family loses its last row (see the linsolve tests)
    assert schedule_currents(ratio)[0] == schedule_currents(spawn_codes(ratio))[0] == ordered[:4]


def test_balance_of_the_sorted_schedule():
    three, four = (schedule_currents(TargetRatio(m, 2, 3))[0] for m in (3, 4))
    assert current_balance(three) == (F(1, 8), F(3, 8), F(1, 4), F(1, 4))
    assert current_balance(four) == (F(1, 2), F(1, 2))
    # 5/9 runs 1 -1 -1, 0 2 -1 and 1 -2 2: a digit of 2 moves charge
    # through two units of its group
    five_ninths = schedule_currents(TargetRatio(5, 3, 2))[0]
    assert current_balance(five_ninths) == (F(2, 9), F(4, 9), F(1, 3))


def test_balance_of_the_measurement_row_order():
    codes = [SignedDigitCode(a0, d) for a0, d in DEPENDENT_ROW_ORDER_38]
    active = [codes[i] for i in (0, 1, 2, 4)]
    assert current_balance(active) == UNSORTED_38_CURRENTS
    spec = build_req_spec(active, 1e5, 4.7e-6, 1.2, 4)
    assert tuple(i for i, _ in spec.slots) == UNSORTED_38_CURRENTS
    assert tuple(F(1, stack) for _, stack in spec.slots) == UNSORTED_38_CAPS


@pytest.mark.parametrize("n", range(1, 9))
def test_balance_zeroes_every_capacitor(n):
    # a digit d moves d units of its group's charge, so the flows are
    # digit-weighted; radix 3 has digits of magnitude 2
    for radix in (2, 3) if n <= 4 else (2,):
        for m in range(1, radix**n):
            active = schedule_currents(TargetRatio(m, radix, n))[0]
            currents = current_balance(active)
            assert sum(currents) == 1
            for j in range(n):
                flow = sum(c.digits[j] * i for c, i in zip(active, currents))
                assert flow == 0, (m, radix, n, j)


def test_balance_conserves_energy():
    # lossless: the input delivers ratio * I_o, all of it in the a0 = 1 slots
    for radix, top in ((2, 8), (3, 4)):
        for n in range(1, top + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n)
                active = schedule_currents(ratio)[0]
                currents = current_balance(active)
                drawn = sum(c.a0 * i for c, i in zip(active, currents))
                assert drawn == ratio.value, str(ratio)


@pytest.mark.parametrize("m", range(1, 8))
def test_schedule_table(m):
    active = schedule_currents(TargetRatio(m, 2, 3))[0]
    spec = build_req_spec(active, 1e5, 4.7e-6, 1.2, 4)
    assert tuple(i for i, _ in spec.slots) == current_balance(active)
    assert tuple((i, F(1, stack)) for i, stack in spec.slots) == CURRENT_CAP_TABLE[m]


def test_dependent_slot_blocks_the_balance():
    family = spawn_codes(TargetRatio(3, 2, 3))
    with pytest.raises(SingularSystemError) as err:
        current_balance(list(family))
    assert "0-based" in str(err.value)
    assert "[3]" in str(err.value)
    with pytest.raises(SingularSystemError) as err:
        current_balance(sort_codes_by_zeros(family))
    assert "[4]" in str(err.value)


def test_unbalanceable_codes_are_reported():
    # one slot of 1/2: balancing its capacitor forces its current to 0, yet
    # the slot currents must add up to the output current
    with pytest.raises(SingularSystemError) as err:
        current_balance([SignedDigitCode(0, (1,))])
    assert "no current assignment" in str(err.value)


def test_error_paths_eliminate_once(kernel_calls):
    # the underdetermined report names the tableau's non-pivot columns and
    # build_req_spec reads a ratio's currents off its one tableau
    with pytest.raises(SingularSystemError, match="underdetermined"):
        current_balance(list(spawn_codes(TargetRatio(3, 2, 3))))
    assert len(kernel_calls) == 1
    kernel_calls.clear()
    build_req_spec(TargetRatio(3, 2, 3), 1e5, 4.7e-6, 1.2, 4)
    assert len(kernel_calls) == 1


def test_balance_validation():
    with pytest.raises(DomainError):
        current_balance([])
    with pytest.raises(DomainError):
        current_balance([SignedDigitCode(0, (1,)), SignedDigitCode(0, (1, 0))])
    with pytest.raises(DomainError):
        current_balance([SignedDigitCode(0, (1,)), SignedDigitCode(0, (1,), 3)])


@st.composite
def family_subsets(draw):
    """Distinct codes of one family, in any order: radix 2 to n = 7, radix 3 to n = 4."""
    radix = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 7 if radix == 2 else 4))
    family = spawn_codes(TargetRatio(draw(st.integers(1, radix**n - 1)), radix, n))
    picked = draw(st.lists(st.sampled_from(range(len(family))), min_size=1, unique=True))
    return [family[i] for i in picked]


@given(family_subsets())
def test_one_elimination_matches_two(codes):
    # within one family a dependent row is never a convex mix of the others,
    # so find_redundant flags exactly the non-pivot columns of A transposed
    _, pivots = rational_rref(list(zip(*build_system(codes).matrix)))
    non_pivots = [j for j in range(len(codes)) if j not in pivots]
    assert find_redundant(build_system(codes)) == non_pivots
    # so the one tableau gives what dropping those rows and balancing the rest gives
    ordered = sort_codes_by_zeros(codes)
    schedule, currents = two_elimination_schedule(ordered, find_redundant(build_system(ordered)))
    if currents is None:
        with pytest.raises(SingularSystemError, match="no current assignment"):
            schedule_currents(codes)
        with pytest.raises(SingularSystemError, match="no current assignment"):
            current_balance(schedule)
    else:
        assert schedule_currents(codes) == (schedule, currents)
        assert current_balance(schedule) == currents
    # an underdetermined balance names exactly the rows find_redundant flags
    try:
        current_balance(codes)
    except SingularSystemError as err:
        if "underdetermined" in str(err):
            named = ast.literal_eval(str(err).rsplit(": ", 1)[1].rstrip(")"))
            assert named and named == find_redundant(build_system(codes))


def test_one_elimination_matches_two_on_every_family():
    for radix, top in ((2, 6), (3, 3)):
        for n in range(1, top + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n)
                ordered = sort_codes_by_zeros(spawn_codes(ratio))
                dropped = find_redundant(build_system(ordered))
                assert schedule_currents(ratio) == two_elimination_schedule(ordered, dropped)


def test_schedule_inputs_must_be_one_family():
    # the tableau read-out is exact within one family only; the old route
    # silently kept a duplicate slot, so plain lists are checked
    three, five = (list(spawn_codes(TargetRatio(m, 2, 3))) for m in (3, 5))
    bad = [
        (three + three[:1], "duplicate"),
        (three[:2] + five[:1], "mix ratios"),
        (three[:2] + [SignedDigitCode(0, (1, 1, 1, -1))], "mix ratios"),
        (three[:2] + [SignedDigitCode(0, (1, 0), 3)], "mix ratios"),
        ([], "no codes"),
    ]
    for codes, what in bad:
        with pytest.raises(DomainError, match=what):
            schedule_currents(codes)[0]
        with pytest.raises(DomainError, match=what):
            current_balance(codes)
        with pytest.raises(DomainError, match=what):
            build_req_spec(codes, 1e5, 4.7e-6, 1.2, 4)
    # a ratio or a CodeSet is one family already
    ratio = TargetRatio(3, 2, 3)
    active = schedule_currents(ratio)[0]
    assert schedule_currents(CodeSet(ratio, tuple(reversed(three))))[0] == active
    assert build_req_spec(ratio, 1e5, 4.7e-6, 1.2, 4) == build_req_spec(active, 1e5, 4.7e-6, 1.2, 4)


def test_floor_over_one_denominator_is_the_fraction_sum():
    for radix, top in ((2, 6), (3, 3)):
        for n in range(1, top + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n)
                for t_over_ts in (None, F(1, 8)):
                    spec = build_req_spec(ratio, 1e5, 4.7e-6, 1.2, 4, t_over_ts)
                    assert spec == build_req_spec(schedule_currents(ratio)[0], 1e5, 4.7e-6, 1.2, 4, t_over_ts)
                    shares = sum((i**2 for i, _ in spec.slots), F(0))
                    floor = req_zero_beta_multiplier(spec)
                    assert floor == shares / spec.t_over_ts
                    assert str(floor) == str(shares / spec.t_over_ts)
    # no denominator a multiple of the others: (1/16 + 1/36 + 1/4) * 3 = 49/48
    slots = tuple((i, 2) for i in (F(1, 4), F(-1, 6), F(1, 2)))
    spec = ReqSpec(1e5, 4.7e-6, 1.2, 4, F(1, 3), slots)
    assert req_zero_beta_multiplier(spec) == F(49, 48)


def test_build_req_spec_stacks_the_digits():
    # a radix-3 digit of magnitude 2 stacks two units: 5/9 runs 1 -1 -1, 0 2 -1 and 1 -2 2
    spec = build_req_spec(TargetRatio(5, 3, 2), 1e5, 4.7e-6, 1.2, 4)
    assert [stack for _, stack in spec.slots] == [2, 3, 4]
    with pytest.raises(DomainError, match="^code '1 0 0 0' engages no capacitor$"):
        build_req_spec([SignedDigitCode(1, (0, 0, 0))], 1e5, 4.7e-6, 1.2, 4)


# -- multi-slot resistance ------------------------------------------------------------


def test_slot_and_spec_validation():
    slots = ((F(1, 2), 1), (F(1, 2), 1))
    # stacks and switch counts are whole numbers; F(1, 2) is a capacitance ratio, not a stack
    for bad in (0, -1, 1.5, F(1, 2), F(2, 3), F(3, 2), 0.5):
        with pytest.raises(DomainError, match="must be integers of at least 1"):
            ReqSpec(1e5, 4.7e-6, 1.2, 4, F(1, 2), ((F(1, 2), 1), (F(1, 2), bad)))
        with pytest.raises(DomainError, match="must be integers of at least 1"):
            ReqSpec(1e5, 4.7e-6, 1.2, bad, F(1, 2), slots)
    # counts are read as ints: True as 1, a numpy int as its value
    spec = ReqSpec(1e5, 4.7e-6, 1.2, True, F(1, 2), ((F(1, 2), np.int64(2)), (F(1, 2), True)))
    assert [spec.switches_per_loop, *(stack for _, stack in spec.slots)] == [1, 2, 1]
    assert {type(spec.switches_per_loop)} | {type(stack) for _, stack in spec.slots} == {int}
    # a current must be exact: a float one made req_multi fail later, naming no slot
    for currents, k in (((0.5, 0.5), 1), ((F(1, 2), 0.5), 2), ((F(1, 2), np.float64(0.5)), 2)):
        with pytest.raises(DomainError, match=rf"^slot {k} current (np\.float64\()?0\.5\)? is not exact"):
            ReqSpec(1e5, 4.7e-6, 1.2, 4, F(1, 2), tuple((i, 1) for i in currents))
    assert ReqSpec(1e5, 4.7e-6, 1.2, 4, F(1, 2), ((1, 1), (0, 1))).slots == ((1, 1), (0, 1))
    with pytest.raises(DomainError):
        ReqSpec(-1e5, 4.7e-6, 1.2, 4, F(1, 2), slots)
    # each factor is a finite positive float, but a product is not
    with pytest.raises(DomainError, match=r"R\*C = 0"):
        ReqSpec(1e5, 1e-300, 1e-300, 4, F(1, 2), slots)
    with pytest.raises(DomainError, match=r"f_s\*C = 0"):
        ReqSpec(1e-300, 1e-300, 1.0, 4, F(1, 2), slots)
    with pytest.raises(DomainError, match=r"R\*C = inf, f_s\*C = inf"):
        ReqSpec(1e300, 1e300, 1e300, 4, F(1, 2), slots)
    with pytest.raises(DomainError, match="beta = 5e-309"):
        ReqSpec(1.0, 1.0, 2.5e307, 4, F(1, 2), slots)
    # a subnormal beta halves to 0 in req_multi
    with pytest.raises(DomainError, match="beta"):
        ReqSpec(1.0, 1.0, 0.25, 4, F(5e-324), slots)


def test_slot_duration_must_fit_the_period():
    # 0 < t <= 1/L; a zero or negative t would also fail the later beta check,
    # so the message shows which check refused it
    slots = ((F(1, 2), 1), (F(1, 2), 1))
    for t, text in ((F(0), "0"), (F(-1, 4), "-1/4"), (F(51, 100), "0.51")):
        with pytest.raises(DomainError, match=f"^slot duration {text} of a period does not fit 2 slots$"):
            ReqSpec(1e5, 4.7e-6, 1.2, 4, t, slots)
    assert ReqSpec(1e5, 4.7e-6, 1.2, 4, F(1, 2), slots).beta == pytest.approx(5e-6 / (4.8 * 4.7e-6))


def test_float_slot_duration_is_read_at_its_printed_value():
    # binary 0.1 is above 1/10 and would not fit ten slots
    slots = ((F(1, 10), 1),) * 10
    spec = ReqSpec(1e5, 4.7e-6, 1.2, 4, 0.1, slots)
    assert spec.t_over_ts == F(1, 10)
    assert req_multi(spec) == req_multi(ReqSpec(1e5, 4.7e-6, 1.2, 4, F(1, 10), slots))


def test_req_multi_has_the_bits_of_the_float_fraction_loop():
    # REQ_OPERATING (beta 0.11 at 3/8's even split) and a slow-switching point (beta 125)
    # where 1 / (2 f_s C * (1/k)) and k / (2 f_s C) differ in the last bit for k = 3, 5, 6,
    # so a regrouped term shows; each at the even split and at an explicit slot duration
    for radix, top in ((2, 6), (3, 3)):
        for n in range(1, top + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n)
                slots = len(schedule_currents(ratio)[0])
                for point in ((1e5, 4.7e-6, 1.2, 4), (5e4, 1e-6, 0.02, 2)):
                    for t_over_ts in (None, F(2, 7 * slots)):
                        spec = build_req_spec(ratio, *point, t_over_ts)
                        assert req_multi(spec) == float_fraction_req_multi(spec), (ratio, point, t_over_ts)
                        assert spec.slot_duration == float(spec.t_over_ts) / spec.f_s


def test_req_multi_refuses_an_overflowing_result():
    slots = ((F(1, 2), 1), (F(1, 2), 1))
    assert req_multi(ReqSpec(1.0, 1e-300, 2e307, 4, F(1, 2), slots)) == pytest.approx(8e307)
    with pytest.raises(DomainError, match="R_eq is inf"):
        req_multi(ReqSpec(1.0, 1e-300, 4e307, 4, F(1, 4), slots))


def test_spec_fills_betas_by_stack_depth():
    spec = operating_spec(1)
    assert spec.loop_resistance == pytest.approx(4.8)
    assert spec.slot_duration == pytest.approx(1 / spec.f_s / 4)
    assert [stack for _, stack in spec.slots] == [1, 2, 3, 3]


@pytest.mark.parametrize("m", range(1, 8))
def test_resistance_column(m):
    got = req_multi(operating_spec(m))
    assert got == pytest.approx(REQ_FROZEN[m], abs=2e-6)
    assert got == pytest.approx(REQ_COLUMN[m], abs=0.01)


@pytest.mark.parametrize("m", range(1, 8))
def test_floor_multipliers_are_exact(m):
    spec = operating_spec(m)
    assert req_zero_beta_multiplier(spec) == REQ_FLOOR[m]
    floor = float(req_zero_beta_multiplier(spec)) * spec.loop_resistance
    assert floor == pytest.approx(float(REQ_FLOOR[m]) * 4.8, rel=1e-12)
    assert req_multi(spec) >= floor


def test_measurement_row_order_costs_more():
    # the same ratio scheduled in the raw measurement order has a higher floor
    slots = tuple((i, cap.denominator) for i, cap in zip(UNSORTED_38_CURRENTS, UNSORTED_38_CAPS))
    spec = ReqSpec(
        REQ_OPERATING["f_s"],
        REQ_OPERATING["c"],
        REQ_OPERATING["r_on"],
        REQ_OPERATING["switches"],
        F(1, 4),
        slots,
    )
    assert req_zero_beta_multiplier(spec) == UNSORTED_38_FLOOR
    assert req_multi(spec) == pytest.approx(UNSORTED_38_REQ, abs=2e-6)
    assert req_multi(spec) > req_multi(operating_spec(3))


def test_complementary_ratios_cost_the_same():
    for m in (1, 2, 3):
        a = req_multi(operating_spec(m))
        b = req_multi(operating_spec(8 - m))
        assert a == pytest.approx(b, rel=1e-12)


def test_resistance_falls_with_capacitance_and_duty():
    base = operating_spec(3)
    floors = float(req_zero_beta_multiplier(base)) * base.loop_resistance
    previous = math.inf
    for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
        spec = build_req_spec(
            schedule_currents(TargetRatio(3, 2, 3))[0],
            REQ_OPERATING["f_s"], REQ_OPERATING["c"] * scale,
            REQ_OPERATING["r_on"], REQ_OPERATING["switches"],
        )
        value = req_multi(spec)
        assert value <= previous
        assert value >= floors
        previous = value
    # longer slots push the value down as well
    shorter = operating_spec(3, F(1, 8))
    assert req_multi(shorter) >= req_multi(base)


# -- load line -------------------------------------------------------------------------


def test_divider_examples():
    assert vo_under_load(3.0, 5.0, 100.0) == pytest.approx(300.0 / 105.0)
    got = extract_req(
        EXTRACT_EXAMPLE["v_trg"], EXTRACT_EXAMPLE["v_o"], EXTRACT_EXAMPLE["r_o"]
    )
    assert got == pytest.approx(EXTRACT_EXAMPLE["req"], abs=EXTRACT_EXAMPLE["tol"])


@given(st.floats(0.5, 10.0), st.floats(0.1, 50.0), st.floats(1.0, 1e4))
def test_extraction_inverts_the_divider(v_trg, r_eq, r_o):
    v_o = vo_under_load(v_trg, r_eq, r_o)
    assert extract_req(v_trg, v_o, r_o) == pytest.approx(r_eq, rel=1e-9, abs=1e-12)


def test_divider_validation():
    with pytest.raises(DomainError):
        vo_under_load(3.0, 5.0, 0.0)
    with pytest.raises(DomainError):
        vo_under_load(3.0, -1.0, 100.0)
    with pytest.raises(DomainError, match="target voltage must be positive"):
        vo_under_load(-3.0, 5.0, 100.0)
    with pytest.raises(DomainError):
        extract_req(4.0, 4.0, 100.0)
    with pytest.raises(DomainError):
        extract_req(4.0, -0.1, 100.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: vo_under_load(1e300, 1e-300, 1e300),  # v_trg * r_o overflows
        lambda: extract_req(1e300, 1e-10, 1e300),  # v_trg / v_o overflows
        lambda: average_extracted_req(2.0, [(1e308, 1.0)] * 2),  # each point is finite, their sum is not
    ],
    ids=["vo_under_load", "extract_req", "average_extracted_req"],
)
def test_divider_out_of_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError, match="out of float range"):
        call()


@pytest.mark.parametrize("m", range(1, 8))
def test_per_point_extraction_means(m):
    points = list(zip(LOAD_RO, LOAD_TABLE[m]))
    got = average_extracted_req(float(m), points)
    assert got == pytest.approx(AVERAGED_REQ_ROW[m], abs=5e-3)


def test_mean_extraction_needs_points():
    with pytest.raises(FitError):
        average_extracted_req(4.0, [])


@given(st.floats(0.5, 10.0), st.floats(0.1, 50.0))
def test_fit_recovers_synthetic_lines(v_trg, r_eq):
    points = [(r_o, vo_under_load(v_trg, r_eq, r_o)) for r_o in (50.0, 120.0, 333.0, 900.0)]
    got_v, got_r = load_line_fit(points)
    assert got_v == pytest.approx(v_trg, rel=1e-9)
    assert got_r == pytest.approx(r_eq, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("m", range(1, 8))
def test_fit_of_the_load_sweep(m):
    v_trg, r_eq = load_line_fit(list(zip(LOAD_RO, LOAD_TABLE[m])))
    frozen_v, frozen_r = FIT_FROZEN[m]
    assert v_trg == pytest.approx(frozen_v, abs=2e-5)
    assert r_eq == pytest.approx(frozen_r, abs=2e-5)
    # the fitted target sits on the ideal ratio grid
    assert v_trg == pytest.approx(float(m), abs=1e-3)


def test_fit_agrees_with_the_reported_summary():
    _, r_eq = load_line_fit(list(zip(LOAD_RO, LOAD_TABLE[3])))
    assert abs(r_eq - AVERAGED_REQ_ROW[3]) < 0.05


def test_fit_error_paths():
    with pytest.raises(FitError):
        load_line_fit([(100.0, 2.9)])
    with pytest.raises(FitError):
        load_line_fit([(100.0, 2.9), (100.0, 2.95)])
    with pytest.raises(FitError):
        load_line_fit([(100.0, 2.9), (200.0, -2.95)])
    with pytest.raises(FitError):
        load_line_fit([(1.0, 1.0), (2.0, 4.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(FitError, match="measurements must be positive"):
            load_line_fit([(bad, 1.0), (1.0, 0.5), (2.0, 0.8)])
        with pytest.raises(FitError, match="measurements must be positive"):
            load_line_fit([(100.0, bad), (1.0, 0.5), (2.0, 0.8)])


@pytest.mark.parametrize(
    "points",
    [
        [(1e-320, 1.0), (2e-320, 1.0)],  # the spread of r_o squared underflows to 0
        [(1e-160, 1.0), (2e-160, 1.0)],  # ... to a subnormal with four digits left
        [(1e200, 1e-200), (2e200, 1.0)],  # ... overflows in ** 2
        [(1e308, 1.0), (1.7e308, 2.0)],  # the mean of r_o is inf
        [(1.0, 1e-310), (2.0, 1.0)],  # r_o / v_o is inf, so the fit is nan
    ],
)
def test_fit_out_of_float_range_is_a_fit_error(points):
    assert all(0 < x < math.inf for point in points for x in point)
    with pytest.raises(FitError, match="load points out of float range"):
        load_line_fit(points)
