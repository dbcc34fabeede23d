import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sccforge.errors import DomainError, FitError, SingularSystemError
from sccforge.linsolve import sort_codes_by_zeros
from sccforge.lossmodel import (
    RcParams,
    ReqSpec,
    TopologySlot,
    active_schedule,
    average_extracted_req,
    build_req_spec,
    cap_to_cap_response,
    charging_response,
    current_balance,
    efficiency,
    extract_req,
    load_line_fit,
    redistribution_loss,
    req_follower,
    req_multi,
    req_zero_beta_limit,
    req_zero_beta_multiplier,
    slot_cap_ratios,
    vo_under_load,
    write_load_csv,
)
from sccforge.numrep import SignedDigitCode, TargetRatio, spawn_codes

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

F = Fraction


def operating_spec(m: int, t_over_ts=None) -> ReqSpec:
    return build_req_spec(
        active_schedule(TargetRatio(m, 2, 3)),
        REQ_OPERATING["f_s"],
        REQ_OPERATING["c"],
        REQ_OPERATING["r_on"],
        REQ_OPERATING["switches"],
        t_over_ts,
    )


# -- RC responses ------------------------------------------------------------------


def test_charging_response_limits():
    rc = RcParams(2.0, 1e-6, interval=3e-6)
    v0, i0 = charging_response(5.0, 1.0, rc, t=0.0)
    assert v0 == pytest.approx(1.0)
    assert i0 == pytest.approx((5.0 - 1.0) / 2.0)
    v_end, i_end = charging_response(5.0, 1.0, rc, t=100 * rc.tau)
    assert v_end == pytest.approx(5.0)
    assert abs(i_end) < 1e-12
    v5, _ = charging_response(5.0, 1.0, rc, t=5 * rc.tau)
    assert abs(v5 - 5.0) < 0.01 * 4.0
    # omitting t uses the loop's own interval
    assert charging_response(5.0, 1.0, rc) == charging_response(5.0, 1.0, rc, t=3e-6)
    with pytest.raises(DomainError):
        charging_response(5.0, 1.0, rc, t=-1e-9)


def test_cap_pair_split_and_conservation():
    vs, c1, c2, r = 6.0, 2e-6, 1e-6, 3.0
    start = cap_to_cap_response(vs, c1, c2, r, 0.0)
    assert start.v1 == pytest.approx(vs)
    assert start.v2 == pytest.approx(0.0)
    assert start.current == pytest.approx(vs / r)
    end = cap_to_cap_response(vs, c1, c2, r, 1.0)
    assert end.v1 == pytest.approx(c1 * vs / (c1 + c2))
    assert end.v2 == pytest.approx(end.v1)
    assert abs(end.current) < 1e-12
    equal = cap_to_cap_response(vs, 1e-6, 1e-6, r, 1.0)
    assert equal.v1 == pytest.approx(vs / 2)


@given(st.floats(1e-7, 1e-5), st.floats(1e-7, 1e-5), st.floats(0.1, 100.0), st.floats(0, 1e-3))
def test_cap_pair_conserves_charge(c1, c2, r, t):
    vs = 8.0
    resp = cap_to_cap_response(vs, c1, c2, r, t)
    assert c1 * resp.v1 + c2 * resp.v2 == pytest.approx(c1 * vs, rel=1e-9)


def test_redistribution_loss():
    assert redistribution_loss(1e-6, 1e-6, 0.0) == 0.0
    c = 4.7e-6
    assert redistribution_loss(c, c, 2.0) == pytest.approx(c * 4.0 / 4.0)
    assert redistribution_loss(c, math.inf, 2.0) == pytest.approx(c * 4.0 / 2.0)
    with pytest.raises(DomainError):
        redistribution_loss(-c, c, 1.0)


@given(st.floats(1e-7, 1e-5), st.floats(1e-7, 1e-5), st.floats(0.1, 8.0))
def test_loss_is_the_settled_energy_gap(c1, c2, dv):
    # charge one cap dv above the other, let them settle, compare stored energy
    settled = c1 * dv / (c1 + c2)
    e_init = c1 * dv * dv / 2.0
    e_final = (c1 + c2) * settled * settled / 2.0
    assert redistribution_loss(c1, c2, dv) == pytest.approx(e_init - e_final, rel=1e-9)


def test_follower_limits():
    # fast switching looks like four times the loop resistance
    r, c, beta = 1.0, 1e-6, 1e-3
    f_s = 1.0 / (2.0 * beta * r * c)
    assert req_follower(f_s, c, beta, beta) == pytest.approx(4.0 * r, rel=1e-2)
    # slow switching floors at 1/(f_s C)
    f_s, c = 1e5, 4.7e-6
    assert req_follower(f_s, c, 20.0, 20.0) == pytest.approx(1.0 / (f_s * c), rel=1e-3)
    with pytest.raises(DomainError):
        req_follower(f_s, c, 0.0, 1.0)
    with pytest.raises(DomainError):
        req_follower(-f_s, c, 1.0, 1.0)


# -- charge balance -----------------------------------------------------------------


def test_active_schedule_takes_a_ratio_or_its_codes():
    ratio = TargetRatio(3, 2, 3)
    ordered = sort_codes_by_zeros(spawn_codes(ratio))
    # the zero-sorted 3/8 family loses its last row (see the linsolve tests)
    assert active_schedule(ratio) == active_schedule(spawn_codes(ratio)) == ordered[:4]


def test_balance_of_the_sorted_schedule():
    three, four = (active_schedule(TargetRatio(m, 2, 3)) for m in (3, 4))
    assert current_balance(three) == (F(1, 8), F(3, 8), F(1, 4), F(1, 4))
    assert current_balance(four) == (F(1, 2), F(1, 2))
    # 5/9 runs 1 -1 -1, 0 2 -1 and 1 -2 2: a digit of 2 moves charge
    # through two units of its group
    five_ninths = active_schedule(TargetRatio(5, 3, 2))
    assert current_balance(five_ninths) == (F(2, 9), F(4, 9), F(1, 3))


def test_balance_of_the_measurement_row_order():
    codes = [SignedDigitCode(a0, d) for a0, d in DEPENDENT_ROW_ORDER_38]
    active = [codes[i] for i in (0, 1, 2, 4)]
    assert current_balance(active) == UNSORTED_38_CURRENTS
    assert slot_cap_ratios(active) == UNSORTED_38_CAPS


@pytest.mark.parametrize("m", range(1, 8))
def test_balance_zeroes_every_capacitor(m):
    active = active_schedule(TargetRatio(m, 2, 3))
    currents = current_balance(active)
    assert sum(currents) == 1
    for k in range(3):
        flow = sum(
            ((d > 0) - (d < 0)) * i
            for i, d in zip(currents, (c.digits[k] for c in active))
        )
        assert flow == 0


def test_balance_conserves_energy():
    # lossless: the input delivers ratio * I_o, all of it in the a0 = 1 slots
    for radix, top in ((2, 8), (3, 4)):
        for n in range(1, top + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n)
                active = active_schedule(ratio)
                currents = current_balance(active)
                drawn = sum(c.a0 * i for c, i in zip(active, currents))
                assert drawn == ratio.value, str(ratio)


@pytest.mark.parametrize("m", range(1, 8))
def test_schedule_table(m):
    active = active_schedule(TargetRatio(m, 2, 3))
    got = tuple(zip(current_balance(active), slot_cap_ratios(active)))
    assert got == CURRENT_CAP_TABLE[m]


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
    pair = [SignedDigitCode(0, (1,)), SignedDigitCode(0, (1,))]
    with pytest.raises(SingularSystemError) as err:
        current_balance(pair)
    assert "no current assignment" in str(err.value)


def test_balance_validation():
    with pytest.raises(DomainError):
        current_balance([])
    with pytest.raises(DomainError):
        current_balance([SignedDigitCode(0, (1,)), SignedDigitCode(0, (1, 0))])
    with pytest.raises(DomainError):
        current_balance([SignedDigitCode(0, (1,)), SignedDigitCode(0, (1,), 3)])


def test_slot_cap_ratios():
    codes = [SignedDigitCode(1, (-1, 0, -1)), SignedDigitCode(0, (0, 0, 1))]
    assert slot_cap_ratios(codes) == (F(1, 2), F(1))
    with pytest.raises(DomainError):
        slot_cap_ratios([SignedDigitCode(1, (0, 0, 0))])
    # a radix-3 digit of magnitude 2 stacks two units (5/9)
    codes = [SignedDigitCode(0, (2, -1), radix=3), SignedDigitCode(1, (-2, 2), radix=3)]
    assert slot_cap_ratios(codes) == (F(1, 3), F(1, 4))


# -- multi-slot resistance ------------------------------------------------------------


def test_slot_and_spec_validation():
    with pytest.raises(DomainError):
        TopologySlot(F(1, 2), F(0))
    with pytest.raises(DomainError):
        TopologySlot(F(1, 2), F(2, 3))
    with pytest.raises(DomainError):
        TopologySlot(F(1, 2), F(3, 2))
    with pytest.raises(DomainError):
        TopologySlot(F(1, 2), 0.5)
    slots = (TopologySlot(F(1, 2), F(1)), TopologySlot(F(1, 2), F(1)))
    with pytest.raises(DomainError):
        ReqSpec(1e5, 4.7e-6, 1.2, 4, F(1, 2) + F(1, 100), slots)
    with pytest.raises(DomainError):
        ReqSpec(1e5, 4.7e-6, 1.2, 4, F(0), slots)
    with pytest.raises(DomainError):
        ReqSpec(1e5, 4.7e-6, 1.2, 0, F(1, 2), slots)
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


def test_req_multi_refuses_an_overflowing_result():
    slots = (TopologySlot(F(1, 2), F(1)), TopologySlot(F(1, 2), F(1)))
    assert req_multi(ReqSpec(1.0, 1e-300, 2e307, 4, F(1, 2), slots)) == pytest.approx(8e307)
    with pytest.raises(DomainError, match="R_eq is inf"):
        req_multi(ReqSpec(1.0, 1e-300, 4e307, 4, F(1, 4), slots))


def test_spec_fills_betas_by_stack_depth():
    spec = operating_spec(1)
    assert spec.loop_resistance == pytest.approx(4.8)
    assert spec.slot_duration == pytest.approx(spec.period / 4)
    assert [s.series_count for s in spec.slots] == [1, 2, 3, 3]


@pytest.mark.parametrize("m", range(1, 8))
def test_resistance_column(m):
    got = req_multi(operating_spec(m))
    assert got == pytest.approx(REQ_FROZEN[m], abs=2e-6)
    assert got == pytest.approx(REQ_COLUMN[m], abs=0.01)


@pytest.mark.parametrize("m", range(1, 8))
def test_floor_multipliers_are_exact(m):
    spec = operating_spec(m)
    assert req_zero_beta_multiplier(spec) == REQ_FLOOR[m]
    assert req_zero_beta_limit(spec) == pytest.approx(float(REQ_FLOOR[m]) * 4.8, rel=1e-12)
    assert req_multi(spec) >= req_zero_beta_limit(spec)


def test_measurement_row_order_costs_more():
    # the same ratio scheduled in the raw measurement order has a higher floor
    slots = tuple(
        TopologySlot(i, cr) for i, cr in zip(UNSORTED_38_CURRENTS, UNSORTED_38_CAPS)
    )
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
    floors = req_zero_beta_limit(base)
    previous = math.inf
    for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
        spec = build_req_spec(
            active_schedule(TargetRatio(3, 2, 3)),
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
    assert efficiency(3.816, 4.0) == pytest.approx(0.954)
    assert efficiency(None, 4.0, r_eq=4.822, r_o=100.0) == pytest.approx(
        100.0 / 104.822, rel=1e-9
    )


@given(st.floats(0.5, 10.0), st.floats(0.1, 50.0), st.floats(1.0, 1e4))
def test_extraction_inverts_the_divider(v_trg, r_eq, r_o):
    v_o = vo_under_load(v_trg, r_eq, r_o)
    assert extract_req(v_trg, v_o, r_o) == pytest.approx(r_eq, rel=1e-9, abs=1e-12)


def test_divider_validation():
    with pytest.raises(DomainError):
        vo_under_load(3.0, 5.0, 0.0)
    with pytest.raises(DomainError):
        vo_under_load(3.0, -1.0, 100.0)
    with pytest.raises(DomainError):
        extract_req(4.0, 4.0, 100.0)
    with pytest.raises(DomainError):
        extract_req(4.0, -0.1, 100.0)
    with pytest.raises(DomainError):
        efficiency(5.0, 4.0)
    with pytest.raises(DomainError):
        efficiency(None, 4.0, r_eq=1.0)
    with pytest.raises(DomainError):
        efficiency(3.0, 0.0)


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


def test_load_csv_format():
    out = io.StringIO()
    write_load_csv([("3/8", 100.0, 2.846, 5.41, 0.9487)], out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "ratio,R_o,V_o,R_eq,eta"
    assert lines[1].startswith("3/8,100,2.846,")
