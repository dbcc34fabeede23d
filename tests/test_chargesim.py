import io
import math
import random
import re
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.linalg import _umath_linalg

from sccforge import chargesim
from sccforge.chargesim import (
    BankState,
    charge_locus,
    run,
    trace_csv_lines,
    write_locus_csv,
)
from sccforge.errors import DomainError
from sccforge.linsolve import build_system, solve_unique
from sccforge.numrep import SignedDigitCode, TargetRatio, balanced_sequence, spawn_codes

from golden import (
    CONVERGENCE_CASES,
    CONVERGENCE_MAX_PERIODS,
    CONVERGENCE_TARGET,
    CONVERGENCE_TOL_V,
    DEPENDENT_ROW_ORDER_38,
    STEP_EXAMPLE,
)
from oracles import closed_form_step, redistribution_loss, reference_run, trace_rows

SEQ_38 = [SignedDigitCode(a0, digits) for a0, digits in DEPENDENT_ROW_ORDER_38]
VIN = 8.0


def bank(caps, cout, volts, vout):
    return BankState(tuple(caps), cout, tuple(volts), vout)


def one_slot(state, code, vin):
    """The bank after one slot of code, and the charge it moved (positive into the output)."""
    trace = run(state, (code,), vin, tol=1.0, max_periods=1)  # one slot; convergence unused
    return trace.final_state, trace.buffer[-1]


# -- single slot -------------------------------------------------------------------


def test_settled_bank_moves_no_charge():
    state = bank((4.7e-6,) * 3, 470e-6, (4.0, 2.0, 1.0), 3.0)
    for code in SEQ_38:
        nxt, q = one_slot(state, code, VIN)
        assert abs(q) < 1e-15
        for v, v0 in zip(nxt.flying_voltages, state.flying_voltages):
            assert abs(v - v0) < 1e-10
        assert abs(nxt.output_voltage - state.output_voltage) < 1e-10


def test_sourceless_slot_from_rest_is_inert():
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    nxt, q = one_slot(state, SignedDigitCode(0, (0, 1, 1)), VIN)
    assert q == pytest.approx(0.0, abs=1e-18)
    assert all(abs(v) < 1e-12 for v in nxt.flying_voltages)
    assert abs(nxt.output_voltage) < 1e-12


def test_first_slot_from_rest():
    state = bank(STEP_EXAMPLE["caps"], STEP_EXAMPLE["cout"], (0.0, 0.0, 0.0), 0.0)
    code = SignedDigitCode(1, (-1, 0, -1))
    nxt, q = one_slot(state, code, STEP_EXAMPLE["vin"])
    assert q == pytest.approx(STEP_EXAMPLE["charge"], rel=1e-12)
    assert nxt.flying_voltages[0] == pytest.approx(STEP_EXAMPLE["v_flying"], rel=1e-12)
    assert nxt.flying_voltages[1] == 0.0
    assert nxt.flying_voltages[2] == pytest.approx(STEP_EXAMPLE["v_flying"], rel=1e-12)
    assert nxt.output_voltage == pytest.approx(STEP_EXAMPLE["v_out"], rel=1e-12)
    # second route to the same numbers
    volts2, vout2, q2 = closed_form_step(
        state.flying_caps,
        state.output_cap,
        state.flying_voltages,
        state.output_voltage,
        code.a0,
        code.digits,
        STEP_EXAMPLE["vin"],
    )
    assert q2 == pytest.approx(q, rel=1e-12)
    assert vout2 == pytest.approx(nxt.output_voltage, rel=1e-12)
    assert volts2 == pytest.approx(nxt.flying_voltages, rel=1e-12)


@st.composite
def banks(draw, n):
    caps = tuple(draw(st.floats(1e-7, 1e-4)) for _ in range(n))
    cout = draw(st.floats(1e-6, 1e-3))
    volts = tuple(draw(st.floats(-10, 10)) for _ in range(n))
    return bank(caps, cout, volts, draw(st.floats(-10, 10)))


@st.composite
def engaging_codes(draw, n):
    digits = tuple(draw(st.integers(-1, 1)) for _ in range(n))
    a0 = draw(st.integers(0, 1))
    if a0 == 0 and not any(digits):
        digits = (1,) + digits[1:]
    return SignedDigitCode(a0, digits)


@st.composite
def step_cases(draw):
    n = draw(st.integers(1, 4))
    return draw(banks(n)), draw(engaging_codes(n)), draw(st.floats(1.0, 12.0))


@given(step_cases())
def test_step_closes_the_loop_and_conserves_charge(case):
    state, code, vin = case
    nxt, q = one_slot(state, code, vin)
    loop = (
        code.a0 * vin
        + sum(d * v for d, v in zip(code.digits, nxt.flying_voltages))
        - nxt.output_voltage
    )
    assert abs(loop) <= 1e-9 * max(1.0, abs(vin))
    for j, d in enumerate(code.digits):
        dv = nxt.flying_voltages[j] - state.flying_voltages[j]
        if d == 0:
            assert dv == 0.0
        else:
            assert state.flying_caps[j] * dv == pytest.approx(-d * q, rel=1e-9, abs=1e-14)
    assert state.output_cap * (nxt.output_voltage - state.output_voltage) == pytest.approx(
        q, rel=1e-9, abs=1e-14
    )


@given(step_cases())
def test_step_matches_direct_formula(case):
    state, code, vin = case
    nxt, q = one_slot(state, code, vin)
    volts2, vout2, q2 = closed_form_step(
        state.flying_caps,
        state.output_cap,
        state.flying_voltages,
        state.output_voltage,
        code.a0,
        code.digits,
        vin,
    )
    assert q == pytest.approx(q2, rel=1e-9, abs=1e-15)
    assert nxt.output_voltage == pytest.approx(vout2, rel=1e-8, abs=1e-9)
    for v, v2 in zip(nxt.flying_voltages, volts2):
        assert v == pytest.approx(v2, rel=1e-8, abs=1e-9)


def stored_energy(state):
    volts = (*state.flying_voltages, state.output_voltage)
    caps = (*state.flying_caps, state.output_cap)
    return sum(c * v * v for c, v in zip(caps, volts)) / 2.0


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(banks(n), st.integers(0, n - 1))))
# stored energies near 1e-317, subnormal: the two sides differed by one 2**-1074
@example((bank((2.421963658913594e-05,), 0.00034101437854770864, (1.2582976925941314e-156,), 0.0), 0))
def test_one_slot_dissipates_the_two_capacitor_loss(case):
    # a0 = 0 and one digit +1 at j: the slot puts C_j straight across the output
    # cap, so the energy the lossless charge step removes is the two-capacitor loss
    state, j = case
    code = SignedDigitCode(0, tuple(int(k == j) for k in range(state.size)))
    nxt, _ = one_slot(state, code, VIN)
    start = stored_energy(state)
    loss = redistribution_loss(
        state.flying_caps[j], state.output_cap, state.flying_voltages[j] - state.output_voltage
    )
    # The subtraction cancels when the loss is tiny next to the stored energy,
    # hence abs = 1e-9 * start. Below 2**-1022 floats are spaced a fixed
    # 2**-1074 apart, so an operation whose result lands there is off by up
    # to 2**-1075 however small the result, and neither rel nor 1e-9 * start
    # covers that. Each energy sum rounds there once per term (c*v*v, whose
    # first product is subnormal only if the second underflows to about 0;
    # adding subnormals is exact) and once more when halved: n + 2 half-ulps
    # on each side. The loss rounds twice (times dv, halved), and the
    # difference of two subnormals is exact. So the floor is n + 3 ulps.
    floor = (state.size + 3) * math.ulp(0.0)
    assert start - stored_energy(nxt) == pytest.approx(loss, rel=1e-9, abs=max(1e-9 * start, floor))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            banks(n), engaging_codes(n), st.lists(st.floats(-1e3, 1e3), min_size=n + 2, max_size=n + 2)
        )
    )
)
def test_slot_kernel_is_numpy_solve(case):
    # run calls np.linalg.solve's LAPACK gufunc directly, with the right-hand
    # side as a float64 array gathered from its state vector
    # (test_run_makes_one_lapack_call_per_slot counts those calls); a numpy
    # release that routes a 1-D solve elsewhere would change simulate's bits
    state, code, rhs = case
    a, written = chargesim._slot_matrix(state, code)
    rhs = np.array(rhs[: len(written) + 1])
    direct = _umath_linalg.solve1(a, rhs, signature="dd->d").tolist()
    assert repr(direct) == repr(np.linalg.solve(a, rhs).tolist())


# -- full runs ---------------------------------------------------------------------


@pytest.mark.parametrize("case", CONVERGENCE_CASES)
def test_run_reaches_the_loop_solution(case):
    state = bank(case["caps"], case["cout"], case["init"][:3], case["init"][3])
    trace = run(state, SEQ_38, VIN, max_periods=CONVERGENCE_MAX_PERIODS)
    assert trace.converged
    final = (*trace.final_state.flying_voltages, trace.final_state.output_voltage)
    for got, want in zip(final, CONVERGENCE_TARGET):
        assert abs(got - want) < CONVERGENCE_TOL_V
    periods = len(trace_rows(trace)) // len(SEQ_38)
    assert trace.adjustment_iterations == (periods - 1) * len(SEQ_38)


@st.composite
def run_cases(draw):
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(engaging_codes(n), min_size=1, max_size=3))
    seq = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    return draw(banks(n)), seq, draw(st.floats(1.0, 12.0)), draw(st.integers(0, 3))


@given(run_cases())
def test_run_is_step_chained_over_the_sequence(case):
    state, seq, vin, periods = case
    trace = run(state, seq, vin, max_periods=periods)
    states, rows = [state], []
    for i, code in enumerate(seq * periods):
        nxt, q = one_slot(states[-1], code, vin)
        states.append(nxt)
        rows.append((i, *nxt.flying_voltages, nxt.output_voltage, q))
    done = len(trace_rows(trace))
    # a converged run stops at a period boundary; otherwise it spends the budget
    assert done % len(seq) == 0
    assert trace.converged or done == len(rows)
    assert trace_rows(trace) == rows[:done]
    assert trace.final_state == states[done]


def assert_matches_reference(state, seq, vin, tol, periods):
    trace = run(state, seq, vin, tol=tol, max_periods=periods)
    if tol is None:
        tol = 1e-9 * abs(vin)
    buffer, done, converged, adjustment, volts = reference_run(state, seq, vin, tol, periods)
    assert trace.buffer.tobytes() == buffer.tobytes()
    assert (trace.periods, trace.converged, trace.adjustment_iterations) == (done, converged, adjustment)
    final = (*trace.final_state.flying_voltages, trace.final_state.output_voltage)
    assert array("d", final).tobytes() == array("d", volts).tobytes()


@st.composite
def reference_cases(draw):
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(engaging_codes(n), min_size=1, max_size=4))
    seq = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    tol = draw(st.none() | st.floats(1e-6, 10.0))
    return draw(banks(n)), seq, draw(st.floats(0.5, 12.0)), tol, draw(st.integers(0, 3))


@given(reference_cases())
def test_run_matches_the_reference_loop_bit_for_bit(case):
    assert_matches_reference(*case)


def test_run_matches_the_reference_loop_on_edge_cases():
    # a code that engages only the output writes one voltage
    state = bank((4.7e-6,), 47e-6, (0.5,), 0.25)
    assert_matches_reference(state, [SignedDigitCode(1, (0,))], VIN, None, 3)
    assert_matches_reference(state, [SignedDigitCode(1, (0,)), SignedDigitCode(0, (1,))], VIN, None, 3)
    # the README run, converged
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    assert_matches_reference(state, SEQ_38, VIN, None, CONVERGENCE_MAX_PERIODS)
    # the overflow stop: run raises in the period where the reference stops
    tiny = bank((1e-320, 4.7e-6, 4.7e-6), 470e-6, (0.0, 0.0, 0.0), 0.0)
    buffer, done, *_ = reference_run(tiny, SEQ_38, VIN, 1e-9 * VIN, 10**4)
    assert done == 1 and not all(map(math.isfinite, buffer))
    with pytest.raises(DomainError, match=f"left the float range in period {done}$"):
        run(tiny, SEQ_38, VIN, max_periods=10**4)


@pytest.mark.parametrize("m, n", [(85, 8), (341, 10)])
def test_run_matches_the_reference_loop_where_lapack_changes_kernels(m, n):
    # from n = 8 up LAPACK picks other kernels for the larger slot matrices
    rng = random.Random(m)
    ratio = TargetRatio(m, 2, n)
    for seq in (list(spawn_codes(ratio)), balanced_sequence(ratio)):
        caps = [rng.uniform(1e-6, 1e-4) for _ in range(n)]
        state = bank(caps, 220e-6, [rng.uniform(-VIN, VIN) for _ in range(n)], rng.uniform(-VIN, VIN))
        assert_matches_reference(state, seq, VIN, None, 3)


def test_limits_match_the_loop_equations():
    # the simulated fixed point is vin times the unique loop solution
    for m in (1, 3, 5, 7):
        family = spawn_codes(TargetRatio(m, 2, 3))
        expect = [VIN * float(x) for x in solve_unique(build_system(family))]
        state = bank((4.7e-6,) * 3, 47e-6, (0.0, 0.0, 0.0), 0.0)
        trace = run(state, list(family), VIN, max_periods=2000)
        assert trace.converged
        final = (*trace.final_state.flying_voltages, trace.final_state.output_voltage)
        for got, want in zip(final, expect):
            assert abs(got - want) < 1e-6 * VIN


def test_every_starting_point_settles_to_the_same_limits():
    rng = random.Random(20260818)
    caps = (4.7e-6,) * 3
    for _ in range(100):
        init = [rng.uniform(-VIN, VIN) for _ in range(4)]
        state = bank(caps, 47e-6, init[:3], init[3])
        trace = run(state, SEQ_38, VIN, max_periods=2000)
        assert trace.converged
        final = (*trace.final_state.flying_voltages, trace.final_state.output_voltage)
        for got, want in zip(final, CONVERGENCE_TARGET):
            assert abs(got - want) < 1e-6 * VIN


def test_charge_collapses_once_settled():
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    trace = run(state, SEQ_38, VIN, max_periods=CONVERGENCE_MAX_PERIODS)
    assert trace.converged
    charges = [abs(row[-1]) for row in trace_rows(trace)]
    first = max(charges[: len(SEQ_38)])
    last = max(charges[-len(SEQ_38) :])
    assert last < 1e-3 * first


def test_budget_exhaustion_reports_instead_of_raising():
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    trace = run(state, SEQ_38, VIN, max_periods=2)
    assert not trace.converged
    assert trace.adjustment_iterations is None
    assert len(trace_rows(trace)) == 2 * len(SEQ_38)


def test_zero_budget_run_is_empty():
    state = bank((4.7e-6,) * 3, 470e-6, (1.0, 2.0, 3.0), 0.5)
    trace = run(state, SEQ_38, VIN, max_periods=0)
    assert trace_rows(trace) == []
    assert not trace.converged
    assert trace.final_state == state


def test_records_view_the_buffer_one_row_a_slot():
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    trace = run(state, SEQ_38, VIN)
    assert len(trace.records) == trace.periods * len(SEQ_38)
    assert trace.records.obj is trace.buffer
    assert trace.records.tolist() == [list(row[1:]) for row in trace_rows(trace)]
    assert len(run(state, SEQ_38, VIN, max_periods=0).records) == 0


# float extremes from the smallest subnormal to the largest double
EXTREME_CAPS = (5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e12, 1e300, 1.7976931348623157e308)


def test_slot_matrices_never_go_singular():
    # run solves without an error state: LAPACK flags only an exact zero pivot,
    # and a slot matrix pivots on its identity rows, then on
    # -(sum d_j**2/C_j + 1/C_o), whose same-signed terms never cancel to 0. So
    # every slot solves, and a run either returns or stops with DomainError.
    rng = random.Random(37)

    def cap():
        return rng.choice(EXTREME_CAPS) if rng.random() < 0.5 else rng.uniform(1e-9, 1e-3)

    outcomes = set()
    for k in range(200):
        n = rng.randint(1, 6)
        ratio = TargetRatio(rng.randint(1, 2**n - 1), 2, n)
        seq = balanced_sequence(ratio) if k % 2 else list(spawn_codes(ratio))
        volts = [rng.uniform(-10.0, 10.0) for _ in range(n + 1)]
        state = bank([cap() for _ in range(n)], cap(), volts[:n], volts[n])
        for code in dict.fromkeys(seq):
            a, _ = chargesim._slot_matrix(state, code)
            np.linalg.solve(a, np.ones(len(a)))
        with np.errstate(all="raise"):
            try:
                run(state, seq, VIN, max_periods=3)
                outcomes.add("returned")
            except DomainError:
                outcomes.add("overflowed")
    assert outcomes == {"returned", "overflowed"}


@pytest.fixture
def lapack_calls(monkeypatch):
    """The matrices of every LAPACK solve run makes while the test runs."""
    solves = []
    kernel = _umath_linalg.solve1
    monkeypatch.setattr(_umath_linalg, "solve1", lambda a, b, **kw: solves.append(a) or kernel(a, b, **kw))
    return solves


def test_run_validation(lapack_calls):
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        run(state, [], VIN)
    with pytest.raises(DomainError):
        run(state, SEQ_38, VIN, tol=0.0)
    with pytest.raises(DomainError):
        run(state, SEQ_38, VIN, max_periods=-1)
    # codes are checked before the first slot, so even an empty budget sees them
    with pytest.raises(DomainError, match="engages nothing"):
        run(state, [SignedDigitCode(0, (0, 0, 0))], VIN, max_periods=0)
    # 1/1e-320 overflows to inf: the run raises after the first period, whatever
    # the budget
    tiny = bank((1e-320, 4.7e-6, 4.7e-6), 470e-6, (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError, match="the simulation left the float range in period 1$"):
        run(tiny, SEQ_38, VIN, max_periods=10**4)
    assert len(lapack_calls) == len(SEQ_38)


@pytest.mark.parametrize(
    "kwargs, text",
    [
        (dict(vin=VIN, max_periods=2.5), "max_periods must be an integer, got 2.5"),
        (dict(vin=VIN, max_periods="3"), "max_periods must be an integer, got '3'"),
        (dict(vin=math.nan), "vin must be finite, got nan"),
        (dict(vin=-math.inf, tol=1e-6), "vin must be finite, got -inf"),
    ],
    ids=["periods-float", "periods-text", "vin-nan", "vin-inf-with-tol"],
)
def test_run_names_the_bad_argument(kwargs, text, lapack_calls):
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        run(state, SEQ_38, **kwargs)
    assert lapack_calls == []


def test_run_makes_one_lapack_call_per_slot(lapack_calls):
    # the README run: 3/8 in spawn order settles in 395 periods of 5 slots
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    trace = run(state, spawn_codes(TargetRatio(3, 2, 3)), VIN)
    assert trace.converged
    assert len(lapack_calls) == trace.periods * len(SEQ_38) == 1975
    assert len(trace.buffer) == len(lapack_calls) * (state.size + 2)


def test_zero_input_needs_an_explicit_tolerance():
    state = bank((4.7e-6,) * 3, 47e-6, (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError, match="default tolerance scales with vin; give tol"):
        run(state, SEQ_38, 0.0)
    assert run(state, SEQ_38, 0.0, tol=1e-3).converged


# -- diagnostics -------------------------------------------------------------------


def test_locus_angles_wrap_by_slot_index():
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    trace = run(state, SEQ_38, VIN, max_periods=2)
    points = charge_locus(trace)
    rows = trace_rows(trace)
    assert len(points) == len(rows)
    for row, (angle, radius) in zip(rows, points):
        k = row[0] % len(SEQ_38)
        assert angle == pytest.approx(2.0 * math.pi * k / len(SEQ_38))
        assert radius == abs(row[-1])
    # one full turn spans the sequence, then repeats
    assert points[0][0] == 0.0
    assert points[len(SEQ_38)][0] == 0.0


def test_locus_validation_and_empty_trace():
    # the slots per period are read off the trace: 8 for the balanced 3/8 order
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    assert charge_locus(run(state, SEQ_38, VIN, max_periods=0)) == []
    trace = run(state, balanced_sequence(TargetRatio(3, 2, 3)), VIN, max_periods=3)
    assert [angle for angle, _ in charge_locus(trace)] == [2.0 * math.pi * (k % 8) / 8 for k in range(24)]


def test_trace_csv_format():
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    trace = run(state, SEQ_38, VIN, max_periods=1)
    lines = trace_csv_lines(trace)
    assert lines[0] == "iteration,V1,V2,V3,Vo,Q"
    rows = trace_rows(trace)
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[-1]) == pytest.approx(rows[0][-1], rel=1e-11)


def test_trace_csv_rows_match_format_on_special_values():
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308]
    specials += [1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -2e-13, 123456789012.5]
    state = bank((4.7e-6, 1e-6), 470e-6, (0.0, 0.0), 0.0)
    trace = chargesim.SimTrace(array("d", specials), 1, False, None, state)
    rows = [specials[k : k + 4] for k in range(0, len(specials), 4)]
    want = [f"{i}," + ",".join(format(x, ".12g") for x in row) for i, row in enumerate(rows)]
    assert trace_csv_lines(trace) == ["iteration,V1,V2,Vo,Q", *want]


def test_locus_csv_format():
    out = io.StringIO()
    write_locus_csv([(0.0, 1.5e-5), (math.pi, 2e-6)], out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "angle_rad,abs_charge"
    assert len(lines) == 3
    assert float(lines[2].split(",")[0]) == pytest.approx(math.pi)


# -- validation --------------------------------------------------------------------


def test_step_rejects_unsupported_codes():
    state = bank((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        one_slot(state, SignedDigitCode(1, (-1, 0, -2), radix=3), VIN)
    with pytest.raises(DomainError):
        one_slot(state, SignedDigitCode(1, (-1, 0)), VIN)
    with pytest.raises(DomainError):
        one_slot(state, SignedDigitCode(0, (0, 0, 0)), VIN)


def test_bank_state_validation():
    with pytest.raises(DomainError):
        BankState((), 470e-6, (), 0.0)
    with pytest.raises(DomainError):
        BankState((4.7e-6,) * 3, 470e-6, (0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        BankState((4.7e-6, -1e-6, 4.7e-6), 470e-6, (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        BankState((4.7e-6,) * 3, 0.0, (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        BankState((4.7e-6,) * 3, 470e-6, (0.0, math.inf, 0.0), 0.0)
    with pytest.raises(DomainError):
        BankState((4.7e-6,) * 3, 470e-6, (0.0, 0.0, 0.0), math.nan)
    assert bank((4.7e-6,) * 3, 470e-6, (0.0, -1.0, 0.0), 0.0).size == 3
