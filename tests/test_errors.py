import ast
import math
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sccforge
from sccforge import errors
from sccforge._si import parse_fraction, parse_quantity, parse_slot
from sccforge.chargesim import BankState, run
from sccforge.errors import DomainError, FitError, require_exact
from sccforge.linsolve import schedule_currents
from sccforge.lossmodel import ReqSpec, build_req_spec, extract_req, load_line_fit, vo_under_load
from sccforge.numrep import TargetRatio, spawn_codes
from sccforge.regulation import dither_plan, ldo_efficiency_bound, ldo_select_ratio

NAN, INF = math.nan, math.inf
ACTIVE_38 = schedule_currents(TargetRatio(3, 2, 3))[0]
BANK = BankState((4.7e-6,) * 3, 47e-6, (0.0,) * 3, 0.0)

# each call passed its validator with a NaN or infinite quantity before the
# shared finite-and-positive check: accepted, returned nan, or failed elsewhere
NON_FINITE_CALLS = {
    "bank-cap-nan": lambda: BankState((NAN,), 1.0, (0.0,), 0.0),
    "bank-output-cap-inf": lambda: BankState((1.0,), INF, (0.0,), 0.0),
    "req-spec-fs-nan": lambda: build_req_spec(ACTIVE_38, NAN, 4.7e-6, 1.2, 4),
    "req-spec-c-inf": lambda: build_req_spec(ACTIVE_38, 1e5, INF, 1.2, 4),
    "req-spec-slot-nan": lambda: build_req_spec(TargetRatio(3, 2, 3), 1e5, 4.7e-6, 1.2, 4, NAN),
    "req-spec-slot-inf": lambda: build_req_spec(TargetRatio(3, 2, 3), 1e5, 4.7e-6, 1.2, 4, INF),
    # the two-phase follower as a two-slot spec, where beta NaN is r_on NaN
    "follower-beta-nan": lambda: ReqSpec(1e5, 1e-6, NAN, 1, Fraction(1, 2), ((1, 1), (1, 1))),
    "load-ro-nan": lambda: vo_under_load(3.0, 0.5, NAN),
    "load-vtrg-nan": lambda: vo_under_load(NAN, 0.5, 100.0),
    "extract-vtrg-inf": lambda: extract_req(INF, 1.0, 100.0),
    "ldo-vin-inf": lambda: ldo_select_ratio(INF, 1.8, 0.2, 3),
    "ldo-dropout-nan": lambda: ldo_select_ratio(5.0, 1.8, NAN, 3),
    "run-tol-nan": lambda: run(BANK, spawn_codes(TargetRatio(3, 2, 3)), 8.0, tol=NAN),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS)
def test_non_finite_quantities_are_domain_errors(call):
    # the validator's own message, not a failure further down
    with pytest.raises(DomainError, match="must be (positive|non-negative)"):
        call()


# each call ended in a bare TypeError, ValueError or OverflowError from a
# comparison or a float() before its validator could name the argument, or
# was accepted: a numeric str as a capacitance, an int past the float range
# as a tolerance or output capacitance
NON_NUMBER_CALLS = {
    "run-tol-str": (lambda: run(BANK, ACTIVE_38, 8.0, tol="1e-6"), DomainError, "tolerance must be positive"),
    "run-vin-str": (lambda: run(BANK, ACTIVE_38, "8"), DomainError, "vin must be finite, got '8'"),
    "run-vin-huge-int": (lambda: run(BANK, ACTIVE_38, 10**400), DomainError, "vin must be finite"),
    "run-tol-huge-int": (lambda: run(BANK, ACTIVE_38, 8.0, tol=10**400), DomainError, "tolerance must be positive"),
    "req-spec-fs-huge-int": (
        lambda: ReqSpec(10**400, 1e-6, 1.0, 1, Fraction(1, 2), ((1, 1), (1, 1))),
        DomainError,
        "f_s, c, and r_on must be positive",
    ),
    "req-spec-c-huge-int": (
        lambda: build_req_spec(TargetRatio(3, 2, 3), 1e5, 10**400, 1.2, 4),
        DomainError,
        "f_s, c, and r_on must be positive",
    ),
    "req-spec-fs-str": (
        lambda: build_req_spec(TargetRatio(3, 2, 3), "1e5", 4.7e-6, 1.2, 4),
        DomainError,
        "f_s, c, and r_on must be positive",
    ),
    "ldo-vin-str": (lambda: ldo_select_ratio("10", 3.3, 0.3, 3), DomainError, "vin and vout must be positive"),
    "ldo-dropout-complex": (lambda: ldo_select_ratio(5.0, 1.8, 0.2j, 3), DomainError, "dropout must be non-negative"),
    "ldo-bound-vout-str": (lambda: ldo_efficiency_bound("3.3", 0.3), DomainError, "vout must be positive"),
    "ldo-bound-vout-huge-int": (lambda: ldo_efficiency_bound(10**400, 0.3), DomainError, "vout must be positive"),
    "extract-vo-str": (lambda: extract_req(3.0, "2.9", 10.0), DomainError, "measured output must be positive"),
    "extract-ro-huge-int": (lambda: extract_req(3.0, 2.9, 10**400), DomainError, "load resistance must be positive"),
    "load-ro-none": (lambda: vo_under_load(3.0, 0.5, None), DomainError, "load resistance must be positive"),
    "load-vtrg-huge-int": (lambda: vo_under_load(10**400, 0.5, 100.0), DomainError, "target voltage must be positive"),
    "bank-cap-none": (lambda: BankState((None,), 1.0, (0.0,), 0.0), DomainError, "capacitances must be positive"),
    "bank-cap-text": (lambda: BankState(("1u",), 1.0, (0.0,), 0.0), DomainError, "capacitances must be positive"),
    "bank-cap-numeric-str": (
        lambda: BankState(("1e-6",), 1.0, ("0.5",), 0.0),
        DomainError,
        "capacitances must be positive",
    ),
    "bank-output-cap-huge-int": (
        lambda: BankState((1e-6,), 10**400, (0.5,), 0.0),
        DomainError,
        "capacitances must be positive",
    ),
    # a DomainError already: the gate must not put a bare tuple(None) in front of itself
    "bank-caps-none": (
        lambda: BankState(None, 1.0, (0.0,), 0.0),
        DomainError,
        "flying capacitances and voltages must",
    ),
    "bank-output-voltage-str": (lambda: BankState((1.0,), 1.0, (0.0,), "0V"), DomainError, "voltages must be finite"),
    "fit-vo-str": (lambda: load_line_fit([(1.0, "1"), (2.0, 1.5)]), FitError, "measurements must be positive"),
    "fit-ro-huge-int": (
        lambda: load_line_fit([(10**400, 1.0), (2.0, 1.5)]),
        FitError,
        "measurements must be positive",
    ),
    "fit-ro-huge-fraction": (
        lambda: load_line_fit([(Fraction(10**400), 1.0), (2.0, 1.5)]),
        FitError,
        "measurements must be positive",
    ),
    "dither-target-none": (lambda: dither_plan(None, 3, 8), DomainError, "target None is not a finite number"),
    "ratio-denominator-str": (
        lambda: TargetRatio.from_fraction(3, "8"),
        DomainError,
        "denominator must be an integer, got '8'",
    ),
}


@pytest.mark.parametrize("call, error, text", NON_NUMBER_CALLS.values(), ids=NON_NUMBER_CALLS)
def test_non_numbers_are_named_errors(call, error, text):
    with pytest.raises(error, match=text):
        call()


def test_numbers_go_on_as_floats():
    # a Fraction output_cap is stored as the float the flying caps are
    bank = BankState((1e-6,), Fraction(1), (0.5,), 0)
    values = (*bank.flying_caps, bank.output_cap, *bank.flying_voltages, bank.output_voltage)
    assert [type(v) for v in values] == [float] * 4
    assert run(BANK, ACTIVE_38, Decimal(8)).buffer == run(BANK, ACTIVE_38, 8.0).buffer
    # a Decimal has no arithmetic with a float; the gate's float has
    assert vo_under_load(Decimal(3), 5.0, 100.0) == vo_under_load(3.0, 5.0, 100.0)
    assert extract_req(Decimal(4), 3.816, 100.0) == extract_req(4.0, 3.816, 100.0)
    assert ldo_efficiency_bound(Decimal("1.8"), 0.3) == ldo_efficiency_bound(1.8, 0.3)


NOT_EXACT = {
    "float-nan": NAN,
    "float-inf": INF,
    "float-minus-inf": -INF,
    "decimal-nan": Decimal("NaN"),
    "decimal-inf": Decimal("Infinity"),
    "none": None,
    "complex": 0.5j,
    "str": "3/8",
}


@pytest.mark.parametrize("value", NOT_EXACT.values(), ids=NOT_EXACT)
def test_exact_gate_refuses_with_the_callers_message(value):
    with pytest.raises(DomainError, match="^the caller's words$"):
        require_exact("the caller's words", 1, value)


@pytest.mark.parametrize("value", NOT_EXACT.values(), ids=NOT_EXACT)
def test_exact_readers_name_their_argument(value):
    with pytest.raises(DomainError, match="slot duration t_over_ts must be positive"):
        ReqSpec(1e5, 4.7e-6, 1.2, 4, value, ((1, 1),))
    with pytest.raises(DomainError, match="is not a finite number"):
        dither_plan(value, 3, 8)


def test_exact_gate_reads_floats_at_their_printed_value():
    values = (0.1, np.float64(0.1), Decimal("0.1"), Fraction(1, 10), 2, True, np.int64(3), 1e308)
    # Decimals up to the 1000-digit limit stay exact
    values += (Decimal(8), Decimal("2.5E-6"), Decimal("1e999"), Decimal("1e-999"))
    exact = require_exact("unused", *values)
    assert exact[:4] == (Fraction(1, 10),) * 4
    assert exact[4:] == (2, 1, 3, 10**308, 8, Fraction(1, 400000), 10**999, Fraction(1, 10**999))
    assert all(type(f) is Fraction and type(f.numerator) is int for f in exact)


OVERSIZED_DECIMAL_CALLS = {
    "dither-target": (lambda: dither_plan(Decimal("1e-1000000"), 3, 8), "is not a finite number"),
    "req-spec-slot": (
        lambda: ReqSpec(1e5, 4.7e-6, 1.2, 4, Decimal("1e-1000000"), ((1, 1),)),
        "slot duration t_over_ts must be positive",
    ),
    "gate-large": (lambda: require_exact("x", Decimal("1e1000")), "^x"),
    "gate-long": (lambda: require_exact("x", Decimal("0." + "1" * 501)), "^x"),
}


@pytest.mark.parametrize("call, words", OVERSIZED_DECIMAL_CALLS.values(), ids=OVERSIZED_DECIMAL_CALLS)
def test_exact_gate_refuses_an_oversized_decimal_before_its_fraction(call, words):
    # parse_fraction's bound on text, kept on a Decimal's digits plus its exponent's size,
    # refuses before Fraction(Decimal("1e-1000000")) spends seconds building 10**1000000
    started = time.perf_counter()
    with pytest.raises(DomainError, match=words) as refused:
        call()
    assert time.perf_counter() - started < 0.01
    assert str(refused.value).endswith(": a Decimal past the 1000-digit limit")


def test_only_the_gate_reads_a_fraction_from_text():
    # one exact reading of inputs: no module but errors, where require_exact lives, builds Fraction(str(...))
    readers = set()
    for path in sorted(set(Path(sccforge.__file__).parent.glob("*.py")) - {Path(errors.__file__)}):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction":
                inner = [n for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Call)]
                if any(getattr(n.func, "id", None) == "str" for n in inner):
                    readers.add(path.stem)
    assert readers == set()


def test_zero_dropout_stays_legal():
    assert ldo_select_ratio(5.0, 2.5, 0.0, 1).ratio == TargetRatio(1, 2, 1)
    assert ldo_efficiency_bound(1.8, 0.0) == 1.0


@pytest.mark.parametrize(
    "text, value", [("4.7uF", 4.7e-6), ("100kHz", 1e5), ("1.2Ohm", 1.2), ("10mS", 0.01)]
)
def test_quantity_unit_letters_are_stripped(text, value):
    assert parse_quantity(text) == value


@pytest.mark.parametrize(
    "text, value",
    [
        ("2.5u", Fraction(1, 400_000)),
        ("2.5e-6", Fraction(1, 400_000)),
        ("2.5e-3us", Fraction(1, 400_000_000)),
        ("1e-3", Fraction(1, 1000)),
        ("0.1ms", Fraction(1, 10_000)),
        ("1e-400", 0),
    ],
)
def test_slot_seconds_are_the_decimal_typed(text, value):
    # a float would make 0.1 ms a binary fraction; a float underflow stays 0
    assert Fraction(parse_slot(text)) == value


MALFORMED_TEXT = {
    "quantity-unit-only": (lambda: parse_quantity("F"), "cannot parse quantity"),
    "quantity-prefix-only": (lambda: parse_quantity("mF"), "cannot parse quantity"),
    "slot-divisor-text": (lambda: parse_slot("Ts/x"), "cannot parse slot spec"),
    "slot-divisor-zero": (lambda: parse_slot("Ts/0"), "slot divisor must be positive"),
    "fraction-exponent": (lambda: parse_fraction("1ex"), "cannot parse fraction"),
    "fraction-digits": (lambda: parse_fraction("1e-1000"), "exceeds the 1000-digit limit"),
}


@pytest.mark.parametrize("call, text", MALFORMED_TEXT.values(), ids=MALFORMED_TEXT)
def test_malformed_text_is_a_domain_error(call, text):
    with pytest.raises(DomainError, match=text):
        call()


def test_fraction_digit_limit_is_inclusive():
    assert parse_fraction("1e-999") == Fraction(1, 10**999)
