import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import sccforge
from sccforge.errors import DomainError, UnsupportedCodeError
from sccforge.numrep import SignedDigitCode, TargetRatio, spawn_codes
from sccforge.topology import (
    GroupConnection,
    SwitchStates,
    Topology,
    code_to_topology,
    switch_states,
)

from golden import SWITCH_VECTORS, UNMAPPED_CODES


def test_code_to_topology_binary_example():
    topo = code_to_topology(SignedDigitCode(1, (-1, 0, -1)))
    assert topo.source_engaged
    assert [g.mode for g in topo.groups] == ["charge", "bypass", "charge"]
    assert [g.series_count for g in topo.groups] == [1, 0, 1]


def test_code_to_topology_wider_radix_counts_equalizers():
    topo = code_to_topology(SignedDigitCode(1, (-1, -2), radix=3))
    assert topo.source_engaged
    first, second = topo.groups
    assert (first.mode, first.series_count, first.equalizer_count) == ("charge", 1, 1)
    assert (second.mode, second.series_count, second.equalizer_count) == ("charge", 2, 0)


def test_code_to_topology_discharge():
    topo = code_to_topology(SignedDigitCode(0, (1,)))
    assert not topo.source_engaged
    assert topo.groups[0].mode == "discharge"


def test_group_connection_validation():
    with pytest.raises(DomainError):
        GroupConnection("bypass", 1, 0)
    with pytest.raises(DomainError):
        GroupConnection("charge", 0, 1)
    with pytest.raises(DomainError):
        GroupConnection("float", 1, 0)
    with pytest.raises(DomainError, match="non-negative"):
        GroupConnection("charge", -1, 0)


def test_topology_must_engage_something():
    bypass = GroupConnection("bypass", 0, 1)
    with pytest.raises(DomainError):
        Topology(False, (bypass, bypass))
    with pytest.raises(DomainError, match="at least one group"):
        Topology(False, ())
    Topology(True, (bypass,))  # source alone is fine


@st.composite
def valid_codes(draw):
    radix = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, radix**n - 1))
    family = list(spawn_codes(TargetRatio(m, radix, n)))
    return family[draw(st.integers(0, len(family) - 1))]


@given(valid_codes())
def test_topology_round_trips_the_value(code):
    topo = code_to_topology(code)
    value = Fraction(1 if topo.source_engaged else 0)
    for j, group in enumerate(topo.groups, start=1):
        sign = {"charge": -1, "discharge": 1, "bypass": 0}[group.mode]
        value += Fraction(sign * group.series_count, code.radix**j)
        if group.mode != "bypass":
            assert group.series_count + group.equalizer_count == code.radix - 1
    assert value == code.value


def test_topology_json_shape():
    data = code_to_topology(SignedDigitCode(1, (-1, 0, -1))).to_json_dict()
    assert data == {
        "source": True,
        "groups": [
            {"mode": "charge", "series": 1, "equalizers": 0},
            {"mode": "bypass", "series": 0, "equalizers": 1},
            {"mode": "charge", "series": 1, "equalizers": 0},
        ],
    }


def test_switch_vectors_match_the_board_table():
    for (a0, digits), bits in SWITCH_VECTORS.items():
        assert switch_states(SignedDigitCode(a0, digits)).as_bits() == bits


def test_switch_vectors_are_distinct_and_live():
    seen = set()
    for a0, digits in SWITCH_VECTORS:
        bits = switch_states(SignedDigitCode(a0, digits)).as_bits()
        assert bits.count("1") >= 1
        assert bits not in seen
        seen.add(bits)
    assert len(seen) == 24


def test_unmapped_codes_are_rejected():
    for a0, digits in UNMAPPED_CODES:
        code = SignedDigitCode(a0, digits)
        assert code.value in (Fraction(3, 8), Fraction(5, 8))
        with pytest.raises(UnsupportedCodeError):
            switch_states(code)


def test_switch_states_only_cover_the_three_capacitor_board():
    with pytest.raises(UnsupportedCodeError):
        switch_states(SignedDigitCode(0, (1, 1), radix=3))
    with pytest.raises(UnsupportedCodeError):
        switch_states(SignedDigitCode(0, (1, 0)))


def test_switch_states_validation():
    with pytest.raises(DomainError):
        SwitchStates((True,) * 11)
    with pytest.raises(DomainError):
        SwitchStates((False,) * 12)


def imported_modules(path: Path):
    """Every module a source file imports, and each name it imports from one as module.name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_topology_is_a_leaf():
    # the loop equation lives in linsolve; only the package re-exports the wiring
    sources = sorted(Path(sccforge.__file__).parent.glob("*.py"))
    importers = [
        path.stem
        for path in sources
        if any("topology" in name.split(".") for name in imported_modules(path))
    ]
    assert importers == ["__init__"]
