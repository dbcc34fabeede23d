import ast
from fractions import Fraction
from pathlib import Path

import pytest

import sccforge
from sccforge.errors import UnsupportedCodeError
from sccforge.numrep import SignedDigitCode
from sccforge.topology import switch_states

from golden import SWITCH_VECTORS, UNMAPPED_CODES


def test_switch_vectors_match_the_board_table():
    for (a0, digits), bits in SWITCH_VECTORS.items():
        assert switch_states(SignedDigitCode(a0, digits)) == bits


def test_switch_vectors_are_distinct_and_live():
    seen = set()
    for a0, digits in SWITCH_VECTORS:
        bits = switch_states(SignedDigitCode(a0, digits))
        assert len(bits) == 12 and set(bits) <= {"0", "1"}
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


def imported_modules(path: Path):
    """Every module a source file imports, and each name it imports from one as module.name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_topology_is_a_leaf():
    # the loop equation lives in linsolve and the stack depth in lossmodel; only
    # the package re-exports the switch vectors
    sources = sorted(Path(sccforge.__file__).parent.glob("*.py"))
    importers = [
        path.stem
        for path in sources
        if any("topology" in name.split(".") for name in imported_modules(path))
    ]
    assert importers == ["__init__"]
