"""Mapping from signed-digit codes to capacitor bank topologies.

A digit A_j decides what capacitor group j does during a redistribution
slot: charge toward the input rail (A_j < 0), discharge into the output
(A_j > 0), or sit bypassed (A_j == 0). |A_j| capacitors of the group go in
series; the group's remaining radix - 1 - |A_j| units idle on equalizing
switches so their voltages track. For the standard double-bridge board
(radix 2, three flying capacitors) the per-code switch vectors are
tabulated below. A code's voltage-loop equation is linsolve's (kvl_row);
this module holds only the wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, UnsupportedCodeError
from .numrep import SignedDigitCode

Mode = Literal["charge", "discharge", "bypass"]

SWITCH_COUNT = 12


@dataclass(frozen=True)
class GroupConnection:
    """How one capacitor group is wired during a slot."""

    mode: Mode
    series_count: int
    equalizer_count: int

    def __post_init__(self) -> None:
        if self.mode not in ("charge", "discharge", "bypass"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.series_count < 0 or self.equalizer_count < 0:
            raise DomainError("counts must be non-negative")
        # bypass is exactly the zero-series connection
        if (self.mode == "bypass") != (self.series_count == 0):
            raise DomainError("bypass and series_count == 0 must coincide")

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "series": self.series_count,
            "equalizers": self.equalizer_count,
        }


@dataclass(frozen=True)
class Topology:
    """Full slot wiring: source bit plus one connection per group."""

    source_engaged: bool
    groups: tuple[GroupConnection, ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise DomainError("a topology needs at least one group")
        if not self.source_engaged and all(g.mode == "bypass" for g in self.groups):
            raise DomainError("nothing is engaged")

    def to_json_dict(self) -> dict:
        return {
            "source": self.source_engaged,
            "groups": [g.to_json_dict() for g in self.groups],
        }


@dataclass(frozen=True)
class SwitchStates:
    """Closed/open pattern of the 12 board switches, S1 first."""

    states: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(bool(s) for s in self.states))
        if len(self.states) != SWITCH_COUNT:
            raise DomainError(f"expected {SWITCH_COUNT} switch states, got {len(self.states)}")
        if not any(self.states):
            raise DomainError("all switches open")

    def as_bits(self) -> str:
        return "".join("1" if s else "0" for s in self.states)


def code_to_topology(code: SignedDigitCode) -> Topology:
    """Wiring implied by a code: sign picks the mode, magnitude the stack depth."""
    r = code.radix
    groups = []
    for d in code.digits:
        if d == 0:
            groups.append(GroupConnection("bypass", 0, r - 1))
        else:
            mode: Mode = "charge" if d < 0 else "discharge"
            groups.append(GroupConnection(mode, abs(d), r - 1 - abs(d)))
    return Topology(bool(code.a0), tuple(groups))


# Known-good switch vectors for the standard double-bridge board, radix 2,
# three flying capacitors. The wiring is tabulated, not derived; two codes
# of the family ({0; 1,-1,1} and {0; 1,1,-1}) have no board vector and are
# rejected. Columns: a0 d1 d2 d3 bits(S1..S12).
_SWITCH_TABLE_TEXT = """\
0 0 0 1 000011000110
0 0 1 -1 000011100001
0 0 1 0 000011100010
0 0 1 1 000011010010
0 1 -1 -1 010001001001
0 1 -1 0 010001000101
0 1 0 -1 010001100001
0 1 0 0 010001100010
0 1 0 1 001001000110
0 1 1 0 001001100010
0 1 1 1 001001010010
1 -1 -1 -1 100100001001
1 -1 -1 0 100100000101
1 -1 -1 1 100100000110
1 -1 0 -1 100010001001
1 -1 0 0 100010000101
1 -1 0 1 100010000110
1 -1 1 -1 100010100001
1 -1 1 0 100010100010
1 -1 1 1 100010010010
1 0 -1 -1 110000001001
1 0 -1 0 110000000101
1 0 -1 1 110000000110
1 0 0 -1 110000100001
"""

_SWITCH_TABLE = {
    (int(a0), (int(d1), int(d2), int(d3))): tuple(b == "1" for b in bits)
    for a0, d1, d2, d3, bits in map(str.split, _SWITCH_TABLE_TEXT.splitlines())
}


def switch_states(code: SignedDigitCode) -> SwitchStates:
    """Board switch vector for a code of the radix-2, three-capacitor family."""
    if code.radix != 2 or code.resolution != 3:
        raise UnsupportedCodeError(
            "switch vectors exist only for the radix-2 three-capacitor board"
        )
    try:
        return SwitchStates(_SWITCH_TABLE[(code.a0, code.digits)])
    except KeyError:
        raise UnsupportedCodeError(
            f"code {code.to_text()!r} has no switch vector on this board"
        ) from None
