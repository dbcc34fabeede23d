"""Board switch vectors for the codes of the radix-2, three-capacitor bank.

A digit A_j decides what capacitor group j does during a redistribution
slot: charge toward the input rail (A_j < 0), discharge into the output
(A_j > 0), or sit bypassed (A_j == 0). For the standard double-bridge board
the switch vector that realizes each code is tabulated below. A code's
voltage-loop equation is linsolve's (kvl_row), and its stack depth is
lossmodel's (build_req_spec).
"""

from __future__ import annotations

from .errors import UnsupportedCodeError
from .numrep import SignedDigitCode

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
    (int(a0), (int(d1), int(d2), int(d3))): bits
    for a0, d1, d2, d3, bits in map(str.split, _SWITCH_TABLE_TEXT.splitlines())
}


def switch_states(code: SignedDigitCode) -> str:
    """Board switch vector, S1..S12 as 1 (closed) or 0 (open), of a radix-2 three-capacitor code."""
    if code.radix != 2 or code.resolution != 3:
        raise UnsupportedCodeError(
            "switch vectors exist only for the radix-2 three-capacitor board"
        )
    try:
        return _SWITCH_TABLE[(code.a0, code.digits)]
    except KeyError:
        raise UnsupportedCodeError(
            f"code {code.to_text()!r} has no switch vector on this board"
        ) from None
