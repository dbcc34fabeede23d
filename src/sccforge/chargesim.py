"""Charge-redistribution simulation of a binary flying-capacitor bank.

Each slot connects the capacitors named by a code between the rails and lets
one packet of charge Q move instantaneously; switch and wire resistance only
shapes the current waveform, not where the voltages settle, so the lossless
step captures the steady state exactly. Cycling a code sequence drives the
bank to the voltages the loop equations pin, from any starting point.

This is the only module that uses numpy, and it imports numpy on the first
simulation rather than at import time, so the rest of the package starts on
the standard library alone.
"""

from __future__ import annotations

import math
from array import array
from itertools import count
from typing import TYPE_CHECKING, Sequence

from ._value import Value
from .errors import DomainError, require_finite, require_integer, require_positive
from .numrep import SignedDigitCode

if TYPE_CHECKING:
    import numpy as np


class BankState(Value):
    """Capacitances and present voltages of the bank."""

    __slots__ = _fields = ("flying_caps", "output_cap", "flying_voltages", "output_voltage")

    def __init__(self, flying_caps: tuple[float, ...], output_cap: float,
                 flying_voltages: tuple[float, ...], output_voltage: float) -> None:
        try:
            caps = require_positive("capacitances must be positive", *flying_caps, output_cap)
            # negative voltages are legitimate transients; non-finite are not
            volts = require_finite("voltages must be finite", *flying_voltages, output_voltage)
        except TypeError:  # only the unpacking raises it: the gate names a bad number
            raise DomainError("flying capacitances and voltages must each be a sequence") from None
        flying_caps, flying_voltages = caps[:-1], volts[:-1]
        if not flying_caps:
            raise DomainError("bank needs at least one flying capacitor")
        if len(flying_voltages) != len(flying_caps):
            raise DomainError("one voltage per flying capacitor")
        self._set(flying_caps, caps[-1], flying_voltages, volts[-1])

    @property
    def size(self) -> int:
        return len(self.flying_caps)


class SimTrace(Value):
    """Per-slot history of a simulation run.

    buffer holds the slots one after another, each as n + 2 doubles: V1..Vn
    and Vo after the slot, then the charge Q it moved, so 8 * (n + 2) bytes
    per slot. run keeps these n + 2 values at the head of its float64 state
    vector and appends their bytes after each slot, so the buffer holds the
    doubles LAPACK returned, bit for bit. records views the buffer without a
    copy, one row of n + 2 doubles a slot, or () when no slot ran.
    periods counts the full passes of the sequence that ran.
    adjustment_iterations counts the slots executed before the first period
    whose boundary-to-boundary voltage change stayed below tolerance; None
    when the run never converged.
    """

    __slots__ = _fields = ("buffer", "periods", "converged", "adjustment_iterations", "final_state")

    def __init__(self, buffer: array, periods: int, converged: bool,
                 adjustment_iterations: int | None, final_state: BankState) -> None:
        self._set(buffer, periods, converged, adjustment_iterations, final_state)

    @property
    def records(self) -> memoryview | tuple[()]:
        width = self.final_state.size + 2
        view = memoryview(self.buffer).cast("B")  # cast refuses a zero in the shape, hence ()
        return view.cast("d", (len(self.buffer) // width, width)) if self.buffer else ()


def _slot_matrix(state: BankState, code: SignedDigitCode) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check that code can drive the bank; return its slot matrix and what it writes.

    The matrix depends only on the capacitances and the code. Its unknowns
    are the engaged voltages, then the output voltage, then Q; the indices
    returned are the positions in (V1 .. Vn, Vo) that those voltages replace.
    """
    if code.radix != 2:
        raise DomainError("redistribution model covers radix 2 banks only")
    if code.resolution != state.size:
        raise DomainError("code resolution does not match the bank")
    engaged = [j for j, d in enumerate(code.digits) if d != 0]
    if not engaged and not code.a0:
        raise DomainError("code engages nothing")
    import numpy as np

    e = len(engaged)
    a = np.zeros((e + 2, e + 2))
    for row, j in enumerate(engaged):
        a[row, row] = 1.0
        a[row, e + 1] = code.digits[j] / state.flying_caps[j]
        a[e + 1, row] = code.digits[j]
    a[e, e] = 1.0
    a[e, e + 1] = -1.0 / state.output_cap
    a[e + 1, e] = -1.0
    return a, (*engaged, state.size)


def run(
    state: BankState,
    sequence: Sequence[SignedDigitCode],
    vin: float,
    tol: float | None = None,
    max_periods: int = 500,
) -> SimTrace:
    """Cycle the code sequence until the bank settles or the budget runs out.

    Convergence is judged at period boundaries: the largest voltage change
    over one full pass of the sequence must drop below tol (default
    1e-9 * |vin|, so tol is required when vin is 0). A run that exhausts
    max_periods returns its trace with converged False rather than raising;
    one whose voltages overflow raises at the end of that period. Every code
    is checked against the bank once per run, before the first slot, so an
    unsupported code raises even when max_periods is 0.
    """
    seq = tuple(sequence)
    if not seq:
        raise DomainError("empty code sequence")
    (vin,) = require_finite(f"vin must be finite, got {vin!r}", vin)
    if tol is None:
        if vin == 0:
            raise DomainError("the default tolerance scales with vin; give tol when vin is 0")
        tol = 1e-9 * abs(vin)
    (tol,) = require_positive("tolerance must be positive", tol)
    max_periods = require_integer("max_periods", max_periods)
    if max_periods < 0:
        raise DomainError("max_periods must be non-negative")
    import numpy as np
    from numpy.linalg import _umath_linalg

    # The LAPACK gufunc np.linalg.solve dispatches to for a 1-D right-hand
    # side. Called directly on float64 arrays, which pick its double loop, a
    # slot skips the wrapper's per-call array conversion, dtype resolution
    # and errstate entry, and gets the same bits.
    solve = _umath_linalg.solve1
    n = state.size
    # The bank lives in one float64 vector s: V1 .. Vn, Vo, the last slot's Q,
    # then one drive -a0 * vin per distinct code. Two index arrays per code,
    # built once: gather picks the right-hand side (engaged voltages, Vo,
    # drive) out of s, scatter writes the solution (engaged voltages, Vo, Q)
    # back, and the slot's trace entry is the bytes of s[:n + 2]. These copy
    # doubles without arithmetic, so LAPACK sees the matrix and right-hand
    # side a loop over Python floats would build, and the bits are the same.
    # The matrix stays reduced to the engaged capacitors: with identity rows
    # for the bypassed ones it solves the same equations, but from n = 8 up
    # LAPACK then runs other kernels and simulate's output bits change.
    codes = tuple(dict.fromkeys(seq))
    drives = (-code.a0 * vin for code in codes)
    s = np.array([*state.flying_voltages, state.output_voltage, 0.0, *drives], float)
    steps = {}
    for k, code in enumerate(codes):
        a, written = _slot_matrix(state, code)
        steps[code] = (a, np.array((*written, n + 2 + k), np.intp), np.array((*written, n + 1), np.intp))
    plan = [steps[code] for code in seq]
    record = memoryview(s[: n + 2]).cast("B")  # a view: it always holds the last slot
    buffer = array("d")
    volts = s[: n + 1].tolist()
    converged = False
    adjustment: int | None = None
    # LAPACK flags a singular matrix only at an exact zero pivot, and a slot
    # matrix's pivots are its identity rows and -(sum d_j**2/C_j + 1/C_o), never
    # 0; solve1 clears the float status, so overflow meets only the finite check.
    for period in range(1, max_periods + 1):
        before = volts
        for a, gather, scatter in plan:
            s[scatter] = solve(a, s[gather])
            buffer.frombytes(record)
        volts = s[: n + 1].tolist()
        if not all(map(math.isfinite, volts)):
            raise DomainError(f"the simulation left the float range in period {period}")
        if max(abs(x - y) for x, y in zip(volts, before)) < tol:
            converged = True
            adjustment = (period - 1) * len(seq)
            break
    final = BankState(state.flying_caps, state.output_cap, volts[:n], volts[n])
    periods = len(buffer) // ((n + 2) * len(seq))
    return SimTrace(buffer, periods, converged, adjustment, final)


def charge_locus(trace: SimTrace) -> list[tuple[float, float]]:
    """Polar footprint of the charge series: slot angle versus |Q|.

    With L slots a period, slot k maps to angle 2*pi*(k mod L)/L; a run stops
    only at a period boundary, so L is the trace's slot count over its
    periods. A settled bank collapses every spoke toward zero radius.
    """
    width = trace.final_state.size + 2
    charges = trace.buffer[width - 1 :: width]
    slots = len(charges) // trace.periods if charges else 1
    return [(2.0 * math.pi * (k % slots) / slots, abs(q)) for k, q in enumerate(charges)]


def trace_csv_lines(trace: SimTrace) -> list[str]:
    """The header iteration,V1..Vn,Vo,Q, then one row per slot; no newlines."""
    size = trace.final_state.size
    width = size + 2
    row = "%d," + ",".join(["%.12g"] * width)
    buf = trace.buffer
    return [
        ",".join(["iteration", *(f"V{j}" for j in range(1, size + 1)), "Vo", "Q"]),
        *map(row.__mod__, zip(count(), *(buf[j::width] for j in range(width)))),
    ]

