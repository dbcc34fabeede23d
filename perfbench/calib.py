"""Calibrated clock: op latencies corrected for the host's speed at the time.

On a shared host the CPU runs slower at some times than at others, so raw
wall-clock latencies of the same code drift by tens of percent between runs.
Between ops the harness takes a calibration: the fastest of three runs of a
fixed kernel whose work mix is that of the library (exact Fraction
arithmetic, tuple building and a small numpy.linalg.solve). Each op's
latency is scaled by REF_MS / mean(the two calibrations that bracket it),
which expresses it in milliseconds of a host whose calibration reads REF_MS.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from typing import Sequence

import numpy as np

# Typical calibration on the reference host, recorded once when the benchmark
# was defined (2-core x86-64, Python 3.11.7, numpy 2.4.6). Never re-fitted:
# re-fitting would rescale every calibrated figure of every later run.
REF_MS = 0.8

# Reference-import time (setup_child.py reference) on the reference host.
# Set-up is import-bound, and the CPU kernel over-corrects it: on the
# reference host a slow phase stretches the kernel 1.8x but an import 1.35x.
REF_IMPORT_S = 0.05

# Kernel runs per calibration, about 2.5 ms in all.
REPEATS = 3

# Calibrate before an op once this long has passed since the last kernel ran.
INTERVAL_S = 0.05

_MATRIX = np.array(
    [[4.0, 1.0, 0.0, 1.0], [1.0, 4.0, 1.0, 0.0], [0.0, 1.0, 4.0, 1.0], [1.0, 0.0, 1.0, 4.0]]
)
_RHS = np.array([6.0, 6.0, 6.0, 6.0])  # solution is all ones


def _kernel() -> tuple[Fraction, float]:
    acc = Fraction(0)
    rows = []
    for i in range(1, 26):
        row = tuple(Fraction((i * j) % 7 - 3, j + 1) for j in range(6))
        rows.append(row)
        acc += sum(row, Fraction(0)) / i
    err = 0.0
    for _ in range(8):
        err = max(err, float(np.abs(np.linalg.solve(_MATRIX, _RHS) - 1.0).max()))
    return acc, err


_EXPECTED = _kernel()[0]


def run_kernel() -> float:
    """One calibration in milliseconds: the fastest of REPEATS kernel runs.

    The cyclic GC is paused, so a heap grown by the code under test cannot
    slow the kernel. Taking the fastest run drops a run that was preempted.
    """
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            acc, err = _kernel()
            times.append(time.perf_counter() - t0)
            if acc != _EXPECTED or err > 1e-12:
                raise RuntimeError("calibration kernel returned a wrong result")
    finally:
        if was_enabled:
            gc.enable()
    return min(times) * 1e3


class Clock:
    """Calibrations taken between ops, at most every INTERVAL_S."""

    def __init__(self) -> None:
        self.calibs_ms: list[float] = []
        self._last = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        self.calibs_ms.append(run_kernel())
        self._last = time.perf_counter()

    def before_op(self) -> int:
        """Calibrate if due; return the index of the calibration before the op."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.calibrate()
        return len(self.calibs_ms) - 1


def scale_factors(before: Sequence[int], calibs_ms: Sequence[float], ref_ms: float = REF_MS) -> list[float]:
    """Per-op factor REF / mean(calibration before, calibration after).

    before[i] indexes the last calibration taken before op i; the next one,
    before[i] + 1, is the first taken after it and must exist.
    """
    return [2.0 * ref_ms / (calibs_ms[b] + calibs_ms[b + 1]) for b in before]
