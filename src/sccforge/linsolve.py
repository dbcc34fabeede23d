"""Exact solving of the voltage-loop systems generated by code families.

Every code of a ratio contributes one loop equation over the per-capacitor
voltages x_1..x_n (in input-voltage units) and the output x_o. A complete
family pins all unknowns uniquely; the solution x_j = radix**-j, x_o = ratio
is what lets the bank self-adjust with no feedback. Solutions (or the ranks,
if singular), redundancy scores, the active schedule (the zero-sorted family
less its dependent rows) and its charge balance (the transposed system) all
come from one integer fraction-free Gauss-Jordan kernel, which moves no
row and names its pivot rows: a solution and the rows that depend on the
rows before them from one elimination of [A | b], the schedule and its
balance from one of the transposed system. Solve and balance read [A | b]
and [A transposed | e] the same way (_basic). Loop rows (kvl_row) are
built here as integers, and a KvlSystem is just A and b: step_up rewrites
the loop rows themselves. Fractions come only from the kernel's final
numerators and common denominator, and the redundancy test compares
integers. How the kernel packs its lines into ints is told once, in
fraction_free_rref.
"""

from __future__ import annotations

import struct
import sys
from fractions import Fraction
from itertools import chain
from typing import Sequence

from ._value import Value
from .errors import DomainError, SingularSystemError
from .numrep import CodeSet, SignedDigitCode, TargetRatio, check_family, spawn_codes

# the struct format of a machine int per field width in bytes
_TYPECODES = {struct.calcsize(code): code for code in "bhiq"}
_ORDER = sys.byteorder


class KvlSystem(Value):
    """Loop equations A x = b: the matrix and its right-hand side.

    Every matrix and rhs entry is an int, as loop equations of signed-digit
    codes are; the solutions are Fractions. Unknowns are labelled V1..Vn
    then Vo; the last matrix column always belongs to the output. Hand-built
    systems are checked; build_system and step_up skip the checks, which
    loop rows of codes of one radix and resolution always pass, a code's
    fields being ints, and so does step_up's rewrite of them.
    """

    __slots__ = _fields = ("matrix", "rhs")

    def __init__(self, matrix: tuple[tuple[int, ...], ...], rhs: tuple[int, ...]) -> None:
        matrix, rhs = tuple(map(tuple, matrix)), tuple(rhs)
        if not matrix:
            raise DomainError("a system needs at least one row")
        width = len(matrix[0])
        if width < 2:
            raise DomainError("a system needs at least two unknowns")
        if any(len(row) != width for row in matrix):
            raise DomainError("ragged matrix")
        if len(rhs) != len(matrix):
            raise DomainError("right-hand side length does not match the matrix")
        if not {int}.issuperset(map(type, chain(rhs, *matrix))):
            raise DomainError("matrix and rhs entries must be ints")
        self._set(matrix, rhs)

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def unknowns(self) -> int:
        return len(self.matrix[0])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"V{j}" for j in range(1, self.unknowns)) + ("Vo",)


def kvl_row(code: SignedDigitCode) -> tuple[tuple[int, ...], int]:
    """Loop row ((A_1 .. A_n, -1), -a0) of a code: sum_j A_j x_j - x_o = -a0 over V1..Vn, Vo."""
    return (*code.digits, -1), -code.a0


def build_system(codes: CodeSet | Sequence[SignedDigitCode]) -> KvlSystem:
    """One loop row (kvl_row) per code, in the order given.

    A CodeSet contributes its codes in canonical order; a plain sequence is
    taken verbatim so callers control the row order. All codes must share
    radix and resolution; the rows of such codes need no KvlSystem check.
    step_up rewrites these rows; the system keeps no codes.
    """
    seq = tuple(codes)
    if not seq:
        raise DomainError("no codes")
    if len({(code.radix, len(code.digits)) for code in seq}) > 1:
        raise DomainError("codes mix radix or resolution")
    rows, rhs = zip(*map(kvl_row, seq))
    return _system(rows, rhs)


def _system(matrix, rhs) -> KvlSystem:
    system = object.__new__(KvlSystem)
    system._set(matrix, rhs)
    return system


def fraction_free_rref(
    rows: Sequence[Sequence[int]], first_column: int = 0
) -> tuple[list[list[int]], list[int], int, list[int]]:
    """Reduced row echelon form of an integer matrix by fraction-free elimination (Bareiss 1968).

    Every pivot eliminates its column above and below; dividing by the
    previous pivot is exact because every entry stays a minor of the input.
    Columns go left to right, and no row ever moves. Pivot rule, for every
    shape: the column's nonzero entry in the lowest-index row without a
    pivot; the search stops once every row holds a pivot. Each pivot parks
    its pivot line as 0, which every update leaves 0, updates every line,
    and restores it, so the loop over lines needs no test for it. Returns
    (m, pivots, d, lead): the reduced row echelon form is m / d, its pivot
    rows first in pivot order, then the zero rows; pivots lists the pivot
    column and lead the input row of each pivot. m holds the columns from
    first_column on, so a solve unpacks only its right-hand side. The pivot
    rows are the input's first rows independent of the rows before them,
    every other row depends on the rows before it, and |d| is the
    |determinant| of the pivot rows at the pivot columns.

    Each row is held as one int, the sum of a_j * 2**(k*j) (Kronecker
    substitution), so a row update is three big-int operations and reading
    one entry is a biased shift and mask. With r = min(rows, cols), every
    entry kept is a minor of order at most r, bounded by Hadamard's
    r**(r/2) * max|a|**r; k holds that bound and its sign, so every field
    decodes exactly for any ints. The product p*row - f*top may overflow
    its fields, but it is exact as one int and is divided exactly by prev
    before anything is read back. Raises DomainError for an empty or ragged
    matrix.

    A tall matrix (at least as many rows as columns) is packed by column
    instead, row i in field i, so a pivot costs one update per column, not
    per row. A mask, free, holds the fields of the rows without a pivot; the
    pivot row is the lowest nonzero field of the pivot column under it, read
    off its lowest set bit. Every pivot updates every column j as
    (p*c_j - t_j*c_col) // prev, t_j its field in the pivot row, with c_col
    less prev in that field so that the update puts t_j back; the pivot
    column becomes p there and 0 elsewhere.

    k is a whole number of bytes: the smallest of 1, 2, 4 or 8 that holds
    the bound, else as many as it needs. So a line's int is its fields as
    bytes, and lines pack and unpack through bytes in time linear in their
    width. Fields of 1 to 8 bytes pack as machine ints through struct.pack
    and unpack through a memoryview cast; wider ones, met only with huge
    entries, through int.to_bytes per field.
    The bytes are two's complement, and bias, half in every field, converts
    to and from the signed sum: packed = (u ^ bias) - bias, u = (packed +
    bias) ^ bias.
    """
    if not rows or not rows[0]:
        raise DomainError("empty matrix")
    nrows, ncols = len(rows), len(rows[0])
    if len(set(map(len, rows))) > 1:
        raise DomainError("ragged matrix")
    tall = nrows >= ncols
    lines = list(zip(*rows)) if tall else rows  # the side that is packed, one int each
    fields = len(lines[0])
    order = min(nrows, ncols)
    flat = list(chain.from_iterable(lines))
    big = max(map(abs, flat))
    bits = ((order**order * big ** (2 * order)).bit_length() + 1) // 2 + 1
    width = -(-bits // 8)
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    code = _TYPECODES.get(width)
    k = 8 * width
    half, mask = 1 << (k - 1), (1 << k) - 1
    bias = half * (((1 << (k * fields)) - 1) // mask)
    if code:
        data = struct.pack(f"{len(flat)}{code}", *flat)
    else:
        data = b"".join([a.to_bytes(width, _ORDER, signed=True) for a in flat])
    size = width * fields
    m = [(int.from_bytes(data[i : i + size], _ORDER) ^ bias) - bias for i in range(0, len(data), size)]
    pivots: list[int] = []
    lead: list[int] = []  # the pivot row of each pivot
    # the rows without a pivot: tall, their fields as a mask; wide, their indices in order
    free = (1 << (k * nrows)) - 1 if tall else list(range(nrows))
    prev = 1
    for col in range(ncols):
        if tall:
            # the pivot column as unsigned fields, masked to the free rows: a field is nonzero iff its entry is
            live = ((m[col] + bias) ^ bias) & free
            if not live:
                continue
            row = ((live & -live).bit_length() - 1) // k
            shift = k * row
            free ^= mask << shift
            p = ((m[col] + bias) >> shift & mask) - half
            # top has prev less in the pivot row's field, so every update puts that field back
            line, top, keep = col, m[col] - (prev << shift), p << shift
        else:
            shift = k * col
            # the free rows are zero left of col, so no borrow reaches field col
            for row in free:
                if m[row] >> shift & mask:
                    break
            else:
                continue
            free.remove(row)
            line, top, keep = row, m[row], m[row]
            p = ((top + bias) >> shift & mask) - half
        lead.append(row)
        m[line] = 0  # parked: every update leaves it 0
        for i, x in enumerate(m):
            f = ((x + bias) >> shift & mask) - half
            if f:
                m[i] = (p * x - f * top) // prev
            elif p != prev:
                m[i] = p * x // prev
        m[line] = keep
        prev = p
        pivots.append(col)
        if not free:
            break
    # every row without a pivot has been eliminated to zeros
    if tall:
        m, shift, span = m[first_column:], 0, nrows
    else:
        m, shift, span = map(m.__getitem__, lead + free), k * first_column, ncols - first_column
    tail = bias >> shift
    data = b"".join([(((packed + bias) >> shift) ^ tail).to_bytes(width * span, _ORDER) for packed in m])
    if code:
        flat = memoryview(data).cast(code).tolist()
    else:
        flat = [int.from_bytes(data[i : i + width], _ORDER, signed=True) for i in range(0, len(data), width)]
    if tall:
        return [flat[i::nrows] for i in lead] + [[0] * len(m) for _ in range(nrows - len(lead))], pivots, prev, lead
    return [flat[i : i + span] for i in range(0, len(flat), span)], pivots, prev, lead


def _basic(rows: list[list[int]]) -> tuple[list[int], tuple[Fraction, ...] | None, list[int]]:
    """Pivot columns of [M | r] left of r, the basic solution at them (None if r pivots), the pivot rows."""
    width = len(rows[0]) - 1
    m, pivots, d, lead = fraction_free_rref(rows, width)
    if pivots and pivots[-1] == width:
        return pivots[:-1], None, lead
    return pivots, tuple(Fraction(row[0], d) for row in m[: len(pivots)]), lead


def solve_with_dependents(system: KvlSystem) -> tuple[tuple[Fraction, ...], list[int]]:
    """Exact solution (V1..Vn, Vo) and the 0-based rows that depend on the rows before them.

    Both come from one elimination of [A | b]: the dependent rows are the
    rows without a pivot, whichever side the kernel packs. For a code
    family's loop system or its step_up these are the find_redundant rows,
    as the system is consistent and no code of a family is a convex mix of
    others (schedule_currents).
    SingularSystemError with the ranks unless the solution is unique.
    """
    pivots, solution, lead = _basic([[*row, b] for row, b in zip(system.matrix, system.rhs)])
    if solution is None or len(pivots) < system.unknowns:
        ranks = f"rank(A) = {len(pivots)}, rank([A|b]) = {len(pivots) + (solution is None)}"
        raise SingularSystemError(f"system is not uniquely solvable: {ranks}, unknowns = {system.unknowns}")
    return solution, sorted(set(range(system.rows)).difference(lead))


def solve_unique(system: KvlSystem) -> tuple[Fraction, ...]:
    """Exact solution (V1..Vn, Vo), solve_with_dependents' first answer; SingularSystemError unless unique."""
    return solve_with_dependents(system)[0]


def _dependence(system: KvlSystem) -> tuple[list[int], int]:
    """Column sums of |rref(A transposed)| numerators, and |d|: one per row."""
    m, _, d, _ = fraction_free_rref(list(zip(*system.matrix)))
    return list(map(sum, zip(*[map(abs, row) for row in m]))), abs(d)


def redundancy_scores(system: KvlSystem) -> tuple[Fraction, ...]:
    """Per-row dependence scores: column sums of |rref(A transposed)|.

    A pivot row scores 1; a dependent row, the sum of |weights| of the pivot
    rows that make it: 1 for a repeat or a convex mix of rows, which
    find_redundant therefore keeps. No row of one family is either.
    """
    sums, d = _dependence(system)
    return tuple(Fraction(s, d) for s in sums)


def find_redundant(system: KvlSystem) -> list[int]:
    """0-based indices of the rows whose redundancy score is above 1: not every dependent row."""
    sums, d = _dependence(system)
    return [i for i, s in enumerate(sums) if s > d]


def sort_codes_by_zeros(codes: CodeSet | Sequence[SignedDigitCode]) -> list[SignedDigitCode]:
    """Codes sorted by descending count of zero digits; ties keep input order.

    Rows whose codes idle more capacitors end up first, which is the order
    measurement tables are reported in.
    """
    return sorted(codes, key=lambda c: -c.digits.count(0))


def _tableau(seq: Sequence[SignedDigitCode]) -> tuple[list[int], tuple[Fraction, ...]]:
    """_basic over [A transposed | e]: A is the loop matrix of seq, e is 0 per capacitor, -1 for Vo.

    The one place that decides balance: SingularSystemError if e pivots.
    """
    rows = [[*col, 0] for col in zip(*(code.digits for code in seq))]
    rows.append([-1] * (len(seq) + 1))
    pivots, currents, _ = _basic(rows)
    if currents is None:
        raise SingularSystemError("no current assignment balances these codes")
    return pivots, currents


def schedule_currents(
    codes_or_ratio: TargetRatio | CodeSet | Sequence[SignedDigitCode],
) -> tuple[list[SignedDigitCode], tuple[Fraction, ...]]:
    """The active schedule and its current_balance, from one elimination.

    A TargetRatio is expanded with spawn_codes; other codes must be one
    family (check_family). Of the zero-sorted codes, the pivot columns of
    [A transposed | e] are the schedule. Every loop row ends in -1, so a
    dependent column is an affine combination of pivot columns, and its
    find_redundant score is 1 only if the combination is convex. No code of
    a family is a convex mix of others: codes that agree below digit j take
    digit j from the same two values. So find_redundant flags exactly the
    non-pivot columns. SingularSystemError if no currents balance the schedule.
    """
    if isinstance(codes_or_ratio, TargetRatio):
        codes_or_ratio = spawn_codes(codes_or_ratio)
    else:
        check_family(codes_or_ratio)
    ordered = sort_codes_by_zeros(codes_or_ratio)
    pivots, currents = _tableau(ordered)
    return [ordered[j] for j in pivots], currents


def current_balance(codes: CodeSet | Sequence[SignedDigitCode]) -> tuple[Fraction, ...]:
    """Slot currents, in output-current units, that balance every capacitor.

    Over one period each capacitor group must shed exactly the charge it
    takes on, and a digit d moves d units of it: for position k, sum over
    slots of A_k * I_k = 0, with the discharge direction counted positive;
    the currents sum to the output current, so the input delivers ratio *
    I_o (sum of a0 * I_k == ratio). The balance is build_system(codes)
    transposed, with right-hand side 0 for each V_k column and -1 for the
    Vo column (Tellegen's theorem); its rows are read straight off the
    digits. Solved exactly; a negative entry means the slot runs charge
    backward (legitimate for some schedules). The codes must be one family
    (check_family), ACTIVE slots only; with a dependent slot left the error
    names the tableau's non-pivot columns, in one family the find_redundant rows.
    """
    check_family(codes)
    pivots, currents = _tableau(codes)
    if len(pivots) < len(codes):
        raise SingularSystemError(
            "charge balance is underdetermined; eliminate dependent slots first "
            f"(candidate row indices, 0-based: {[j for j in range(len(codes)) if j not in pivots]})"
        )
    return currents


def step_up(system: KvlSystem) -> KvlSystem:
    """The reciprocal-ratio system of the same loops.

    Rewriting each loop around the output instead of the source turns loop
    row (A_1..A_n, -1 | -a0) (kvl_row) into (A_1..A_n, a0 | 1); the solution
    then reads voltages in output units and Vo becomes the reciprocal ratio.
    Any system whose rows all have Vo coefficient -1 has that layout.
    """
    if any(row[-1] != -1 for row in system.matrix):
        raise DomainError("step_up needs loop rows, each with Vo coefficient -1")
    rows = tuple((*row[:-1], -b) for row, b in zip(system.matrix, system.rhs))
    return _system(rows, (1,) * len(rows))
