"""Independent reference computations the tests compare the package against.

These deliberately take different routes than the library: the dither oracle
enumerates every weight split instead of solving for the best one, the
redistribution oracle uses the closed-form charge expression instead of a
matrix solve, the loss oracle prices a slot by the two-capacitor formula
where the simulator only moves charge, the elimination oracle works in
Fractions where the library kernel stays in integers, the pivot-row oracle
keeps each row that raises the rank of the rows before it where the kernel
reads its pivot rows off one elimination, the schedule oracle
drops the dependent rows and then balances what is left where the library
reads both off one elimination, the LDO oracle scans the lattice the library
solves in closed form, and the cell oracle tries every engagement mask for
every sign pattern where the library builds the code family digit by digit,
the balanced oracle scans the family for each row's first fit where the
library reads the rows off a binary phase accumulator, the accumulator
oracle takes the family as the steps of a radix-r accumulator from all of
its states where the library builds it digit by digit, and the run oracle
builds each slot's right-hand side as a list and scatters the solution back
voltage by voltage where the library picks both through index maps built
once per code, the resistance oracle reads every Fraction through float() where the library
divides its integers, and the follower oracle prices the two-phase follower
by its closed form where the library sums it over two slots, and the coth
oracle works in 40-digit decimals where the library's coth works in floats.
Keep them dumb.
"""

import math
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction


def brute_force_dither(target: Fraction, resolution: int, max_period: int):
    """Best (ratios, weights) by exhaustive scan; restates the selection rules independently.

    Minimize |average - target|, break ties by smaller period, then lower
    average. Returns ((m,) or (m_lo, m_hi), weights) over denominator 2**n.
    """
    denom = 2**resolution
    scaled = target * denom
    if scaled.denominator == 1:
        return (int(scaled),), (1,)
    m_lo = int(scaled)
    best = None
    for period in range(1, max_period + 1):
        for k in range(period + 1):
            average = Fraction(period * m_lo + k, period * denom)
            key = (abs(target - average), period, average)
            if best is None or key < best[0]:
                best = (key, period, k)
    _, period, k = best
    if k == 0:
        return (m_lo,), (1,)
    if k == period:
        return (m_lo + 1,), (1,)
    return (m_lo, m_lo + 1), (period - k, k)


def closed_form_step(caps, cout, v_flying, v_out, a0, digits, vin):
    """One redistribution slot via the scalar charge formula.

    Q = (a0*vin + sum_j A_j V_j - V_o) / (sum_j A_j**2 / C_j + 1 / C_o);
    engaged capacitors move to V_j - A_j*Q/C_j, the output to V_o + Q/C_o.
    """
    num = a0 * vin - v_out
    den = 1.0 / cout
    for c, v, d in zip(caps, v_flying, digits):
        if d:
            num += d * v
            den += d * d / c
    q = num / den
    new_flying = [
        v - d * q / c if d else v for c, v, d in zip(caps, v_flying, digits)
    ]
    return new_flying, v_out + q / cout, q


def redistribution_loss(c1, c2, dv):
    """Energy burned equalizing two capacitors that start dv apart.

    Independent of the loop resistance: the series capacitance times dv**2 / 2.
    c2 = inf models a stiff rail, where the loss becomes c1 * dv**2 / 2.
    """
    series = c1 if math.isinf(c2) else c1 * c2 / (c1 + c2)
    return series * dv * dv / 2.0


def rational_rref(rows):
    """Reduced row echelon form and pivot columns by Gauss-Jordan over Fractions.

    Pivot rule: columns left to right, smallest available row index; no
    magnitude pivoting is needed in exact arithmetic.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        row = len(pivots)
        piv = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
    return m, pivots


def first_independent_rows(rows):
    """Indices of the rows that raise the rank of the rows kept before them, by rational_rref."""
    kept = []
    for i, row in enumerate(rows):
        if len(rational_rref([rows[j] for j in kept] + [row])[1]) > len(kept):
            kept.append(i)
    return kept


def determinant(rows):
    """Determinant of a square matrix by Gaussian elimination over Fractions; 1 if it is empty."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            factor = m[i][col] / m[col][col]
            m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det


def two_elimination_schedule(codes, dropped):
    """Active schedule and its currents by two eliminations, the second over Fractions.

    dropped holds the rows find_redundant flags in the loop system of codes;
    the other codes, in order, are the schedule. Its charge balance (per
    capacitor, the digit-weighted currents sum to 0; the currents sum to 1)
    goes through rational_rref. Currents are None unless that system has
    exactly one solution.
    """
    active = [code for i, code in enumerate(codes) if i not in set(dropped)]
    rows = [[*col, 0] for col in zip(*(code.digits for code in active))]
    rows.append([1] * (len(active) + 1))
    m, pivots = rational_rref(rows)
    if pivots != list(range(len(active))):
        return active, None
    return active, tuple(m[i][-1] for i in range(len(active)))


def matched_cells_by_scan(n):
    """Balanced-schedule cells of every m/2**n, by trying every mask for every sign pattern.

    For sign pattern j (bit set: that digit is negative) and engagement mask
    i, the code's numerator is summed digit by digit; it matches m with
    a0 = 0 when it equals m, and with a0 = 1 when it equals m - 2**n. Returns
    {m: [(a0, digits), ...]} with one cell per sign pattern, in pattern order,
    and checks that each pattern matches exactly one mask for every m.
    """
    size = 1 << n
    rows = [[(i >> (n - 1 - k)) & 1 for k in range(n)] for i in range(size)]
    cells = {m: [None] * size for m in range(1, size)}
    for j, sign in enumerate(rows):
        for mask in rows:
            digits = tuple((-1 if sign[k] else 1) * mask[k] for k in range(n))
            f = sum(d << (n - 1 - k) for k, d in enumerate(digits))
            m, a0 = (f, 0) if f > 0 else (f + size, 1)
            if m not in cells:
                continue
            assert cells[m][j] is None, "sign pattern matched two masks"
            cells[m][j] = (a0, digits)
    assert all(None not in found for found in cells.values()), "sign pattern matched no mask"
    return cells


def balanced_by_scan(family):
    """The balanced schedule's rows, each found by scanning the family for its first fit.

    A row takes the first code in canonical order that has copies left (it
    starts with 2**zero_count) and engages no capacitor with the sign that
    capacitor was last engaged with.
    """
    order = family.codes
    left = [1 << c.zero_count for c in order]
    # bit k stands for capacitor k: pos[i] and neg[i] hold the capacitors code i
    # engages with each sign, up and down those last engaged with each sign
    pos = [sum(1 << k for k, d in enumerate(c.digits) if d > 0) for c in order]
    neg = [sum(1 << k for k, d in enumerate(c.digits) if d < 0) for c in order]
    up = down = 0
    seq = []
    for _ in range(1 << family.ratio.resolution):
        i = next(i for i in range(len(order)) if left[i] and not (pos[i] & up or neg[i] & down))
        left[i] -= 1
        up = up & ~neg[i] | pos[i]
        down = down & ~pos[i] | neg[i]
        seq.append(order[i])
    return seq


def family_by_accumulator(ratio):
    """The code family of m/r**n as (a0, digits) pairs: every step of a radix-r phase accumulator.

    From each of the r**n states x, adding m gives a0 = the carry out of
    x + m and digit k = digit_k(x + m mod r**n) - digit_k(x), k = 1 the most
    significant.
    """
    r, n, m = ratio.radix, ratio.resolution, ratio.m
    size = r**n

    def digits(x):
        return [x // r ** (n - k) % r for k in range(1, n + 1)]

    family = set()
    for x in range(size):
        carry, y = divmod(x + m, size)
        family.add((carry, tuple(b - a for a, b in zip(digits(x), digits(y)))))
    return family


def ldo_select_by_scan(vin, vout, dropout, resolution, allow_step_up):
    """(m, step_up) of the lowest gain that lifts vin to vout + dropout, or None.

    Walks the step-down gains m/2**n upward, then the step-up gains 2**n/m
    upward (m downward), and stops at the first that clears the need.
    Each voltage is read at its printed value and compared exactly.
    """
    vin, vout, dropout = (Fraction(str(x)) for x in (vin, vout, dropout))
    need = vout + dropout
    denom = 2**resolution
    for m in range(1, denom):
        if Fraction(m, denom) * vin >= need:
            return m, False
    if allow_step_up:
        for m in range(denom - 1, 0, -1):
            if Fraction(denom, m) * vin >= need:
                return m, True
    return None


def float_fraction_req_multi(spec):
    """lossmodel.req_multi's loop with every Fraction read through float().

    Same coth as the library, and int true division rounds correctly as
    float() of a Fraction does, so the results must agree bit for bit.
    """
    from sccforge.lossmodel import _coth

    beta = float(spec.t_over_ts) / spec.f_s / (spec.switches_per_loop * spec.r_on * spec.c)
    total = 0.0
    for current, stack in spec.slots:
        share = float(current) ** 2
        half_period_cap = 1.0 / (2.0 * spec.f_s * spec.c * float(Fraction(1, stack)))
        total += share * half_period_cap * _coth(stack * beta / 2.0)
    return total


def follower_req(f_s, c, beta1, beta2):
    """Two-phase single-capacitor follower, (coth(beta1/2) + coth(beta2/2)) / (2 f_s C).

    The closed form, with no input checks; req_multi reaches it as a sum over
    two slots. Same coth as the library, so the two agree to rounding.
    """
    from sccforge.lossmodel import _coth

    return (_coth(beta1 / 2.0) + _coth(beta2 / 2.0)) / (2.0 * f_s * c)


def decimal_coth(x: float) -> Decimal:
    """coth x = (exp(2x) + 1) / (exp(2x) - 1) to 40 significant digits.

    Worked at 60 digits: exp(2x) - 1 cancels about 7 of them at x = 1e-7.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        e = (2 * Decimal(x)).exp()
        ratio = (e + 1) / (e - 1)
        ctx.prec = 40
        return +ratio


def trace_rows(trace):
    """A run's trace as rows (iteration, V1..Vn, Vo, Q), one per slot, unpacked from its buffer."""
    width = trace.final_state.size + 2
    buf = trace.buffer
    return [(i, *buf[k : k + width]) for i, k in enumerate(range(0, len(buf), width))]


def reference_run(state, sequence, vin, tol, max_periods):
    """chargesim.run's slot loop with per-slot list building and scatter.

    Same slot matrices and LAPACK kernel as the library, so the results must
    agree bit for bit. Returns (buffer, periods, converged,
    adjustment_iterations, volts) with volts the final V1..Vn, Vo, unchecked.
    """
    from numpy.linalg import _umath_linalg

    from sccforge.chargesim import _slot_matrix

    plan = [(*_slot_matrix(state, code), -code.a0 * vin) for code in sequence]
    volts = [*state.flying_voltages, state.output_voltage]
    buffer = array("d")
    converged, adjustment = False, None
    for period in range(1, max_periods + 1):
        before = list(volts)
        for a, written, drive in plan:
            rhs = [volts[i] for i in written] + [drive]
            solution = _umath_linalg.solve1(a, rhs, signature="dd->d").tolist()
            for i, v in zip(written, solution):
                volts[i] = v
            buffer.extend(volts)
            buffer.append(solution[-1])
        if not all(map(math.isfinite, volts)):
            break
        if max(abs(x - y) for x, y in zip(volts, before)) < tol:
            converged, adjustment = True, (period - 1) * len(plan)
            break
    return buffer, len(buffer) // ((len(volts) + 1) * len(plan)), converged, adjustment, volts
