"""Independent reference computations the tests compare the package against.

These deliberately take different routes than the library: the dither oracle
enumerates every weight split instead of solving for the best one, the
redistribution oracle uses the closed-form charge expression instead of a
matrix solve, the elimination oracle works in Fractions where the library
kernel stays in integers, the LDO oracle scans the lattice the library
bisects, and the cell oracle tries every engagement mask for every sign
pattern where the library builds the code family digit by digit. Keep them
dumb.
"""

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


def ldo_select_by_scan(vin, vout, dropout, resolution, allow_step_up):
    """(m, step_up) of the lowest gain that lifts vin to vout + dropout, or None.

    Walks the step-down gains m/2**n upward, then the step-up gains 2**n/m
    upward (m downward), and stops at the first that clears the need.
    """
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
