"""Acceptance suite: one test per headline claim, one PASS/FAIL line each.

Each test prints its verdict on the terminal even under capture so a full run
reads as a checklist. Tolerances are pinned here and nowhere else; a failure
means the package no longer reproduces the reference behavior.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from sccforge.chargesim import BankState, run
from sccforge.errors import UnsupportedCodeError
from sccforge.linsolve import (
    build_system,
    find_redundant,
    redundancy_scores,
    schedule_currents,
    solve_unique,
    step_up,
)
from sccforge.lossmodel import (
    ReqSpec,
    build_req_spec,
    extract_req,
    load_line_fit,
    req_multi,
    req_zero_beta_multiplier,
    vo_under_load,
)
from sccforge.numrep import SignedDigitCode, TargetRatio, enumerate_codes, spawn_codes
from sccforge.regulation import DitherPlan, dither_average, dither_plan
from sccforge.topology import switch_states

from golden import (
    CODE_FAMILY_R2_N3,
    CODE_FAMILY_R3_N2,
    CONVERGENCE_CASES,
    CONVERGENCE_TARGET,
    CURRENT_CAP_TABLE,
    DEPENDENT_ROW_ORDER_38,
    LOAD_RO,
    REQ_COLUMN,
    REQ_FLOOR,
    REQ_OPERATING,
    SWITCH_VECTORS,
    ZEROSORT_R2_N3,
)
from oracles import brute_force_dither

F = Fraction
VIN = 8.0


def report(capsys, num: int, description: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[AC-{num:02d}] {description}: {verdict}")
    assert not failures, f"AC-{num:02d} {description}: " + "; ".join(
        str(f) for f in failures[:5]
    )


def as_pairs(codes):
    return set((c.a0, c.digits) for c in codes)


def codes_of(pairs):
    return [SignedDigitCode(a0, digits) for a0, digits in pairs]


def test_ac01_code_family_tables(capsys):
    failures = []
    started = time.perf_counter()
    for m, rows in CODE_FAMILY_R2_N3.items():
        got = as_pairs(spawn_codes(TargetRatio(m, 2, 3)))
        if got != set(rows):
            failures.append(f"radix-2 family {m}/8 differs")
    for m, rows in CODE_FAMILY_R3_N2.items():
        got = as_pairs(spawn_codes(TargetRatio(m, 3, 2)))
        if got != set(rows):
            failures.append(f"radix-3 family {m}/9 differs")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f} s, budget 1 s")
    report(capsys, 1, "code families match the reference tables", failures)


def test_ac02_generator_equivalence(capsys):
    failures = []
    started = time.perf_counter()
    for radix, max_n in ((2, 8), (3, 4)):
        for n in range(1, max_n + 1):
            for m in range(1, radix**n):
                ratio = TargetRatio(m, radix, n)
                if spawn_codes(ratio).as_set() != enumerate_codes(ratio).as_set():
                    failures.append(f"generators disagree at {ratio}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f} s, budget 30 s")
    report(capsys, 2, "spawning equals exhaustive enumeration", failures)


def test_ac03_exact_self_adjustment(capsys):
    failures = []
    for radix, max_n in ((2, 8), (3, 3), (4, 3)):
        for n in range(1, max_n + 1):
            for m in range(1, radix**n):
                work = TargetRatio(m, radix, n).reduced()
                solution = solve_unique(build_system(spawn_codes(work)))
                want = tuple(
                    F(1, radix**j) for j in range(1, work.resolution + 1)
                ) + (F(m, radix**n),)
                if solution != want:
                    failures.append(f"{m}/{radix}**{n} solved to {solution}")
    report(capsys, 3, "loop systems pin the ladder voltages exactly", failures)


def test_ac04_redundancy_elimination(capsys):
    failures = []
    system = build_system(codes_of(DEPENDENT_ROW_ORDER_38))
    if redundancy_scores(system) != (F(1), F(1), F(1), F(3), F(1)):
        failures.append(f"scores {redundancy_scores(system)}")
    if find_redundant(system) != [3]:
        failures.append(f"flagged rows {find_redundant(system)} in writeup order")
    sorted_system = build_system(codes_of(ZEROSORT_R2_N3[3]))
    if find_redundant(sorted_system) != [4]:
        failures.append(f"flagged rows {find_redundant(sorted_system)} in sorted order")
    want = (F(1, 2), F(1, 4), F(1, 8), F(3, 8))
    for codes in (codes_of(DEPENDENT_ROW_ORDER_38), codes_of(ZEROSORT_R2_N3[3])):
        sys_ = build_system(codes)
        drop = find_redundant(sys_)
        before = solve_unique(sys_)
        after = solve_unique(build_system([c for i, c in enumerate(codes) if i not in drop]))
        if before != want or after != want:
            failures.append(f"solution changed: {before} -> {after}")
    report(capsys, 4, "dependent rows are flagged and removable", failures)


def test_ac05_step_up_solutions(capsys):
    failures = []
    got = solve_unique(step_up(build_system(spawn_codes(TargetRatio(3, 2, 3)))))
    if got != (F(4, 3), F(2, 3), F(1, 3), F(8, 3)):
        failures.append(f"3/8 step-up solved to {got}")
    got = solve_unique(step_up(build_system(spawn_codes(TargetRatio(4, 3, 2)))))
    if got != (F(3, 4), F(1, 4), F(9, 4)):
        failures.append(f"4/9 step-up solved to {got}")
    report(capsys, 5, "reciprocal systems solve exactly", failures)


def test_ac06_redistribution_convergence(capsys):
    failures = []
    sequence = codes_of(DEPENDENT_ROW_ORDER_38)
    started = time.perf_counter()
    for case in CONVERGENCE_CASES:
        state = BankState(case["caps"], case["cout"], case["init"][:3], case["init"][3])
        trace = run(state, sequence, VIN, max_periods=500)
        if not trace.converged:
            failures.append(f"no convergence from {case['init']}")
            continue
        final = (*trace.final_state.flying_voltages, trace.final_state.output_voltage)
        err = max(abs(g - w) for g, w in zip(final, CONVERGENCE_TARGET))
        if err >= 1e-6:
            failures.append(f"error {err:.2e} V from {case['init']}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f} s, budget 5 s")
    report(capsys, 6, "redistribution settles to the design voltages", failures)


def operating_spec(m: int) -> ReqSpec:
    return build_req_spec(
        schedule_currents(TargetRatio(m, 2, 3))[0],
        REQ_OPERATING["f_s"],
        REQ_OPERATING["c"],
        REQ_OPERATING["r_on"],
        REQ_OPERATING["switches"],
    )


def test_ac07_equivalent_resistance_column(capsys):
    failures = []
    for m in range(1, 8):
        spec = operating_spec(m)
        got = req_multi(spec)
        if abs(got - REQ_COLUMN[m]) > 0.01:
            failures.append(f"{m}/8 gave {got:.4f}, expected {REQ_COLUMN[m]}")
        if req_zero_beta_multiplier(spec) != REQ_FLOOR[m]:
            failures.append(f"{m}/8 floor {req_zero_beta_multiplier(spec)}")
    rows = codes_of(DEPENDENT_ROW_ORDER_38)
    active = [rows[i] for i in (0, 1, 2, 4)]
    unsorted_spec = build_req_spec(
        active,
        REQ_OPERATING["f_s"],
        REQ_OPERATING["c"],
        REQ_OPERATING["r_on"],
        REQ_OPERATING["switches"],
    )
    if req_zero_beta_multiplier(unsorted_spec) != F(15, 8):
        failures.append(f"unsorted floor {req_zero_beta_multiplier(unsorted_spec)}")
    report(capsys, 7, "resistance column and exact floors", failures)


def test_ac08_follower_limits(capsys):
    # the two-phase follower is two slots, each carrying the whole output
    # current through one capacitor for half the period; r_on = 1/(2 f_s C beta)
    failures = []
    r, c, beta = 1.0, 1e-6, 1e-3
    f_s = 1.0 / (2.0 * beta * r * c)
    fast = req_multi(ReqSpec(f_s, c, r, 1, F(1, 2), ((1, 1), (1, 1))))
    if abs(fast - 4.0 * r) > 0.01 * 4.0 * r:
        failures.append(f"fast limit {fast:.4f}, expected 4R")
    f_s, c = 1e5, 4.7e-6
    slow = req_multi(ReqSpec(f_s, c, 1.0 / (2.0 * f_s * c * 20.0), 1, F(1, 2), ((1, 1), (1, 1))))
    if abs(slow - 1.0 / (f_s * c)) > 0.001 / (f_s * c):
        failures.append(f"slow limit {slow:.4f}, expected 1/(f_s C)")
    report(capsys, 8, "follower resistance limits", failures)


def test_ac09_load_line_round_trip(capsys):
    failures = []
    for v_trg, r_eq in ((4.0, 4.82), (3.0, 5.43), (1.0, 6.62)):
        points = [(r_o, vo_under_load(v_trg, r_eq, r_o)) for r_o in LOAD_RO]
        got_v, got_r = load_line_fit(points)
        if abs(got_v - v_trg) > 1e-9 * v_trg or abs(got_r - r_eq) > 1e-9 * r_eq:
            failures.append(f"fit of ({v_trg}, {r_eq}) gave ({got_v}, {got_r})")
    got = extract_req(4.0, 3.816, 100.0)
    if abs(got - 4.822) > 1e-3:
        failures.append(f"single-point extraction gave {got:.5f}")
    report(capsys, 9, "load-line extraction round trip", failures)


def test_ac10_charge_balance_tables(capsys):
    failures = []
    for m in range(1, 8):
        spec = build_req_spec(TargetRatio(m, 2, 3), 1e5, 4.7e-6, 1.2, 4)
        got = tuple((current, F(1, stack)) for current, stack in spec.slots)
        if got != CURRENT_CAP_TABLE[m]:
            failures.append(f"{m}/8 schedule {got}")
    report(capsys, 10, "current and capacitance schedule tables", failures)


def test_ac11_dither_planning(capsys):
    failures = []
    plan = DitherPlan((TargetRatio(3, 2, 3), TargetRatio(4, 2, 3)), (4, 1))
    if dither_average(plan) != F(2, 5):
        failures.append(f"4:1 plan averages {dither_average(plan)}")
    if dither_plan(F(2, 5), 3, 8) != plan:
        failures.append(f"planner returned {dither_plan(F(2, 5), 3, 8)}")
    for resolution in range(1, 5):
        denom = 2**resolution
        for num in range(1, 41):
            target = F(num, 41)
            if not F(1, denom) <= target <= F(denom - 1, denom):
                continue
            got = dither_plan(target, resolution, 12)
            ms, weights = brute_force_dither(target, resolution, 12)
            if tuple(r.m for r in got.ratios) != ms or got.weights != weights:
                failures.append(f"suboptimal plan for {target} at n={resolution}")
    report(capsys, 11, "dither plans are exact and optimal", failures)


def test_ac12_switch_arrays(capsys):
    failures = []
    mapped = 0
    for a0, digits in itertools.product((0, 1), itertools.product((-1, 0, 1), repeat=3)):
        code = SignedDigitCode(a0, digits)
        key = (a0, digits)
        try:
            bits = switch_states(code)
        except UnsupportedCodeError:
            if key in SWITCH_VECTORS:
                failures.append(f"missing vector for {code.to_text()!r}")
            continue
        mapped += 1
        if SWITCH_VECTORS.get(key) != bits:
            failures.append(f"{code.to_text()!r} -> {bits}")
    if mapped != len(SWITCH_VECTORS):
        failures.append(f"{mapped} vectors mapped, expected {len(SWITCH_VECTORS)}")
    report(capsys, 12, "board switch arrays match bit-exactly", failures)


def test_ac13_fixed_point_equivalence(capsys):
    failures = []
    rng = random.Random(20260818)
    lo, hi = math.log10(1e-6), math.log10(47e-6)
    out_lo, out_hi = math.log10(47e-6), math.log10(470e-6)
    for instance in range(50):
        m = rng.randint(1, 7)
        caps = tuple(10 ** rng.uniform(lo, hi) for _ in range(3))
        cout = 10 ** rng.uniform(out_lo, out_hi)
        ratio = TargetRatio(m, 2, 3)
        reduced = ratio.reduced()
        solution = solve_unique(build_system(spawn_codes(reduced)))
        state = BankState(caps, cout, (0.0, 0.0, 0.0), 0.0)
        trace = run(state, list(spawn_codes(ratio)), VIN, max_periods=2000)
        if not trace.converged:
            failures.append(f"instance {instance} (m={m}) did not converge")
            continue
        final = (*trace.final_state.flying_voltages, trace.final_state.output_voltage)
        errs = [
            abs(final[j] - VIN * float(solution[j]))
            for j in range(reduced.resolution)
        ]
        errs.append(abs(final[3] - VIN * float(solution[-1])))
        if max(errs) >= 1e-6 * VIN:
            failures.append(f"instance {instance} (m={m}) error {max(errs):.2e} V")
    report(capsys, 13, "simulated limits equal solved limits", failures)
