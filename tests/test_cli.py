import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sccforge
from sccforge import cli
from sccforge.cli import main
from sccforge.linsolve import build_system, solve_unique, step_up
from sccforge.numrep import CodeSet, SignedDigitCode, TargetRatio, spawn_codes

from golden import (
    BALANCED_TABLE_N3,
    CODE_FAMILY_R2_N3,
    CODE_FAMILY_R3_N2,
    REQ_FLOOR,
    REQ_FROZEN,
    REQ_TS4_OVERRIDE,
)
from oracles import trace_rows


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def text_rows(pairs):
    return [" ".join(str(x) for x in (a0, *digits)) for a0, digits in pairs]


# -- codes -------------------------------------------------------------------------


def test_codes_lists_the_family(capsys):
    assert main(["codes", "--ratio", "3/8"]) == 0
    assert lines_of(capsys) == text_rows(CODE_FAMILY_R2_N3[3])


def test_codes_other_radix(capsys):
    assert main(["codes", "--ratio", "4/9", "--radix", "3"]) == 0
    assert lines_of(capsys) == text_rows(CODE_FAMILY_R3_N2[4])


def test_codes_balanced_schedule(capsys):
    assert main(["codes", "--ratio", "4/8", "--generator", "balanced"]) == 0
    got = lines_of(capsys)
    assert len(got) == 8
    assert sorted(got) == sorted(text_rows(BALANCED_TABLE_N3[4]))


def test_codes_rejects_an_unreachable_ratio(capsys):
    assert main(["codes", "--ratio", "9/8"]) == 2
    assert "scc-forge codes: error:" in capsys.readouterr().err


def test_codes_cross_check(capsys):
    assert main(["codes", "--ratio", "3/8", "--check"]) == 0
    assert lines_of(capsys) == ["generators agree on 5 codes"]


def test_codes_cross_check_mismatch_exits_1(monkeypatch, capsys):
    full = cli.enumerate_codes
    monkeypatch.setattr(cli, "enumerate_codes", lambda ratio: CodeSet(ratio, full(ratio).codes[1:]))
    assert main(["codes", "--ratio", "3/8", "--check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "generator mismatch for 3/8: spawn 5 codes, enumerate 4 codes\n"


def test_codes_cross_check_at_the_deepest_resolution(capsys):
    assert main(["codes", "--ratio", "5461/16384", "--check"]) == 0
    assert lines_of(capsys) == ["generators agree on 987 codes"]


def test_codes_cross_check_past_n_14(capsys):
    # the enumeration cap is on the larger half-lattice sweep, 3**8 tuples at n = 16,
    # so every ratio under the denominator limit is checked
    assert main(["codes", "--ratio", "1/32768", "--check"]) == 0
    assert main(["codes", "--ratio", "21845/65536", "--check"]) == 0
    assert lines_of(capsys) == ["generators agree on 16 codes", "generators agree on 2584 codes"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_codes_renders_only_the_format_asked_for(monkeypatch, capsys, fmt):
    argv = ["codes", "--ratio", "85/256", "--generator", "balanced", "--format", fmt]
    assert main(argv) == 0
    want = capsys.readouterr().out

    def refuse(code):
        raise AssertionError("the text rendering was built")

    monkeypatch.setattr(SignedDigitCode, "to_text", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "argv, text",
    [
        (["codes"], "missing required option --ratio"),
        (["codes", "--ratio", "a/8"], "ratio must be two integers, got 'a/8'"),
    ],
    ids=["missing", "not-integers"],
)
def test_codes_ratio_is_required_and_checked(capsys, argv, text):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scc-forge codes: error: {text}\n"


def test_codes_json(capsys):
    assert main(["codes", "--ratio", "3/8", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "scc-forge/1"
    assert data["ratio"] == "3/8"
    assert data["generator"] == "spawn"
    assert len(data["codes"]) == 5
    assert data["codes"][0] == {"a0": 1, "digits": [-1, 0, -1], "radix": 2}


def test_codes_csv(capsys):
    assert main(["codes", "--ratio", "3/8", "--format", "csv"]) == 0
    got = lines_of(capsys)
    assert got[0] == "a0,d1,d2,d3"
    assert got[1] == "1,-1,0,-1"
    assert len(got) == 6


# -- solve -------------------------------------------------------------------------


def test_solve_names_the_dependent_row(capsys):
    assert main(["solve", "--ratio", "3/8"]) == 0
    assert lines_of(capsys) == ["V1=1/2 V2=1/4 V3=1/8 Vo=3/8; redundant rows: [4]"]


def test_solve_step_up(capsys):
    assert main(["solve", "--ratio", "3/8", "--stepup"]) == 0
    assert lines_of(capsys) == ["V1=4/3 V2=2/3 V3=1/3 Vo=8/3"]


@pytest.mark.parametrize(
    "argv",
    [["--ratio", "3/8"], ["--ratio", "4/8"], ["--ratio", "85/256"]],
    ids=["3/8", "4/8", "85/256"],
)
def test_solve_step_up_reports_the_ranks_of_both_systems(capsys, argv):
    # the ranks are written from the unique solve, not eliminated again: they must
    # hold for the loop system and for the step-up system that was solved
    assert main(["solve", *argv, "--stepup", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    m, d = map(int, data["solved"].split("/"))
    system = build_system(spawn_codes(TargetRatio.from_fraction(m, d, 2)))
    n = system.unknowns
    assert (data["rank_a"], data["rank_augmented"], data["unknowns"]) == (n, n, n)
    assert data["unique"] is True
    assert len(solve_unique(system)) == len(solve_unique(step_up(system))) == n


def test_solve_other_radix(capsys):
    # four loops over three unknowns: one row is dependent and gets flagged
    assert main(["solve", "--ratio", "4/9", "--radix", "3"]) == 0
    assert lines_of(capsys) == ["V1=1/3 V2=1/9 Vo=4/9; redundant rows: [4]"]


def test_solve_reduces_degenerate_ratios(capsys):
    assert main(["solve", "--ratio", "4/8"]) == 0
    assert lines_of(capsys) == [
        "note: 4/8 reduces to 1/2; solving the reduced bank",
        "V1=1/2 Vo=1/2; redundant rows: []",
    ]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["codes", "--ratio", "3/8", "--generator", "enumerate"], "argument --generator: invalid choice"),
        (["solve", "--ratio", "3/8", "--eliminate"], "unrecognized arguments: --eliminate"),
    ],
    ids=["generator-enumerate", "eliminate"],
)
def test_options_that_repeat_the_default_answer_are_gone(capsys, argv, text):
    # --generator enumerate printed the spawn family, and --eliminate the same
    # solution under another label
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert text in captured.err


def test_solve_json(capsys):
    assert main(["solve", "--ratio", "3/8", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rank_a"] == 4
    assert data["unique"] is True
    assert data["redundant_row_indices"] == [3]
    assert data["solution"] == {"V1": "1/2", "V2": "1/4", "V3": "1/8", "Vo": "3/8"}


# -- simulate ----------------------------------------------------------------------

SIM_ARGS = [
    "simulate",
    "--ratio",
    "3/8",
    "--vin",
    "8",
    "--caps",
    "4.7u,4.7u,4.7u",
    "--cout",
    "47u",
]


def test_simulate_reports_the_limits(capsys):
    assert main(SIM_ARGS) == 0
    got = lines_of(capsys)
    assert re.fullmatch(r"converged after \d+ periods \(\d+ iterations to adjust\)", got[0])
    match = re.fullmatch(r"limits: (\S+) (\S+) (\S+) \| (\S+) V", got[1])
    assert match
    volts = [float(x) for x in match.groups()]
    for got_v, want in zip(volts, (4.0, 2.0, 1.0, 3.0)):
        assert got_v == pytest.approx(want, abs=1e-4)


def test_simulate_json(capsys):
    assert main(SIM_ARGS + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["converged"] is True
    assert data["output_voltage"] == pytest.approx(3.0, abs=1e-6)
    assert data["adjustment_iterations"] == (data["periods"] - 1) * 5


def test_simulate_csv_is_the_trace(capsys):
    assert main(SIM_ARGS + ["--format", "csv", "--max-periods", "2"]) == 4
    got = capsys.readouterr()
    rows = got.out.splitlines()
    assert rows[0] == "iteration,V1,V2,V3,Vo,Q"
    assert len(rows) == 1 + 2 * 5


@pytest.mark.parametrize(
    "order, head",
    [
        ("sorted", "converged after 395 periods (1970 iterations to adjust)"),
        ("balanced", "converged after 241 periods (1920 iterations to adjust)"),
    ],
)
def test_simulate_slot_orders(capsys, order, head):
    readme = SIM_ARGS[:-1] + ["470u"]
    assert main(readme + ["--order", order]) == 0
    assert lines_of(capsys) == [head, "limits: 4 2 1 | 3 V"]
    assert main(readme + ["--order", order, "--format", "csv"]) == 0
    trace = capsys.readouterr().out
    assert main(readme + ["--format", "csv"]) == 0
    assert trace != capsys.readouterr().out


def test_simulate_budget_exhaustion(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main(SIM_ARGS + ["--max-periods", "3", "--trace", str(trace)])
    assert code == 4
    captured = capsys.readouterr()
    assert "did not converge within 3 periods" in captured.err
    assert len(trace.read_text().splitlines()) == 1 + 3 * 5


def test_simulate_writes_locus(tmp_path, capsys):
    locus = tmp_path / "locus.csv"
    assert main(SIM_ARGS + ["--locus", str(locus)]) == 0
    rows = locus.read_text().splitlines()
    assert rows[0] == "angle_rad,abs_charge"
    assert len(rows) > 5


@pytest.mark.parametrize("flag", ["--trace", "--locus"])
def test_simulate_unwritable_output_is_a_usage_error(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "out.csv"
    assert main(SIM_ARGS + [flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("scc-forge simulate: error: ") and str(path) in line


def test_simulate_output_comes_from_the_trace_buffer(monkeypatch, tmp_path, capsys):
    # the per-record rendering that the buffer-reading writers must reproduce
    state = sccforge.BankState((4.7e-6,) * 3, 47e-6, (0.0,) * 3, 0.0)
    sequence = sccforge.spawn_codes(sccforge.TargetRatio(3, 2, 3))
    records = trace_rows(sccforge.run(state, sequence, 8.0))
    rows = ["iteration,V1,V2,V3,Vo,Q"] + [
        ",".join([str(i), *(f"{v:.12g}" for v in values)]) for i, *values in records
    ]
    locus = ["angle_rad,abs_charge"] + [
        f"{2.0 * math.pi * (i % 5) / 5:.12g},{abs(values[-1]):.12g}" for i, *values in records
    ]
    plain = {}
    for fmt in ("text", "json"):
        assert main(SIM_ARGS + ["--format", fmt]) == 0
        plain[fmt] = capsys.readouterr().out

    def unbuilt(trace):
        raise AssertionError("records built")

    monkeypatch.setattr(sccforge.SimTrace, "records", property(unbuilt))
    for fmt in ("text", "json"):
        assert main(SIM_ARGS + ["--format", fmt]) == 0
        assert capsys.readouterr().out == plain[fmt]
    assert main(SIM_ARGS + ["--format", "csv"]) == 0
    assert capsys.readouterr().out == "\n".join(rows) + "\n"
    trace, points = tmp_path / "trace.csv", tmp_path / "locus.csv"
    assert main(SIM_ARGS + ["--trace", str(trace), "--locus", str(points)]) == 0
    assert trace.read_text() == "\n".join(rows) + "\n"
    assert points.read_text() == "\n".join(locus) + "\n"
    capsys.readouterr()
    # a trace file and CSV output share one formatting pass over the buffer
    passes = []
    format_rows = sccforge.cli.trace_csv_lines
    monkeypatch.setattr(sccforge.cli, "trace_csv_lines", lambda t: passes.append(t) or format_rows(t))
    assert main(SIM_ARGS + ["--trace", str(trace), "--format", "csv"]) == 0
    assert capsys.readouterr().out == trace.read_text() == "\n".join(rows) + "\n"
    assert len(passes) == 1


def test_simulation_past_the_float_range_names_the_period(capsys):
    # every input is finite; the run overflows in its first period
    init = ",".join(["1.7e308"] * 4)
    assert main(SIM_ARGS[:4] + ["1e308"] + SIM_ARGS[5:-1] + ["470u", "--init", init]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the simulation left the float range in period 1\n"


def test_simulate_cap_count_mismatch(capsys):
    assert main(["simulate", "--ratio", "3/8", "--vin", "8", "--caps", "4.7u,4.7u", "--cout", "47u"]) == 2
    assert "need 3 flying capacitances" in capsys.readouterr().err


def test_simulate_init_count_mismatch(capsys):
    assert main(SIM_ARGS + ["--init", "1,2,3"]) == 2
    assert "--init needs 4 voltages (V1..V3,Vo), got 3" in capsys.readouterr().err


# -- req ---------------------------------------------------------------------------

REQ_ARGS = ["req", "--fs", "100k", "--c", "4.7u", "--ron", "1.2", "--switches", "4"]


def req_rows(capsys):
    got = lines_of(capsys)
    assert got[0].split() == ["ratio", "slots", "t/Ts", "R_eq[Ohm]", "floor[R]"]
    return [row.split() for row in got[1:]]


def test_req_full_table(capsys):
    assert main(REQ_ARGS) == 0
    rows = req_rows(capsys)
    assert [row[0] for row in rows] == [f"{m}/8" for m in range(1, 8)]
    for m, row in enumerate(rows, start=1):
        assert float(row[3]) == pytest.approx(REQ_FROZEN[m], abs=1e-3)
        assert row[4] == str(REQ_FLOOR[m])


def test_req_single_ratio(capsys):
    assert main(REQ_ARGS + ["--ratio", "3/8"]) == 0
    rows = req_rows(capsys)
    assert len(rows) == 1
    assert rows[0][0] == "3/8"
    assert rows[0][1] == "4"
    assert rows[0][2] == "1/4"
    assert float(rows[0][3]) == pytest.approx(5.4282, abs=1e-3)


@pytest.mark.parametrize(
    "argv, calls",
    [
        (REQ_ARGS + ["--ratio", "3/8"], 1),
        (REQ_ARGS + ["--n", "3"], 7),
        (["solve", "--ratio", "85/256"], 1),
        (["solve", "--ratio", "85/256", "--stepup"], 1),
    ],
    ids=["req-3/8", "req-n3", "solve", "solve-stepup"],
)
def test_one_elimination_per_answer(kernel_calls, capsys, argv, calls):
    # req: schedule and currents from one tableau per ratio; solve: the
    # solution of the system solved, whose ranks a unique solution fixes, and
    # the redundant rows, its dependent rows, from one [A|b] (with --stepup too)
    assert main(argv) == 0
    assert len(kernel_calls) == calls


def test_req_n_at_the_ratios_resolution_changes_nothing(capsys):
    assert main(REQ_ARGS + ["--ratio", "3/8"]) == 0
    plain = capsys.readouterr()
    assert main(REQ_ARGS + ["--ratio", "3/8", "--n", "3"]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("n, source", [("40", "flag"), ("4", "flag"), ("5", "config")])
def test_req_conflicting_resolution_is_a_usage_error(tmp_path, capsys, n, source):
    if source == "flag":
        extra = ["--n", n]
    else:
        cfg = tmp_path / "req.cfg"
        cfg.write_text(f"n = {n}\n")
        extra = ["--config", str(cfg)]
    assert main(REQ_ARGS + ["--ratio", "3/8"] + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"scc-forge req: error: --n {n} does not match --ratio 3/8, whose resolution is 3\n"


def test_req_fixed_slot_override(capsys):
    assert main(REQ_ARGS + ["--slot", "Ts/4"]) == 0
    rows = {row[0]: row for row in req_rows(capsys)}
    assert all(row[2] == "1/4" for row in rows.values())
    assert float(rows["2/8"][3]) == pytest.approx(REQ_TS4_OVERRIDE[2], abs=1e-3)
    assert float(rows["4/8"][3]) == pytest.approx(REQ_TS4_OVERRIDE[4], abs=1e-3)


def test_req_slot_in_seconds(capsys):
    # 2 us at 100 kHz is exactly a fifth of the period
    assert main(REQ_ARGS + ["--ratio", "3/8", "--slot", "2u"]) == 0
    rows = req_rows(capsys)
    assert rows[0][2] == "1/5"


def test_req_slot_seconds_are_read_exactly(capsys):
    # 2.5 us at 100 kHz is a quarter period however it is typed
    outs = []
    for slot in ("2.5u", "2.5e-6", "Ts/4"):
        assert main(REQ_ARGS + ["--slot", slot]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert "11/8" in outs[0]


def test_req_oversized_slot(capsys):
    assert main(REQ_ARGS + ["--ratio", "1/8", "--slot", "Ts/2"]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "extra, text",
    [
        # R*C underflows to 0
        (["--fs", "100k", "--c", "1e-300", "--ron", "1e-300", "--switches", "4"], "R*C = 0"),
        # R*C and f_s*C overflow, so beta would be 0
        (["--fs", "1e300", "--c", "1e300", "--ron", "1e300", "--switches", "4"], "R*C = inf"),
        # f_s*C underflows to 0
        (["--fs", "1e-300", "--c", "1e-300", "--ron", "1", "--switches", "4"], "f_s*C = 0"),
        # beta is subnormal, and its coth overflows
        (REQ_ARGS[1:] + ["--slot", "1e-320"], "beta = 4.43257e-316"),
        # every product is in range, but R_eq itself overflows
        (["--fs", "1", "--c", "1e-300", "--ron", "4e307", "--switches", "4"], "R_eq is inf"),
        # the switch count alone is past the float range
        (REQ_ARGS[1:-1] + ["1" + "0" * 400], "switches_per_loop above the largest float"),
        # the slot is past the float range in periods, with a denominator above 64
        (["--fs", "1.057"] + REQ_ARGS[3:] + ["--slot", "1.75e308"], "does not fit 4 slots"),
        # the same with a denominator of 5, and a huge slot inside the float range
        (["--fs", "1.1"] + REQ_ARGS[3:] + ["--slot", "1.7e308"], "slot duration 1.87e+308 of"),
        (["--fs", "1.1"] + REQ_ARGS[3:] + ["--slot", "1e300"], "slot duration 1.1e+300 of"),
    ],
    ids=[
        "rc-underflow",
        "overflow",
        "fc-underflow",
        "tiny-slot",
        "req-overflow",
        "huge-switches",
        "huge-slot",
        "huge-slot-small-denominator",
        "huge-slot-in-range",
    ],
)
def test_req_out_of_float_range_is_a_domain_error(capsys, extra, text):
    assert main(["req", *extra, "--ratio", "3/8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and text in captured.err
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err) < 120


def test_req_csv(capsys):
    assert main(REQ_ARGS + ["--format", "csv"]) == 0
    got = lines_of(capsys)
    assert got[0] == "ratio,slots,t_over_ts,req_ohm,floor_over_r"
    assert got[3].startswith("3/8,4,1/4,5.4282,")


def test_req_output_is_deterministic(capsys):
    assert main(REQ_ARGS) == 0
    first = capsys.readouterr().out
    assert main(REQ_ARGS) == 0
    assert capsys.readouterr().out == first


# -- dither ------------------------------------------------------------------------


def test_dither_plan_line(capsys):
    assert main(["dither", "--target", "0.4"]) == 0
    assert lines_of(capsys) == ["4x 3/8 + 1x 4/8 = 2/5"]


def test_dither_accepts_fraction_text(capsys):
    assert main(["dither", "--target", "2/5"]) == 0
    assert lines_of(capsys) == ["4x 3/8 + 1x 4/8 = 2/5"]


def test_dither_json(capsys):
    assert main(["dither", "--target", "0.4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["schema", "ratios", "weights", "period", "average", "target"]
    assert data["schema"] == "scc-forge/1"
    assert data["ratios"] == ["3/8", "4/8"]
    assert data["weights"] == [4, 1]
    assert data["average"] == "2/5"
    assert data["target"] == "2/5"


def test_dither_rejects_targets_outside_unit_interval(capsys):
    assert main(["dither", "--target", "1.2"]) == 2
    assert "strictly between 0 and 1" in capsys.readouterr().err


def test_dither_unreachable_band_is_a_domain_error(capsys):
    assert main(["dither", "--target", "0.05"]) == 3
    assert "outside the reachable band" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, band",
    [
        ([], "[1/8, 7/8]"),
        (["--n", "6"], "[1/64, 63/64]"),
        (["--n", "7"], "[2**-7, 1 - 2**-7]"),
        (["--n", "1000"], "[2**-1000, 1 - 2**-1000]"),
    ],
    ids=["n3", "n6", "n7", "n1000"],
)
def test_dither_band_error_stays_short(capsys, extra, band):
    # a 401-digit denominator once made this line 455 characters long
    assert main(["dither", "--target", "1e-400", *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: target 1e-400 outside the reachable band {band}\n"
    assert len(captured.err) < 120


def test_dither_target_just_below_one_is_told_from_one(capsys):
    # four significant digits round 1 - 1e-25 to 1, which --target refuses
    assert main(["dither", "--target", "0.9999999999999999999999999", "--n", "12"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    band = "[2**-12, 1 - 2**-12]"
    assert captured.err == f"error: target 1 - 1e-25 outside the reachable band {band}\n"
    assert main(["dither", "--target", "0.99999", "--n", "12"]) == 3
    assert "target 1 - 1e-05 outside" in capsys.readouterr().err


# -- ldo ---------------------------------------------------------------------------


def test_ldo_line(capsys):
    assert main(["ldo", "--vin", "10", "--vout", "3.3", "--dropout", "0.3"]) == 0
    assert lines_of(capsys) == ["ratio 3/8 step-down, efficiency bound 0.9167"]


def test_ldo_reads_voltages_at_their_printed_value(capsys):
    # 6/32 of 19.2 V is 3.6 V exactly, which clears 3.1 V + 0.5 V
    assert main(["ldo", "--vin", "19.2", "--vout", "3.1", "--dropout", "0.5", "--n", "5"]) == 0
    assert lines_of(capsys) == ["ratio 6/32 step-down, efficiency bound 0.8611"]


def test_ldo_step_up(capsys):
    assert main(["ldo", "--vin", "1.8", "--vout", "3.3", "--dropout", "0.3"]) == 0
    assert lines_of(capsys) == ["ratio 8/4 step-up, efficiency bound 0.9167"]


def test_ldo_step_up_disabled(capsys):
    assert main(["ldo", "--vin", "1.8", "--vout", "3.3", "--dropout", "0.3", "--no-step-up"]) == 3
    assert "without step-up" in capsys.readouterr().err


def test_ldo_json(capsys):
    assert main(["ldo", "--vin", "10", "--vout", "3.3", "--dropout", "0.3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ratio"] == "3/8"
    assert data["step_up"] is False
    assert data["gain"] == "3/8"
    assert data["efficiency_bound"] == pytest.approx(3.3 / 3.6)


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [REQ_ARGS, ["dither", "--target", "0.4"], ["ldo", "--vin", "10", "--vout", "3.3", "--dropout", "0.3"]],
    ids=["req", "dither", "ldo"],
)
def test_resolution_below_one_is_one_domain_error(capsys, argv, n):
    # one value, one answer: every command that takes --n refuses it the same way
    assert main([*argv, "--n", n]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: resolution must be at least 1\n"


# -- option plumbing ----------------------------------------------------------------


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "board.cfg"
    cfg.write_text("# bench setup\nvin = 10\nvout = 3.3\ndropout = 0.3\n")
    assert main(["ldo", "--config", str(cfg)]) == 0
    assert lines_of(capsys) == ["ratio 3/8 step-down, efficiency bound 0.9167"]


def test_flags_override_the_config(tmp_path, capsys):
    cfg = tmp_path / "board.cfg"
    cfg.write_text("vin = 10\nvout = 3.3\ndropout = 0.3\n")
    assert main(["ldo", "--config", str(cfg), "--vin", "8"]) == 0
    assert lines_of(capsys) == ["ratio 4/8 step-down, efficiency bound 0.9167"]


def test_a_config_file_serves_every_command(tmp_path, capsys):
    # vin and vout are not req options, but the file they share with ldo is legal
    assert main(REQ_ARGS) == 0
    table = capsys.readouterr().out
    cfg = tmp_path / "board.cfg"
    cfg.write_text("vin = 10\nvout = 3.3\n")
    assert main(REQ_ARGS + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == table


def test_missing_required_option(capsys):
    assert main(["ldo", "--vin", "10"]) == 2
    assert "missing required option --vout" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["ldo", "--vin", "10", "--vout", "3.3", "--config", "/no/such/file"]) == 2


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_bad_quantity_is_a_usage_error(capsys):
    assert main(["ldo", "--vin", "ten", "--vout", "3.3"]) == 2
    assert "bad value for --vin" in capsys.readouterr().err


def _cap_memory() -> None:
    # a runaway allocation ends in the child's MemoryError, not the host's
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def run_python(code: str, *argv: str, timeout: float = 30) -> subprocess.CompletedProcess:
    """Python code in a child process, so a hang fails the test instead of stalling it."""
    src = str(Path(sccforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=_cap_memory,
    )


def run_cli(*argv: str, timeout: float = 30) -> subprocess.CompletedProcess:
    """The CLI in a fresh child process."""
    code = "import sys; from sccforge.cli import main; sys.exit(main(sys.argv[1:]))"
    return run_python(code, *argv, timeout=timeout)


@pytest.mark.parametrize(
    "argv",
    [
        REQ_ARGS + ["--n", "10"],
        SIM_ARGS + ["--format", "csv"],
        ["codes", "--ratio", "3/8"],
        ["--help"],
        ["req", "--help"],
    ],
    ids=["req", "simulate", "short", "help", "req-help"],
)
def test_closed_stdout_is_not_an_error(argv):
    # the read end is closed before the child can start, so its first write meets a broken
    # pipe; stdout is block-buffered, so a short output meets it only when main flushes
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(sccforge.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "sccforge.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=_cap_memory,
    )
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 0
    assert err == b""


@pytest.mark.parametrize("radix", ["1", "0"])
def test_degenerate_radix_is_a_usage_error(radix):
    done = run_cli("codes", "--ratio", "3/8", "--radix", radix)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"scc-forge codes: error: radix must be at least 2, got {radix}\n"


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (REQ_ARGS[:4] + ["NaN"] + REQ_ARGS[5:], "c", "NaN"),
        (REQ_ARGS[:2] + ["inf"] + REQ_ARGS[3:], "fs", "inf"),
        (SIM_ARGS[:-1] + ["1e400"], "cout", "1e400"),
        (["ldo", "--vin", "nan", "--vout", "3.3"], "vin", "nan"),
    ],
    ids=["nan", "inf", "overflow", "lowercase-nan"],
)
def test_non_finite_quantity_is_a_usage_error(capsys, argv, flag, text):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad value for --{flag}: quantity {text!r} is not a finite number" in captured.err


def test_balanced_schedule_at_the_resolution_limit():
    done = run_cli("codes", "--ratio", "341/1024", "--generator", "balanced")
    assert done.returncode == 0
    assert done.stderr == ""
    assert len(done.stdout.splitlines()) == 1024


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["--vin", "10"], 0, "ratio 362838837167/1099511627776 step-down"),
        (["--vin", "1"], 0, "ratio 1099511627776/333185341750 step-up"),
        (["--vin", "1", "--no-step-up"], 3, "no ratio at resolution 40 lifts 1 V"),
    ],
    ids=["step-down", "step-up", "no-step-up"],
)
def test_ldo_at_resolution_40_answers_promptly(argv, code, text):
    done = run_cli("ldo", *argv, "--vout", "3.3", "--n", "40")
    assert done.returncode == code
    assert text in done.stdout + done.stderr


# Runs argv lists through main in one child process; reports whether numpy
# is loaded after the imports, then per run the exit code, stdout, stderr and
# whether numpy is loaded by then.
ONE_PROCESS = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import sccforge, sccforge.cli
    def heavy():
        return [name for name in ("numpy", "dataclasses", "inspect") if name in sys.modules]
    runs = [heavy()]
    for argv in json.loads(sys.argv[1]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sccforge.cli.main(argv)
        runs.append([code, out.getvalue(), err.getvalue(), heavy()])
    print(json.dumps(runs))
    """
)


def run_in_one_process(argvs, timeout: float = 30) -> list:
    done = run_python(ONE_PROCESS, json.dumps(argvs), timeout=timeout)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_only_simulate_loads_numpy():
    # nor do the import and the other commands load dataclasses or inspect,
    # whose import alone costs a fresh process about 10 ms
    first = [["codes", "--ratio", "3/8"], ["solve", "--ratio", "3/8"], REQ_ARGS]
    first += [["dither", "--target", "0.4"], ["ldo", "--vin", "10", "--vout", "3.3"]]
    imported, *runs = run_in_one_process(first + [SIM_ARGS])
    assert imported == []
    assert [[code, heavy] for code, _, _, heavy in runs[:-1]] == [[0, []]] * len(first)
    assert runs[-1][0] == 0 and "numpy" in runs[-1][3]


# a success, argparse's own usage error, a domain error, two more commands
# and a help page
SESSION = [
    ["codes", "--ratio", "3/8"],
    ["codes", "--ratio", "3/8", "--bogus"],
    ["dither", "--target", "0.05"],
    ["solve", "--ratio", "3/8", "--format", "json"],
    ["ldo", "--vin", "10", "--vout", "3.3"],
    ["solve", "--help"],
]


def test_repeated_main_calls_match_fresh_processes(monkeypatch, capsys):
    # main builds its parser once per process; every later call must behave
    # like the first call of a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # the help page wraps alike in both
    fresh = [run_cli(*argv) for argv in SESSION]
    for _ in range(2):
        for argv, done in zip(SESSION, fresh):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (done.returncode, done.stdout, done.stderr)
    assert [done.returncode for done in fresh] == [0, 2, 3, 0, 0, 0]


OVERSIZED = [
    (REQ_ARGS + ["--n", "40"], 3, "error: a table at --n 40 has 2**40 - 1 rows"),
    (REQ_ARGS + ["--n", "11"], 3, "the limit is --n 10"),
    (["dither", "--target", "0.4", "--n", "100000"], 3, "resolution 100000 beyond the limit"),
    (["ldo", "--vin", "10", "--vout", "3.3", "--n", "100000"], 3, "resolution 100000 beyond"),
    (["dither", "--target", "1e-9999"], 2, "fraction '1e-9999' exceeds the 1000-digit limit"),
    (["dither", "--target", "1e5000"], 2, "fraction '1e5000' exceeds the 1000-digit limit"),
    (["dither", "--target", "1e-9999999"], 2, "fraction '1e-9999999' exceeds"),
    # before the --ratio denominator limit: 52 s and 832,040 codes, 18 s, 16 s,
    # and 20 s growing with n
    (["codes", "--ratio", "89478485/268435456"], 3, "past the denominator limit 2**16"),
    (["solve", "--ratio", "349525/1048576"], 3, "past the denominator limit"),
    (REQ_ARGS + ["--ratio", "349525/1048576"], 3, "past the denominator limit"),
    (["solve", "--ratio", f"1/{2**200}"], 3, "past the denominator limit"),
    (["codes", "--radix", "3", "--ratio", "1/177147"], 3, "ratio 1/177147 is past"),
    # before the simulate slot limit: this run never converges, 3.7 s and 48 MB
    # per 100,000 periods
    (SIM_ARGS[:-1] + ["1k", "--max-periods", "10000000"], 3, "past the limit of 1,500,000 slots"),
]


def test_oversized_input_is_refused_before_any_work():
    # in a child with a timeout and a memory cap: before these limits the
    # cases ran out of memory, ran for minutes or ended in a traceback
    _, *runs = run_in_one_process([argv for argv, _, _ in OVERSIZED], timeout=10)
    for (argv, want, text), (code, out, err, _) in zip(OVERSIZED, runs):
        assert (code, out, len(err.splitlines())) == (want, "", 1), argv
        assert text in err


def test_resolution_40_still_plans_a_dither(capsys):
    assert main(["dither", "--target", "0.4", "--n", "40"]) == 0
    assert lines_of(capsys) == [
        "3x 439804651110/1099511627776 + 2x 439804651111/1099511627776 = 2/5"
    ]


@pytest.mark.parametrize(
    "argv, line, flag",
    [
        (["codes", "--ratio", "3/8"], "format = xml", "format"),
        (["codes", "--ratio", "3/8"], "generator = bogus", "generator"),
        (SIM_ARGS, "order = bogus", "order"),
    ],
    ids=["format", "generator", "order"],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, argv, line, flag):
    cfg = tmp_path / "board.cfg"
    cfg.write_text(line + "\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad value for --{flag}: expected one of" in captured.err


@pytest.mark.parametrize(
    "content, text",
    [
        (b"# bench setup\nfs: 100k\n", ":2: expected 'key = value'"),
        (b"# bench setup\n= 100k\n", ":2: empty key"),
        (b"\xff\xfe = 1\n", ": not UTF-8 text"),
        (b"slots = Ts/4\n", ": key 'slots' is not a config option"),
        (b"vin = 8\nno-step-up = 1\n", ": key 'no_step_up' is not a config option"),
        # the last value used to win without a word: `ldo --config` with this file answered ratio 4/8
        (b"vin = 10\nvout = 3.3\nVIN = 8\n", ":3: key 'vin' is already set on line 1"),
        (b"vin = 10\nvin = 10\n", ":2: key 'vin' is already set on line 1"),
        (b"max-periods = 50\n# again\nmax_periods = 50\n", ":3: key 'max_periods' is already set on line 1"),
    ],
    ids=["colon", "empty-key", "not-utf8", "unknown-key", "argv-only-key", "repeated-key", "same-spelling", "respelled-key"],
)
def test_malformed_config_line_is_a_usage_error(tmp_path, capsys, content, text):
    cfg = tmp_path / "board.cfg"
    cfg.write_bytes(content)
    assert main(REQ_ARGS + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scc-forge: error: {cfg}{text}\n"


# -- README ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_transcripts() -> list[tuple[str, str]]:
    """(command, stdout) of each `$ scc-forge ...` transcript in the README.

    The output runs to the next blank line or code fence, less the prompt's
    indent (one transcript sits in an indented list item).
    """
    lines = README.read_text().splitlines()
    found = []
    for i, line in enumerate(lines):
        indent, prompt, command = line.partition("$ scc-forge ")
        if not prompt or indent.strip():
            continue
        out = []
        for follow in lines[i + 1 :]:
            body = follow.removeprefix(indent)
            if not body.strip() or body.startswith("```"):
                break
            out.append(body + "\n")
        found.append((command, "".join(out)))
    return found


def test_readme_transcripts_replay(capsys):
    transcripts = readme_transcripts()
    assert len(transcripts) == 9
    for command, want in transcripts:
        code = main(shlex.split(command))
        assert (code, capsys.readouterr().out) == (0, want), command


def test_readme_python_blocks_print_their_comments(capsys):
    # each print line's comment is what it prints, or that followed by ", " or ": " and a remark
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    for block in blocks:
        wanted = [line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")]
        exec(compile(block, str(README), "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(wanted) == 3
        for out, comment in zip(printed, wanted):
            assert re.fullmatch(re.escape(out) + r"([,:] .*)?", comment), (out, comment)
