"""Command line front end: scc-forge <command> [options].

Commands: codes, solve, simulate, req, dither, ldo. Value options may come
from a flat key = value config file (--config); explicit flags win. Output
is deterministic text by default; --format csv or json where supported.

Exit codes: 0 success, 1 internal cross-check failure, 2 usage error,
3 domain error, 4 simulation did not converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import _si
from .chargesim import BankState, charge_locus, run, write_locus_csv, write_trace_csv
from .errors import DomainError, FitError, ResourceLimitError, SingularSystemError
from .linsolve import (
    build_system,
    check_solvable,
    find_redundant,
    solve_unique,
    sort_codes_by_zeros,
    step_up,
)
from .lossmodel import active_schedule, build_req_spec, req_multi, req_zero_beta_multiplier
from .numrep import TargetRatio, balanced_sequence, enumerate_codes, spawn_codes
from .regulation import dither_average, dither_plan, ldo_efficiency_bound, ldo_select_ratio

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4

_REQUIRED = object()


class _UsageError(Exception):
    pass


def _pick(args, cfg: dict, key: str, conv, default=_REQUIRED):
    """Option value from flags, then config file, then the default."""
    raw = getattr(args, key, None)
    if raw is None and key in cfg:
        raw = cfg[key]
    if raw is None:
        if default is _REQUIRED:
            raise _UsageError(f"missing required option --{key.replace('_', '-')}")
        return default
    if isinstance(raw, str):
        try:
            return conv(raw)
        except (DomainError, ValueError) as exc:
            raise _UsageError(f"bad value for --{key.replace('_', '-')}: {exc}") from None
    return raw


def _int(text: str) -> int:
    return int(text, 10)


def _float_list(text: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise DomainError("empty list")
    return [_si.parse_quantity(piece) for piece in items]


def _ratio_of(args, cfg, radix: int) -> TargetRatio:
    text = _pick(args, cfg, "ratio", str)
    parts = text.split("/")
    if len(parts) != 2:
        raise _UsageError(f"ratio must look like m/{radix}**n, got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"ratio must be two integers, got {text!r}") from None
    try:
        # keep the literal denominator: 4/8 means three digit positions
        return TargetRatio.from_fraction(num, den, radix)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": "scc-forge/1", **payload}, indent=2))


# -- codes ------------------------------------------------------------------


def _cmd_codes(args, cfg) -> int:
    radix = _pick(args, cfg, "radix", _int, 2)
    ratio = _ratio_of(args, cfg, radix)
    generator = _pick(args, cfg, "generator", str, "spawn")
    if generator not in ("spawn", "enumerate", "balanced"):
        raise _UsageError(f"unknown generator {generator!r}")
    fmt = _pick(args, cfg, "format", str, "text")

    if args.check:
        left = spawn_codes(ratio)
        right = enumerate_codes(ratio)
        if left.as_set() != right.as_set():
            print(
                f"generator mismatch for {ratio}: spawn {len(left)} codes, "
                f"enumerate {len(right)} codes",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
        print(f"generators agree on {len(left)} codes")
        return EXIT_OK

    if generator == "balanced":
        codes = list(balanced_sequence(ratio))
    elif generator == "enumerate":
        codes = list(enumerate_codes(ratio))
    else:
        codes = list(spawn_codes(ratio))

    if fmt == "json":
        _emit_json(
            {
                "ratio": str(ratio),
                "generator": generator,
                "codes": [c.to_json_dict() for c in codes],
            }
        )
    elif fmt == "csv":
        header = ["a0"] + [f"d{j}" for j in range(1, ratio.resolution + 1)]
        print(",".join(header))
        for code in codes:
            print(",".join(str(x) for x in (code.a0, *code.digits)))
    else:
        for code in codes:
            print(code.to_text())
    return EXIT_OK


# -- solve ------------------------------------------------------------------


def _cmd_solve(args, cfg) -> int:
    radix = _pick(args, cfg, "radix", _int, 2)
    ratio = _ratio_of(args, cfg, radix)
    fmt = _pick(args, cfg, "format", str, "text")

    notes = []
    work = ratio
    if ratio.effective_resolution != ratio.resolution:
        work = ratio.reduced()
        notes.append(f"note: {ratio} reduces to {work}; solving the reduced bank")

    system = build_system(spawn_codes(work))
    redundant = find_redundant(system)
    if args.eliminate:
        system = system.drop_rows(redundant)
    report = check_solvable(system)
    solved = step_up(system) if args.stepup else system
    solution = solve_unique(solved)

    labels = system.labels
    pairs = [f"{name}={value}" for name, value in zip(labels, solution)]
    if fmt == "json":
        _emit_json(
            {
                "ratio": str(ratio),
                "solved": str(work),
                "step_up": bool(args.stepup),
                "rank_a": report.rank_a,
                "rank_augmented": report.rank_augmented,
                "unknowns": report.unknowns,
                "unique": report.unique,
                "solution": {name: str(value) for name, value in zip(labels, solution)},
                "redundant_row_indices": redundant,
                "eliminated": bool(args.eliminate),
            }
        )
    elif fmt == "csv":
        print("label,value")
        for name, value in zip(labels, solution):
            print(f"{name},{value}")
    else:
        for note in notes:
            print(note)
        line = " ".join(pairs)
        if args.stepup:
            print(line)
        elif args.eliminate:
            print(f"{line}; eliminated rows: {[i + 1 for i in redundant]}")
        else:
            print(f"{line}; redundant rows: {[i + 1 for i in redundant]}")
    return EXIT_OK


# -- simulate ---------------------------------------------------------------


def _cmd_simulate(args, cfg) -> int:
    ratio = _ratio_of(args, cfg, 2)
    vin = _pick(args, cfg, "vin", _si.parse_quantity)
    caps = _pick(args, cfg, "caps", _float_list)
    cout = _pick(args, cfg, "cout", _si.parse_quantity)
    tol = _pick(args, cfg, "tol", _si.parse_quantity, None)
    max_periods = _pick(args, cfg, "max_periods", _int, 500)
    order = _pick(args, cfg, "order", str, "spawn")
    fmt = _pick(args, cfg, "format", str, "text")
    n = ratio.resolution
    if len(caps) != n:
        raise _UsageError(f"need {n} flying capacitances, got {len(caps)}")
    init = _pick(args, cfg, "init", _float_list, [0.0] * (n + 1))
    if len(init) != n + 1:
        raise _UsageError(f"--init needs {n + 1} voltages (V1..V{n},Vo), got {len(init)}")

    if order == "spawn":
        sequence = list(spawn_codes(ratio))
    elif order == "sorted":
        sequence = sort_codes_by_zeros(spawn_codes(ratio))
    elif order == "balanced":
        sequence = list(balanced_sequence(ratio))
    else:
        raise _UsageError(f"unknown slot order {order!r}")

    state = BankState(tuple(caps), cout, tuple(init[:n]), init[n])
    trace = run(state, sequence, vin, tol=tol, max_periods=max_periods)

    if args.trace:
        with open(args.trace, "w") as handle:
            write_trace_csv(trace, handle)
    if args.locus:
        with open(args.locus, "w") as handle:
            write_locus_csv(charge_locus(trace, len(sequence)), handle)

    periods = len(trace.records) // len(sequence)
    final = trace.final_state
    volts = " ".join(f"{v:.6g}" for v in final.flying_voltages)
    if fmt == "json":
        _emit_json(
            {
                "ratio": str(ratio),
                "converged": trace.converged,
                "periods": periods,
                "adjustment_iterations": trace.adjustment_iterations,
                "flying_voltages": list(final.flying_voltages),
                "output_voltage": final.output_voltage,
            }
        )
    elif fmt == "csv":
        write_trace_csv(trace, sys.stdout)
    else:
        if trace.converged:
            print(
                f"converged after {periods} periods "
                f"({trace.adjustment_iterations} iterations to adjust)"
            )
        print(f"limits: {volts} | {final.output_voltage:.6g} V")
    if not trace.converged:
        print(f"did not converge within {max_periods} periods", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# -- req --------------------------------------------------------------------


def _cmd_req(args, cfg) -> int:
    f_s = _pick(args, cfg, "fs", _si.parse_quantity)
    c = _pick(args, cfg, "c", _si.parse_quantity)
    r_on = _pick(args, cfg, "ron", _si.parse_quantity)
    switches = _pick(args, cfg, "switches", _int)
    slot = _pick(args, cfg, "slot", _si.parse_slot, None)
    resolution = _pick(args, cfg, "n", _int, 3)
    fmt = _pick(args, cfg, "format", str, "text")
    if resolution < 1:
        raise _UsageError("--n must be at least 1")

    if getattr(args, "ratio", None) is not None or "ratio" in cfg:
        ratios = [_ratio_of(args, cfg, 2)]
    else:
        ratios = [TargetRatio(m, 2, resolution) for m in range(1, 2**resolution)]

    entries = []
    for ratio in ratios:
        active = active_schedule(ratio)
        if slot is None:
            t_over_ts = Fraction(1, len(active))
        elif isinstance(slot, Fraction):
            t_over_ts = slot
        else:
            t_over_ts = Fraction(slot) * Fraction(str(f_s))
        spec = build_req_spec(active, f_s, c, r_on, switches, t_over_ts)
        entries.append(
            {
                "ratio": str(ratio),
                "slots": len(active),
                "t_over_ts": t_over_ts,
                "req_ohm": req_multi(spec),
                "floor_over_r": req_zero_beta_multiplier(spec),
            }
        )

    if fmt == "json":
        _emit_json(
            {
                "f_s": f_s,
                "c": c,
                "r_on": r_on,
                "switches_per_loop": switches,
                "rows": [
                    {
                        "ratio": e["ratio"],
                        "slots": e["slots"],
                        "t_over_ts": str(e["t_over_ts"]),
                        "req_ohm": e["req_ohm"],
                        "floor_over_r": str(e["floor_over_r"]),
                    }
                    for e in entries
                ],
            }
        )
        return EXIT_OK

    def tts_text(value: Fraction) -> str:
        return str(value) if value.denominator <= 64 else f"{float(value):.4g}"

    if fmt == "csv":
        print("ratio,slots,t_over_ts,req_ohm,floor_over_r")
        for e in entries:
            print(
                f"{e['ratio']},{e['slots']},{tts_text(e['t_over_ts'])},"
                f"{e['req_ohm']:.4f},{e['floor_over_r']}"
            )
        return EXIT_OK

    table = [("ratio", "slots", "t/Ts", "R_eq[Ohm]", "floor[R]")]
    for e in entries:
        table.append(
            (
                e["ratio"],
                str(e["slots"]),
                tts_text(e["t_over_ts"]),
                f"{e['req_ohm']:.4f}",
                str(e["floor_over_r"]),
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(5)]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK


# -- dither -----------------------------------------------------------------


def _cmd_dither(args, cfg) -> int:
    target = _pick(args, cfg, "target", _si.parse_fraction)
    resolution = _pick(args, cfg, "n", _int, 3)
    max_period = _pick(args, cfg, "max_period", _int, 8)
    fmt = _pick(args, cfg, "format", str, "text")
    if not 0 < target < 1:
        raise _UsageError(f"target must lie strictly between 0 and 1, got {target}")

    plan = dither_plan(target, resolution, max_period)
    average = dither_average(plan)
    if fmt == "json":
        _emit_json(plan.to_json_dict() | {"target": str(target)})
    elif fmt == "csv":
        print("ratio,weight")
        for ratio, weight in zip(plan.ratios, plan.weights):
            print(f"{ratio},{weight}")
    else:
        body = " + ".join(
            f"{weight}x {ratio}" for ratio, weight in zip(plan.ratios, plan.weights)
        )
        print(f"{body} = {average}")
    return EXIT_OK


# -- ldo --------------------------------------------------------------------


def _cmd_ldo(args, cfg) -> int:
    vin = _pick(args, cfg, "vin", _si.parse_quantity)
    vout = _pick(args, cfg, "vout", _si.parse_quantity)
    dropout = _pick(args, cfg, "dropout", _si.parse_quantity, 0.0)
    resolution = _pick(args, cfg, "n", _int, 3)
    fmt = _pick(args, cfg, "format", str, "text")

    choice = ldo_select_ratio(vin, vout, dropout, resolution, allow_step_up=not args.no_step_up)
    bound = ldo_efficiency_bound(vout, dropout)
    direction = "step-up" if choice.step_up else "step-down"
    if fmt == "json":
        _emit_json(
            {
                "ratio": str(choice),
                "step_up": choice.step_up,
                "gain": str(choice.gain),
                "efficiency_bound": bound,
            }
        )
    else:
        print(f"ratio {choice} {direction}, efficiency bound {bound:.4f}")
    return EXIT_OK


# -- wiring -----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value option file")
    sub.add_argument("--format", choices=("text", "csv", "json"), help="output format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scc-forge",
        description="Switched-capacitor converter design tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="list the code family of a ratio")
    p.add_argument("--ratio", help="target ratio m/r**n, e.g. 3/8")
    p.add_argument("--radix", help="digit radix (default 2)")
    p.add_argument(
        "--generator",
        choices=("spawn", "enumerate", "balanced"),
        help="family generator or balanced schedule (default spawn)",
    )
    p.add_argument("--check", action="store_true", help="cross-validate the generators")
    _add_common(p)

    p = sub.add_parser("solve", help="solve the voltage-loop system of a ratio")
    p.add_argument("--ratio", help="target ratio m/r**n")
    p.add_argument("--radix", help="digit radix (default 2)")
    p.add_argument("--stepup", action="store_true", help="solve the reciprocal system")
    p.add_argument("--eliminate", action="store_true", help="drop dependent rows first")
    _add_common(p)

    p = sub.add_parser("simulate", help="charge-redistribution run to steady state")
    p.add_argument("--ratio", help="target ratio m/2**n")
    p.add_argument("--vin", help="input voltage")
    p.add_argument("--caps", help="flying capacitances, comma separated")
    p.add_argument("--cout", help="output capacitance")
    p.add_argument("--init", help="initial voltages V1..Vn,Vo (default zeros)")
    p.add_argument("--tol", help="convergence tolerance (default 1e-9*vin)")
    p.add_argument("--max-periods", dest="max_periods", help="period budget (default 500)")
    p.add_argument(
        "--order",
        choices=("spawn", "sorted", "balanced"),
        help="slot order within a period (default spawn)",
    )
    p.add_argument("--trace", help="write the per-slot trace CSV here")
    p.add_argument("--locus", help="write the charge-locus CSV here")
    _add_common(p)

    p = sub.add_parser("req", help="equivalent-resistance table")
    p.add_argument("--fs", help="switching frequency")
    p.add_argument("--c", help="flying capacitance")
    p.add_argument("--ron", help="switch on-resistance")
    p.add_argument("--switches", help="switches per charge loop")
    p.add_argument("--slot", help="slot duration: Ts/N or seconds (default even split)")
    p.add_argument("--ratio", help="single ratio (default: whole family at --n)")
    p.add_argument("--n", help="resolution for the full table (default 3)")
    _add_common(p)

    p = sub.add_parser("dither", help="two-ratio averaging plan for a target")
    p.add_argument("--target", help="target ratio in (0, 1), e.g. 0.4 or 2/5")
    p.add_argument("--n", help="bank resolution (default 3)")
    p.add_argument("--max-period", dest="max_period", help="longest plan (default 8)")
    _add_common(p)

    p = sub.add_parser("ldo", help="pick the cheapest ratio ahead of a linear stage")
    p.add_argument("--vin", help="input voltage")
    p.add_argument("--vout", help="regulator output voltage")
    p.add_argument("--dropout", help="regulator dropout (default 0)")
    p.add_argument("--n", help="bank resolution (default 3)")
    p.add_argument("--no-step-up", action="store_true", help="step-down lattice only")
    _add_common(p)

    return parser


_HANDLERS = {
    "codes": _cmd_codes,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "req": _cmd_req,
    "dither": _cmd_dither,
    "ldo": _cmd_ldo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _si.load_config(args.config) if args.config else {}
    except (DomainError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args, cfg)
    except _UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, SingularSystemError, FitError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
