"""Command line front end: scc-forge <command> [options].

Commands: codes, solve, simulate, req, dither, ldo. Value options may come
from a flat key = value config file (--config); explicit flags win, and a
config value gets the same check as the flag. The file may set any
command's value options, each once, and no other key. Output is
deterministic text by default; --format csv or json where supported.

Exit codes: 0 success, 1 internal cross-check failure, 2 usage error,
3 domain error, 4 simulation did not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from decimal import Decimal
from typing import Iterable, NamedTuple

from . import _si
from .chargesim import BankState, charge_locus, run, trace_csv_lines
from .errors import DomainError, ResourceLimitError, SingularSystemError, require_exact
from .linsolve import build_system, find_redundant, solve_unique, sort_codes_by_zeros, step_up
from .lossmodel import build_req_spec, req_multi, req_zero_beta_multiplier
from .numrep import SignedDigitCode, TargetRatio, balanced_sequence, enumerate_codes, spawn_codes
from .regulation import dither_average, dither_plan, ldo_efficiency_bound, ldo_select_ratio

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4

_REQUIRED = object()
# Largest --n for the whole-lattice req table (1,023 rows); each step past it
# doubles the table.
_REQ_TABLE_LIMIT = 10
# Largest --ratio denominator; at 2**16 the largest code family holds 2,584 codes.
_RATIO_DENOMINATOR_LIMIT = 2**16
# Largest simulate budget, --max-periods times slots per period; it admits the
# default 500 periods of that largest family.
_SIM_SLOT_LIMIT = 1_500_000


class _UsageError(Exception):
    pass


class _Out(NamedTuple):
    """A command's output in each format; json or csv None falls back to the text.

    csv and text may be one-shot iterables, built as they are read: _render
    consumes the one it prints, once, and leaves the other unread.
    """

    json: dict | None
    csv: Iterable[str] | None
    text: Iterable[str]
    code: int = EXIT_OK
    err: str | None = None  # one line for stderr, printed after stdout


class _Choice(tuple):
    """Converter that accepts one of the listed names."""

    def __call__(self, text: str) -> str:
        if text not in self:
            raise ValueError(f"expected one of {', '.join(self)}, got {text!r}")
        return text


def _int(text: str) -> int:
    return int(text, 10)


def _float_list(text: str) -> list[float]:
    items = [piece for piece in text.split(",") if piece.strip()]
    if not items:
        raise DomainError("empty list")
    return [_si.parse_quantity(piece) for piece in items]


def _target(text: str | None, radix: int) -> TargetRatio:
    """The ratio m/d at this radix; d is kept literally, so 4/8 has three digits."""
    if text is None:
        raise _UsageError("missing required option --ratio")
    parts = text.split("/")
    if len(parts) != 2:
        raise _UsageError(f"ratio must look like m/{radix}**n, got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"ratio must be two integers, got {text!r}") from None
    try:
        ratio = TargetRatio.from_fraction(num, den, radix)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None
    if den > _RATIO_DENOMINATOR_LIMIT:
        raise ResourceLimitError(f"ratio {text} is past the denominator limit 2**16")
    return ratio


# name -> the code sequence of a ratio; codes --generator and simulate --order
# each offer their own names from it. Each entry looks its function up at call
# time, so a wrapper set on this module's name (a tracer's) sees the call.
_SEQUENCES = {
    "spawn": lambda ratio: spawn_codes(ratio),
    "sorted": lambda ratio: sort_codes_by_zeros(spawn_codes(ratio)),
    "balanced": lambda ratio: balanced_sequence(ratio),
}


# -- commands; each docstring is the command's help line ---------------------


def _cmd_codes(o) -> _Out:
    """List the code family of a ratio."""
    ratio = _target(o.ratio, o.radix)
    if o.check:
        left = spawn_codes(ratio)
        right = enumerate_codes(ratio)
        if left.as_set() != right.as_set():
            err = (
                f"generator mismatch for {ratio}: spawn {len(left)} codes, "
                f"enumerate {len(right)} codes"
            )
            return _Out(None, None, [], EXIT_MISMATCH, err)
        return _Out(None, None, [f"generators agree on {len(left)} codes"])

    codes = _SEQUENCES[o.generator](ratio)
    header = ",".join(["a0"] + [f"d{j}" for j in range(1, ratio.resolution + 1)])
    return _Out(
        {"ratio": str(ratio), "generator": o.generator, "codes": [c.to_json_dict() for c in codes]},
        itertools.chain((header,), (",".join(map(str, (c.a0, *c.digits))) for c in codes)),
        map(SignedDigitCode.to_text, codes),
    )


def _cmd_solve(o) -> _Out:
    """Solve the voltage-loop system of a ratio."""
    ratio = _target(o.ratio, o.radix)
    work = ratio.reduced()
    notes = [] if work == ratio else [f"note: {ratio} reduces to {work}; solving the reduced bank"]

    system = build_system(spawn_codes(work))
    redundant = find_redundant(system)
    solution = solve_unique(step_up(system) if o.stepup else system)
    # the system solved is unique, so rank(A) = rank([A|b]) = unknowns
    n = system.unknowns

    pairs = list(zip(system.labels, solution))
    line = " ".join(f"{name}={value}" for name, value in pairs)
    if not o.stepup:
        line += f"; redundant rows: {[i + 1 for i in redundant]}"
    payload = {
        "ratio": str(ratio),
        "solved": str(work),
        "step_up": o.stepup,
        "rank_a": n,
        "rank_augmented": n,
        "unknowns": n,
        "unique": True,
        "solution": {name: str(value) for name, value in pairs},
        "redundant_row_indices": redundant,
        "eliminated": False,
    }
    csv = ["label,value"] + [f"{name},{value}" for name, value in pairs]
    return _Out(payload, csv, notes + [line])


def _cmd_simulate(o) -> _Out:
    """Charge-redistribution run to steady state."""
    ratio = _target(o.ratio, 2)
    n = ratio.resolution
    if len(o.caps) != n:
        raise _UsageError(f"need {n} flying capacitances, got {len(o.caps)}")
    init = o.init or [0.0] * (n + 1)
    if len(init) != n + 1:
        raise _UsageError(f"--init needs {n + 1} voltages (V1..V{n},Vo), got {len(init)}")

    sequence = list(_SEQUENCES[o.order](ratio))
    if o.max_periods * len(sequence) > _SIM_SLOT_LIMIT:
        raise ResourceLimitError(
            f"--max-periods {o.max_periods} at {len(sequence)} slots a period is past "
            f"the limit of {_SIM_SLOT_LIMIT:,} slots"
        )
    state = BankState(tuple(o.caps), o.cout, tuple(init[:n]), init[n])
    trace = run(state, sequence, o.vin, tol=o.tol, max_periods=o.max_periods)

    rows = trace_csv_lines(trace) if o.trace or o.format == "csv" else None
    files = [(o.trace, rows)] if o.trace else []
    if o.locus:
        points = (f"{angle:.12g},{radius:.12g}" for angle, radius in charge_locus(trace))
        files.append((o.locus, ["angle_rad,abs_charge", *points]))
    try:
        for path, lines in files:
            with open(path, "w") as handle:
                handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise _UsageError(str(exc)) from None

    periods = trace.periods
    final = trace.final_state
    volts = " ".join(f"{v:.6g}" for v in final.flying_voltages)
    text = [f"limits: {volts} | {final.output_voltage:.6g} V"]
    payload = {
        "ratio": str(ratio),
        "converged": trace.converged,
        "periods": periods,
        "adjustment_iterations": trace.adjustment_iterations,
        "flying_voltages": list(final.flying_voltages),
        "output_voltage": final.output_voltage,
    }
    if not trace.converged:
        err = f"did not converge within {o.max_periods} periods"
        return _Out(payload, rows, text, EXIT_NO_CONVERGENCE, err)
    adjust = f"({trace.adjustment_iterations} iterations to adjust)"
    text.insert(0, f"converged after {periods} periods {adjust}")
    return _Out(payload, rows, text)


def _cmd_req(o) -> _Out:
    """Equivalent-resistance table."""
    if o.n < 1:
        raise DomainError("resolution must be at least 1")
    if o.ratio is None:
        if o.n > _REQ_TABLE_LIMIT:
            raise ResourceLimitError(
                f"a table at --n {o.n} has 2**{o.n} - 1 rows; the limit is --n {_REQ_TABLE_LIMIT}"
            )
        ratios = [TargetRatio(m, 2, o.n) for m in range(1, 2**o.n)]
    else:
        ratios = [_target(o.ratio, 2)]
        # the ratio's denominator sets the resolution; a different explicit --n is a conflict
        if "n" in o.given and o.n != ratios[0].resolution:
            raise _UsageError(
                f"--n {o.n} does not match --ratio {o.ratio}, "
                f"whose resolution is {ratios[0].resolution}"
            )

    rows = []
    table = [("ratio", "slots", "t/Ts", "R_eq[Ohm]", "floor[R]")]
    t_over_ts = o.slot  # None (the even split) or a fraction of the period, "Ts/4"
    if isinstance(o.slot, Decimal):  # seconds, "2.5u": times --fs, a fraction of the period
        t_over_ts = math.prod(require_exact("--slot and --fs must be finite", o.slot, o.fs))
    for ratio in ratios:
        spec = build_req_spec(ratio, o.fs, o.c, o.ron, o.switches, t_over_ts)
        req = req_multi(spec)
        floor = req_zero_beta_multiplier(spec)
        rows.append(
            {
                "ratio": str(ratio),
                "slots": len(spec.slots),
                "t_over_ts": str(spec.t_over_ts),
                "req_ohm": req,
                "floor_over_r": str(floor),
            }
        )
        tts = _si.fraction_text(spec.t_over_ts)
        table.append((str(ratio), str(len(spec.slots)), tts, f"{req:.4f}", str(floor)))

    widths = [max(len(row[i]) for row in table) for i in range(5)]
    return _Out(
        {"f_s": o.fs, "c": o.c, "r_on": o.ron, "switches_per_loop": o.switches, "rows": rows},
        ["ratio,slots,t_over_ts,req_ohm,floor_over_r"] + [",".join(row) for row in table[1:]],
        ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table],
    )


def _cmd_dither(o) -> _Out:
    """Two-ratio averaging plan for a target."""
    if not 0 < o.target < 1:
        raise _UsageError(f"target must lie strictly between 0 and 1, got {o.target}")
    plan = dither_plan(o.target, o.n, o.max_period)
    pairs = list(zip(plan.ratios, plan.weights))
    body = " + ".join(f"{weight}x {ratio}" for ratio, weight in pairs)
    return _Out(
        plan.to_json_dict() | {"target": str(o.target)},
        ["ratio,weight"] + [f"{ratio},{weight}" for ratio, weight in pairs],
        [f"{body} = {dither_average(plan)}"],
    )


def _cmd_ldo(o) -> _Out:
    """Pick the cheapest ratio ahead of a linear stage."""
    choice = ldo_select_ratio(o.vin, o.vout, o.dropout, o.n, allow_step_up=not o.no_step_up)
    bound = ldo_efficiency_bound(o.vout, o.dropout)
    direction = "step-up" if choice.step_up else "step-down"
    payload = {
        "ratio": str(choice),
        "step_up": choice.step_up,
        "gain": str(choice.gain),
        "efficiency_bound": bound,
    }
    return _Out(payload, None, [f"ratio {choice} {direction}, efficiency bound {bound:.4f}"])


# -- option and command tables -----------------------------------------------

_QUANTITY = _si.parse_quantity

# name -> (converter, default, help). A string default goes through the
# converter like a flag value; bool marks a store-true switch.
_OPTIONS = {
    "ratio": (str, None, "target ratio m/r**n, e.g. 3/8 (req: one row, not the table)"),
    "radix": (_int, "2", "digit radix"),
    "generator": (_Choice(("spawn", "balanced")), "spawn", "the family, or its balanced schedule"),
    "check": (bool, False, "cross-validate the generators"),
    "stepup": (bool, False, "solve the reciprocal system"),
    "vin": (_QUANTITY, _REQUIRED, "input voltage"),
    "caps": (_float_list, _REQUIRED, "flying capacitances, comma separated"),
    "cout": (_QUANTITY, _REQUIRED, "output capacitance"),
    "init": (_float_list, None, "initial voltages V1..Vn,Vo (default zeros)"),
    "tol": (_QUANTITY, None, "convergence tolerance (default 1e-9*vin)"),
    "max_periods": (_int, "500", "period budget"),
    "order": (_Choice(("spawn", "sorted", "balanced")), "spawn", "slot order within a period"),
    "trace": (str, None, "write the per-slot trace CSV here"),
    "locus": (str, None, "write the charge-locus CSV here"),
    "fs": (_QUANTITY, _REQUIRED, "switching frequency"),
    "c": (_QUANTITY, _REQUIRED, "flying capacitance"),
    "ron": (_QUANTITY, _REQUIRED, "switch on-resistance"),
    "switches": (_int, _REQUIRED, "switches per charge loop"),
    "slot": (_si.parse_slot, None, "slot duration: Ts/N, or exact seconds (default even split)"),
    "n": (_int, "3", "bank resolution, n <= 1000 (req: the table of every m/2**n, n <= 10)"),
    "target": (_si.parse_fraction, _REQUIRED, "target ratio in (0, 1), e.g. 0.4 or 2/5"),
    "max_period": (_int, "8", "longest plan"),
    "vout": (_QUANTITY, _REQUIRED, "regulator output voltage"),
    "dropout": (_QUANTITY, "0", "regulator dropout"),
    "no_step_up": (bool, False, "step-down lattice only"),
    "format": (_Choice(("text", "csv", "json")), "text", "output format"),
    "config": (str, None, "flat key = value option file"),
}

# name -> (handler, value options, options read from argv only). Every
# command also takes --format (a value option) and --config (argv only).
_COMMANDS = {
    "codes": (_cmd_codes, ("ratio", "radix", "generator"), ("check",)),
    "solve": (_cmd_solve, ("ratio", "radix"), ("stepup",)),
    "simulate": (
        _cmd_simulate,
        ("ratio", "vin", "caps", "cout", "init", "tol", "max_periods", "order"),
        ("trace", "locus"),
    ),
    "req": (_cmd_req, ("fs", "c", "ron", "switches", "slot", "ratio", "n"), ()),
    "dither": (_cmd_dither, ("target", "n", "max_period"), ()),
    "ldo": (_cmd_ldo, ("vin", "vout", "dropout", "n"), ("no_step_up",)),
}
# the keys a --config file may set: one file serves every command
_CONFIG_KEYS = {"format"}.union(*(options for _, options, _ in _COMMANDS.values()))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="scc-forge",
        description="Switched-capacitor converter design tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, options, argv_only) in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        for name in (*options, *argv_only, "config", "format"):
            conv, default, text = _OPTIONS[name]
            if conv is bool:
                p.add_argument(_flag(name), action="store_true", help=text)
                continue
            if isinstance(default, str):
                text = f"{text} (default {default})"
            choices = conv if isinstance(conv, _Choice) else None
            p.add_argument(_flag(name), choices=choices, help=text)
    return parser


def _pick(args, cfg: dict, name: str):
    """Option value from flags, then config file, then the default."""
    conv, default, _ = _OPTIONS[name]
    raw = getattr(args, name)
    if raw is None:
        raw = cfg.get(name, default)
    if raw is _REQUIRED:
        raise _UsageError(f"missing required option {_flag(name)}")
    if raw is None:
        return None
    try:
        return conv(raw)
    except (DomainError, ValueError) as exc:
        raise _UsageError(f"bad value for {_flag(name)}: {exc}") from None


def _render(fmt: str, out: _Out) -> str:
    if fmt == "json" and out.json is not None:
        return json.dumps({"schema": "scc-forge/1", **out.json}, indent=2)
    return "\n".join(out.csv if fmt == "csv" and out.csv is not None else out.text)


def _emit(text: str = "") -> None:
    """Print text, if any, and flush stdout; a reader that has gone is not an error."""
    try:
        if text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # keep the exit code, and give the flush at exit devnull
        with contextlib.suppress(AttributeError, ValueError):  # no real file descriptor
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        _emit()  # --help text
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _si.load_config(args.config) if args.config else {}
        unknown = [key for key in cfg if key not in _CONFIG_KEYS]
        if unknown:
            raise DomainError(f"{args.config}: key {unknown[0]!r} is not a config option")
    except (DomainError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handler, options, argv_only = _COMMANDS[args.command]
    try:
        values = {name: _pick(args, cfg, name) for name in (*options, "format")}
        values |= {name: getattr(args, name) for name in argv_only}
        values["given"] = {name for name in options if getattr(args, name) is not None or name in cfg}
        out = handler(argparse.Namespace(**values))
    except _UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, SingularSystemError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(_render(values["format"], out))
    if out.err:
        print(out.err, file=sys.stderr)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
