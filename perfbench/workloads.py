"""The three workloads: inputs built from a seed, one op, one output check.

Each workload builds its inputs once (set-up) and then deals one cycle of
ops at a time, in an order shuffled by the seeded generator. The harness
always measures whole cycles, so every run times the same op mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# Bound through this module's namespace, so the tracer can wrap each call.
from sccforge import (
    BankState,
    TargetRatio,
    build_req_spec,
    build_system,
    find_redundant,
    req_multi,
    run,
    solve_unique,
    sort_codes_by_zeros,
    spawn_codes,
)
from sccforge.cli import main as cli_main

EXPECTED_PATH = Path(__file__).with_name("expected_interactive.json")


class Workload:
    """A fixed list of ops per cycle, shuffled by the seeded generator."""

    tail: float  # the tail percentile reported as op_tail_ms
    ops: list

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def cycle(self) -> list:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def counts(op, out) -> dict:
        """Counters the harness reads from an op's output."""
        return {}


class Lattice(Workload):
    """Full design pipeline per ratio, from the code family to R_eq.

    Every odd m at radix 2 for n = 7 and 8, every m coprime to 3 at radix 3
    for n = 4, and the four deepest radix-2 families at n = 10 (m = 341 and
    683 with 144 codes, m = 339 and 685 with 131). The deep four are 1.6% of
    the ops and take the p99 tail.
    """

    tail = 99.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        ratios = [TargetRatio(m, 2, 7) for m in range(1, 2**7, 2)]
        ratios += [TargetRatio(m, 2, 8) for m in range(1, 2**8, 2)]
        ratios += [TargetRatio(m, 3, 4) for m in range(1, 3**4) if m % 3]
        ratios += [TargetRatio(m, 2, 10) for m in (341, 683, 339, 685)]
        self.ops = [
            (r, tuple(Fraction(1, r.radix**j) for j in range(1, r.resolution + 1)) + (r.value,))
            for r in ratios
        ]

    @staticmethod
    def run(op):
        ordered = sort_codes_by_zeros(spawn_codes(op[0]))
        drop = set(find_redundant(build_system(ordered)))
        active = [code for i, code in enumerate(ordered) if i not in drop]
        solution = solve_unique(build_system(active))
        spec = build_req_spec(active, 1e5, 4.7e-6, 1.2, 4)
        return solution, req_multi(spec)

    @staticmethod
    def check(op, out) -> bool:
        solution, req = out
        return solution == op[1] and math.isfinite(req) and req > 0


class Settle(Workload):
    """Charge redistribution to steady state from seeded random voltages.

    One ratio per n = 3..6 (3/8, 5/16, 11/32, 21/64; 5 to 21 slots a
    period) on 4.7 uF flying caps at 8 V. Output caps 220 uF and 2.2 mF, a
    decade apart, so periods to settle differ about tenfold. Each cycle runs
    every ratio three times on the small cap and once on the large one, so
    the median falls among the small-cap runs and the p90 tail among the
    large-cap runs.
    """

    tail = 90.0
    VIN = 8.0
    FLY = 4.7e-6
    RUNS = ((220e-6, 3), (2.2e-3, 1))  # output cap, runs per cycle
    MAX_PERIODS = 20_000
    BOUND = 1e-5  # |final - exact limit| <= BOUND * VIN

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = []
        for ratio in (TargetRatio(3, 2, 3), TargetRatio(5, 2, 4), TargetRatio(11, 2, 5), TargetRatio(21, 2, 6)):
            n = ratio.resolution
            limits = tuple(self.VIN / 2**j for j in range(1, n + 1)) + (self.VIN * float(ratio.value),)
            self.cases.append((tuple(spawn_codes(ratio)), limits))

    def cycle(self) -> list:
        ops = []
        for seq, limits in self.cases:
            n = len(limits) - 1
            for cout, repeat in self.RUNS:
                for _ in range(repeat):
                    v = [self.rng.uniform(0.0, self.VIN) for _ in range(n + 1)]
                    ops.append((BankState((self.FLY,) * n, cout, tuple(v[:n]), v[n]), seq, limits))
        self.rng.shuffle(ops)
        return ops

    @classmethod
    def run(cls, op):
        return run(op[0], op[1], cls.VIN, max_periods=cls.MAX_PERIODS)

    @classmethod
    def check(cls, op, out) -> bool:
        final = (*out.final_state.flying_voltages, out.final_state.output_voltage)
        return out.converged and all(abs(v - x) <= cls.BOUND * cls.VIN for v, x in zip(final, op[2]))


SIM = ["simulate", "--ratio", "3/8", "--vin", "8", "--caps", "4.7u,4.7u,4.7u", "--cout", "470u"]
REQ = ["req", "--fs", "100k", "--c", "4.7u", "--ron", "1.2", "--switches", "4"]
FORMATS = ("text", "csv", "json")
# (argv, runs per cycle). The weights put as many ops below the req class
# as above it, so the median falls in the middle of the req runs.
COMMANDS = (
    [(argv + ["--format", fmt], 1) for fmt in FORMATS for argv in (
        ["codes", "--ratio", "3/8"],
        ["solve", "--ratio", "3/8"],
        ["dither", "--target", "0.4"],
        ["ldo", "--vin", "10", "--vout", "3.3", "--dropout", "0.3"],
        ["codes", "--ratio", "85/256", "--generator", "balanced"],
    )]
    + [(argv + ["--format", fmt], 2) for fmt in FORMATS for argv in (REQ, ["solve", "--ratio", "85/256"], SIM)]
    + [
        (["codes", "--ratio", "3/8", "--check"], 1),
        (["codes", "--ratio", "85/256", "--check"], 1),
        (["solve", "--ratio", "3/8", "--stepup"], 1),
        (["solve", "--ratio", "4/8"], 1),
    ]
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Interactive(Workload):
    """In-process scc-forge commands: the README set in all three formats.

    Adds codes --check, the balanced schedule at n = 8, solve at 85/256 and
    simulate --format csv (every per-slot record). Per cycle, 15 ops are
    faster than req (small codes, solve, dither and ldo) and 15 slower
    (solve 85/256, simulate, balanced schedules), so the median falls in
    the middle of the seven req-class ops. The three balanced schedules are
    the slowest class, 8% of the ops, and hold the p95 tail.
    """

    tail = 95.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        expected = json.loads(EXPECTED_PATH.read_text())
        self.ops = [(argv, expected[" ".join(argv)]) for argv, runs in COMMANDS for _ in range(runs)]

    @staticmethod
    def run(op):
        return run_cli(op[0])

    @staticmethod
    def check(op, out) -> bool:
        code, text = out
        return code == 0 and digest(text) == op[1]

    @staticmethod
    def counts(op, out) -> dict:
        return {"cli.out_bytes": len(out[1].encode())}


WORKLOADS = {"lattice": Lattice, "settle": Settle, "interactive": Interactive}
