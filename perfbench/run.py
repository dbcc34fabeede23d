"""sccforge benchmark: one workload, closed loop, one op in flight.

    python3 perfbench/run.py --workload lattice|settle|interactive
        --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a separate traced run. Every op's output is checked. The last line of
stdout is the JSON result; the line before it, starting "detail ", carries
the raw host figures the steadiness command reads. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import calib
import checkout
import stats
import tracing

SETUP_SAMPLES = 7
WARMUP_S = 1.0
FAILED = object()


def measure_setup(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median calibrated set-up time over fresh child processes, in seconds."""

    def child(*args: str) -> float:
        done = subprocess.run(
            [sys.executable, str(checkout.ROOT / "perfbench" / "setup_child.py"), *args],
            capture_output=True, text=True, timeout=120, check=True, cwd=checkout.ROOT,
        )
        return json.loads(done.stdout)["raw_s"]

    refs = [child("reference")]
    raws = []
    for _ in range(SETUP_SAMPLES):
        raws.append(child(workload, str(seed)))
        refs.append(child("reference"))
    samples = [r * 2 * calib.REF_IMPORT_S / (refs[i] + refs[i + 1]) for i, r in enumerate(raws)]
    return statistics.median(samples), refs


class Phase:
    """Per-op records of one measured phase."""

    def __init__(self) -> None:
        self.raw_s: list[float] = []
        self.before: list[int] = []
        self.ok = 0
        self.self_s: list[dict[str, float]] = []
        self.counts: dict[str, float] = {}
        self.cycle_ends: list[int] = []

    def calibrated_ms(self, clock: calib.Clock) -> list[float]:
        factors = calib.scale_factors(self.before, clock.calibs_ms)
        return [r * f * 1e3 for r, f in zip(self.raw_s, factors)]

    def ops_per_s(self, clock: calib.Clock) -> float:
        """Median over cycles of ops per second of calibrated op time.

        A median, so one cycle disturbed by work the calibration does not
        track cannot move it.
        """
        lat = self.calibrated_ms(clock)
        starts = [0] + self.cycle_ends[:-1]
        return statistics.median(
            (end - start) / (sum(lat[start:end]) / 1e3) for start, end in zip(starts, self.cycle_ends)
        )


def run_phase(work, clock: calib.Clock, seconds: float, tracer: tracing.Tracer | None = None) -> Phase:
    """Run whole cycles of ops until `seconds` have passed."""
    phase = Phase()
    end = time.perf_counter() + seconds
    while True:
        for op in work.cycle():
            phase.before.append(clock.before_op())
            if tracer is None:
                t0 = time.perf_counter()
                try:
                    out = work.run(op)
                except Exception:
                    out = FAILED
                phase.raw_s.append(time.perf_counter() - t0)
            else:
                tracer.begin_op()
                try:
                    out = work.run(op)
                except Exception:
                    out = FAILED
                spans = tracer.end_op()
                phase.raw_s.append(spans[-1][4] - spans[-1][3])
                phase.self_s.append(tracing.self_times(spans))
            try:
                ok = out is not FAILED and work.check(op, out)
            except Exception:
                ok = False
            phase.ok += ok
            if out is not FAILED:
                for key, value in work.counts(op, out).items():
                    phase.counts[key] = phase.counts.get(key, 0) + value
            # free the output here, not inside the next op's timed region
            out = None
        phase.cycle_ends.append(len(phase.raw_s))
        if time.perf_counter() >= end:
            break
    clock.calibrate()
    return phase


def raw_ops_per_s(phase: Phase) -> float:
    """Uncalibrated ops per second of op time, over the whole phase."""
    return len(phase.raw_s) / sum(phase.raw_s)


def end_to_end(work, phase: Phase, clock: calib.Clock, setup_s: float) -> dict:
    lat = phase.calibrated_ms(clock)
    return {
        "ops_per_s": (phase.ops_per_s(clock), "1/s"),
        "op_p50_ms": (stats.percentile(lat, 50), "ms"),
        "op_tail_ms": (stats.percentile(lat, work.tail), "ms"),
        "ok_ratio": (phase.ok / len(lat), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(plain: Phase, traced: Phase, tracer: tracing.Tracer, clock: calib.Clock) -> dict:
    n = len(traced.raw_s)
    factors = calib.scale_factors(traced.before, clock.calibs_ms)
    out = {}
    for layer in ("harness",) + tracing.LAYERS:
        total = sum(s.get(layer, 0.0) * f for s, f in zip(traced.self_s, factors))
        out[f"{layer}.self_ms"] = (total * 1e3 / n, "ms/op")
    out["trace.op_ms"] = (sum(traced.calibrated_ms(clock)) / n, "ms/op")
    counts = {**tracer.counts, **traced.counts}
    for key in (
        "numrep.codes", "linsolve.calls", "linsolve.rows", "linsolve.dropped_rows",
        "lossmodel.slots", "chargesim.slots", "chargesim.periods", "cli.out_bytes",
    ):
        out[key] = (counts.get(key, 0) / n, "count/op")
    runs = counts.get("chargesim.runs", 0)
    out["chargesim.converged_ratio"] = (counts.get("chargesim.converged", 0) / runs if runs else 0.0, "ratio")
    out["machine.calib_ms"] = (statistics.median(clock.calibs_ms), "ms")
    out["machine.raw_ops_per_s"] = (raw_ops_per_s(plain), "1/s")
    out["trace.overhead"] = (traced.ops_per_s(clock) / plain.ops_per_s(clock), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not checkout.use_source():
        print("perfbench: no src/sccforge in this checkout", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    detail: dict = {"workload": args.workload, "seed": args.seed}
    if not args.trace:
        setup_s, refs = measure_setup(args.workload, args.seed)
        detail["reference_import_s"] = statistics.median(refs)
    work = workloads.WORKLOADS[args.workload](args.seed)
    clock = calib.Clock()
    run_phase(work, clock, WARMUP_S)
    clock = calib.Clock()

    if args.trace:
        plain = run_phase(work, clock, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install([m for name, m in sys.modules.items() if name.startswith("sccforge")] + [workloads])
        try:
            traced = run_phase(work, clock, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        out_dir = checkout.ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
        metrics = per_layer(plain, traced, tracer, clock)
        phases = [plain, traced]
    else:
        phase = run_phase(work, clock, args.seconds)
        metrics = end_to_end(work, phase, clock, setup_s)
        phases = [phase]
        detail["raw_ops_per_s"] = raw_ops_per_s(phase)

    attempted = sum(len(p.raw_s) for p in phases)
    ok = sum(p.ok for p in phases)
    n = len(phases[-1].raw_s)
    detail.update(
        calib_ms=statistics.median(clock.calibs_ms),
        calibrations=len(clock.calibs_ms),
        cycles=[len(p.cycle_ends) for p in phases],
        samples=n,
        tail=f"p{work.tail:g}",
        tail_rule=f"p{stats.tail_percentile(n) or 0:g}",
    )
    print("detail " + json.dumps(detail))
    result = {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
