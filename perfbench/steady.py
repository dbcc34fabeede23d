"""Steadiness check: two interleaved sets of runs per workload.

    python3 perfbench/steady.py --runs 5 --seconds 20 [--workloads lattice settle]

Runs run.py `--runs` times per set and workload, alternating set A and set
B with a fresh seed each run, then prints per metric the median of each
set, the IQR of each set and of all runs as a share of the median, and the
difference between the set medians; then machine.calib_ms of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

RUN = Path(__file__).with_name("run.py")


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", nargs="+", default=["lattice", "settle", "interactive"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true", help="also print every run's metrics")
    args = parser.parse_args()

    results = {w: {"A": [], "B": []} for w in args.workloads}
    seed = args.first_seed
    for i in range(args.runs):
        for which in ("AB" if i % 2 == 0 else "BA"):
            for w in args.workloads:
                detail, result = one_run(w, seed, args.seconds)
                results[w][which].append((seed, detail, result))
                print(f"{w} set {which} seed {seed}: correct={result['correct']} "
                      f"calib_ms={detail['calib_ms']:.4f} samples={detail['samples']}", file=sys.stderr)
                seed += 1

    for w, sets in results.items():
        print(f"\n== {w}")
        print(f"{'metric':28} {'median A':>12} {'median B':>12} {'B-A':>8} {'IQR A':>7} {'IQR B':>7} {'IQR all':>7}")
        names = sets["A"][0][2]["metrics"]
        for name in names:
            a = [r["metrics"][name]["value"] for _, _, r in sets["A"]]
            b = [r["metrics"][name]["value"] for _, _, r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            diff = (mb - ma) / ma if ma else 0.0

            def spread(values):
                return f"{stats.iqr_share(values):7.1%}" if len(values) > 1 and statistics.median(values) else "      -"

            print(f"{name:28} {ma:12.5g} {mb:12.5g} {diff:8.1%} {spread(a)} {spread(b)} {spread(a + b)}")
        for which in "AB":
            calibs = " ".join(f"{d['calib_ms']:.3f}" for _, d, _ in sets[which])
            print(f"machine.calib_ms set {which}: {calibs}")
        if args.verbose:
            for which in "AB":
                for seed, detail, result in sets[which]:
                    values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                    print(f"  {which} seed {seed} raw_ops_per_s={detail.get('raw_ops_per_s', 0):.4g} {values}")
        correct = all(r["correct"] for s in sets.values() for _, _, r in s)
        print(f"all runs correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
