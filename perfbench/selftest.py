"""Tests of the benchmark's pure pieces.

    python3 -m pytest perfbench/selftest.py

The file name is outside pytest's default test_*.py pattern on purpose, so
the repository's own test run does not collect it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize(
    "samples, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_rule(samples, expected):
    assert stats.tail_percentile(samples) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for samples in range(20, 5000, 7):
        p = stats.tail_percentile(samples)
        assert samples * (1 - p / 100) >= 10 - 1e-9
        higher = [q for q in stats.PERCENTILES if q > p]
        assert all(samples * (1 - q / 100) < 10 for q in higher)


def test_percentile_interpolates():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 99) == 7.0


def test_iqr_share():
    assert stats.iqr_share([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


def test_bracketing_calibrations_scale_each_op():
    calibs = [1.0, 3.0, 2.0]
    # ops 0 and 1 ran between calibrations 0 and 1, op 2 between 1 and 2
    factors = calib.scale_factors([0, 0, 1], calibs, ref_ms=2.0)
    assert factors == [1.0, 1.0, pytest.approx(0.8)]


def test_a_host_twice_as_slow_reads_the_same():
    fast = calib.scale_factors([0], [1.0, 1.0], ref_ms=1.0)[0] * 10.0
    slow = calib.scale_factors([0], [2.0, 2.0], ref_ms=1.0)[0] * 20.0
    assert fast == slow == 10.0


def test_calibration_kernel_checks_and_times():
    assert calib.run_kernel() > 0
    clock = calib.Clock()
    assert clock.before_op() == len(clock.calibs_ms) - 1


def test_self_time_over_a_span_tree():
    # root (harness) 0..10 -> a (linsolve) 1..6 -> b (topology) 2..3
    #                     -> c (numrep) 7..9
    spans = [
        (2, 1, "topology", 2.0, 3.0),
        (1, 0, "linsolve", 1.0, 6.0),
        (3, 0, "numrep", 7.0, 9.0),
        (0, -1, "harness", 0.0, 10.0),
    ]
    got = tracing.self_times(spans)
    assert got == {"topology": 1.0, "linsolve": 4.0, "numrep": 2.0, "harness": 3.0}
    assert sum(got.values()) == 10.0


def test_tracer_wraps_cross_module_bindings_only():
    import types

    home = types.ModuleType("sccforge.linsolve")
    other = types.ModuleType("sccforge.cli")

    def solve(rows):
        return list(rows)

    solve.__module__ = "sccforge.linsolve"
    home.solve = solve
    other.solve = solve
    tracer = tracing.Tracer()
    tracer.install([home, other])
    assert home.solve is solve and other.solve is not solve
    tracer.begin_op()
    assert other.solve([1, 2]) == [1, 2]
    spans = tracer.end_op()
    tracer.uninstall()
    assert other.solve is solve
    assert [s[2] for s in spans] == ["linsolve", "harness"]
    assert spans[0][1] == spans[1][0]
    assert tracer.counts["linsolve.calls"] == 1


def test_tier1_collection_excludes_the_benchmark():
    root = Path(__file__).resolve().parent.parent

    def collected(*extra):
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *extra],
            cwd=root, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        return [line for line in done.stdout.splitlines() if "::" in line]

    tier1 = collected()
    assert tier1, "tier-1 collected nothing"
    assert not [t for t in tier1 if t.startswith("perfbench")]
    assert tier1 == collected("--ignore=perfbench")
