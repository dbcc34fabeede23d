"""The benchmark's view of the library, checked without running the benchmark.

perfbench/workloads.py imports names from sccforge and perfbench/tracing.py
reads attributes of their results. Both are loaded from their files here, so
removing a name or attribute they use fails this suite, not a traced
benchmark run. The benchmark directory itself is not collected.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from sccforge import BankState, TargetRatio, build_system, spawn_codes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracing = load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_op_of_each_workload_passes_its_check(name):
    work = workloads.WORKLOADS[name](1)
    op = work.cycle()[0]
    tracer = tracing.Tracer()
    # the namespaces the benchmark's traced phase wraps
    tracer.install([m for key, m in sys.modules.items() if key.startswith("sccforge")] + [workloads])
    try:
        tracer.begin_op()
        out = work.run(op)
        spans = tracer.end_op()
    finally:
        tracer.uninstall()
    assert work.check(op, out)
    work.counts(op, out)
    assert spans[-1][2] == "harness" and len(spans) > 1
    assert tracing.self_times(spans)


RATIO = TargetRatio(3, 2, 3)
BANK = BankState((4.7e-6,) * 3, 47e-6, (0.0,) * 3, 0.0)
# (layer, function) of each counter -> the arguments of one real call and the count it adds
CALLS = {
    ("numrep", "spawn_codes"): ((RATIO,), {"numrep.codes": 5}),
    ("numrep", "enumerate_codes"): ((RATIO,), {"numrep.codes": 5}),
    ("numrep", "balanced_sequence"): ((RATIO,), {"numrep.codes": 8}),
    ("linsolve", "build_system"): ((spawn_codes(RATIO),), {"linsolve.rows": 5}),
    ("linsolve", "find_redundant"): ((build_system(spawn_codes(RATIO)),), {"linsolve.dropped_rows": 1}),
    ("lossmodel", "build_req_spec"): ((RATIO, 1e5, 4.7e-6, 1.2, 4), {"lossmodel.slots": 4}),
    ("chargesim", "run"): ((BANK, tuple(spawn_codes(RATIO)), 8.0), {"chargesim.runs": 1}),
}


@pytest.mark.parametrize("key", list(tracing.COUNTERS), ids="-".join)
def test_every_counter_reads_a_real_result(key):
    args, want = CALLS[key]
    layer, name = key
    result = getattr(importlib.import_module(f"sccforge.{layer}"), name)(*args)
    counts = Counter()
    tracing.COUNTERS[key](counts, result, args)
    assert {k: counts[k] for k in want} == want
    if name == "run":
        assert counts["chargesim.converged"] == 1
        assert counts["chargesim.periods"] == result.periods
        assert counts["chargesim.slots"] == result.periods * len(args[1])
