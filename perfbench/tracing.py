"""Outside-in tracer: spans around every call into a layer of sccforge.

install() replaces each function of the seven layer modules at every
binding site in another module (the package namespace, the other layer
modules and the benchmark's own workload module) with a wrapper that records
a span (id, parent id, layer, start, end). Calls a module makes to its own
functions are not wrapped, so their time stays in that module's self time.
Counters are taken from the wrapped functions' return values. Spans are kept
in memory and written out once the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from types import ModuleType
from typing import Iterable, Sequence

LAYERS = ("numrep", "topology", "linsolve", "chargesim", "lossmodel", "regulation", "cli")

Span = tuple[int, int, str, float, float]  # id, parent id (-1 for a root), layer, start, end


def _codes(counts, result, args):
    counts["numrep.codes"] += len(result)


def _rows(counts, result, args):
    counts["linsolve.rows"] += result.rows


def _dropped(counts, result, args):
    counts["linsolve.dropped_rows"] += len(result)


def _slots(counts, result, args):
    counts["lossmodel.slots"] += len(result.slots)


def _run(counts, result, args):
    counts["chargesim.runs"] += 1
    counts["chargesim.converged"] += bool(result.converged)
    counts["chargesim.slots"] += len(result.records)
    counts["chargesim.periods"] += len(result.records) // len(args[1])


# (layer, function name) -> counter taken from the return value
COUNTERS = {
    ("numrep", "spawn_codes"): _codes,
    ("numrep", "enumerate_codes"): _codes,
    ("numrep", "balanced_sequence"): _codes,
    ("linsolve", "build_system"): _rows,
    ("linsolve", "find_redundant"): _dropped,
    ("lossmodel", "build_req_spec"): _slots,
    ("chargesim", "run"): _run,
}


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, t0, t1 in spans:
        covered[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for sid, _, layer, t0, t1 in spans:
        out[layer] += (t1 - t0) - covered[sid]
    return dict(out)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[ModuleType, str, object]] = []

    def install(self, namespaces: Sequence[ModuleType]) -> None:
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if not inspect.isfunction(value):
                    continue
                module = value.__module__ or ""
                layer = module.rpartition(".")[2]
                if not module.startswith("sccforge.") or layer not in LAYERS:
                    continue
                if module == ns.__name__:
                    continue
                setattr(ns, name, self._wrap(layer, value))
                self._patched.append((ns, name, value))

    def uninstall(self) -> None:
        for ns, name, value in reversed(self._patched):
            setattr(ns, name, value)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        counter = COUNTERS.get((layer, fn.__name__))
        calls = f"{layer}.calls"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, layer, t0, t1))
            counts[calls] += 1
            if counter is not None:
                counter(counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self) -> None:
        """Open the root span of one op; the harness owns its self time."""
        self._mark = len(self.spans)
        self._root = next(self._ids)
        self._stack.append(self._root)
        self._t0 = time.perf_counter()

    def end_op(self) -> list[Span]:
        """Close the root span; return the op's spans, root last."""
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((self._root, -1, "harness", self._t0, t1))
        return self.spans[self._mark :]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"columns": ["id", "parent", "layer", "start_s", "end_s"], "spans": self.spans}, handle)
