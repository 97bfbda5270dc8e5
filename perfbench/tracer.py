"""Tracing from outside the package: patched public functions, spans, counters.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
timing wrapper, on its own module and on every ``sumdiff`` module that
imported the name (``explorer.sumset`` as well as ``sets.sumset``). Hot
kernels are aggregated as calls, total time and self time; every other call
also leaves a span ``(id, parent id, name, start, end)`` kept in memory and
written out when the run ends. Self time is a call's duration minus the time
of the traced calls under it.

Run as a script, this module is a traced stand-in for ``python -m sumdiff``:

    python3 perfbench/tracer.py OUT.json scan --group Z16 ...

It traces the command, including the worker processes it forks, and writes
the merged aggregates and spans to OUT.json.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, hot): hot kernels are aggregated and leave no spans.
TARGETS = (
    ("groups", "GroupSpec.shift_mask", True),
    ("groups", "GroupSpec.neg_mask", True),
    ("groups", "GroupSpec.scale_mask", True),
    ("groups", "is_coset", True),
    ("sets", "sumset", True),
    ("sets", "diffset", True),
    ("explorer", "scan", False),
    ("explorer", "write_csv", False),
    ("petridis", "find_minimizer", False),
    ("petridis", "replay_trace", False),
    ("petridis", "extract_certificate", False),
    ("ruzsa", "build_witness_table", False),
    ("ruzsa", "build_injection", False),
    ("ruzsa", "verify_injective", False),
    ("ruzsa", "check_surjective", False),
    ("theorems", "check_fact1", False),
    ("theorems", "check_inequality", False),
    ("theorems", "check_main_theorem", False),
    ("theorems", "check_upper", False),
    ("theorems", "check_lower_chain", False),
    ("theorems", "check_plunnecke", False),
    ("theorems", "sweep_claim", False),
    ("cli", "main", False),
)

CLAIM_FUNCTIONS = {
    "fact1": "check_fact1",
    "ineq1": "check_inequality",
    "thm1": "check_main_theorem",
    "thm2": "check_upper",
    "thm3": "check_lower_chain",
    "thm5": "check_plunnecke",
}


class Tracer:
    def __init__(self):
        self.stack = []  # open calls: [start, time of traced calls under it, span id]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total_s, self_s]
        self.spans = []
        self.counts = defaultdict(int)
        self.largest_minimizer = None  # (|base|, args, kwargs) of the widest call
        self.peak_alloc_mb = 0.0
        self.originals = {}
        self._next_id = 1

    # -- spans -------------------------------------------------------------------

    def _call(self, name, fn, hot, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        if hot:
            sid = parent[2] if parent else 0
        else:
            sid = self._next_id
            self._next_id += 1
        frame = [perf_counter(), 0.0, sid]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - frame[0]
            rec = self.agg[name]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            if not hot:
                self.spans.append((sid, parent[2] if parent else 0, name, frame[0], end))

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own, e.g. one benchmark operation."""
        return self._call(name, fn, False, args, kwargs)

    def wrap(self, name, fn, hot):
        def traced(*args, **kwargs):
            return self._call(name, fn, hot, args, kwargs)

        return traced

    # -- counters on particular calls --------------------------------------------

    def _observe(self, name, fn):
        if name == "petridis.find_minimizer":

            def observed(A, base, *args, **kwargs):
                width = base.card
                self.counts["petridis.find_minimizer.candidates"] += (1 << width) - 1
                if self.largest_minimizer is None or width > self.largest_minimizer[0]:
                    self.largest_minimizer = (width, (A, base) + args, kwargs)
                return fn(A, base, *args, **kwargs)

            return observed
        if name == "ruzsa.build_injection":

            def observed(*args, **kwargs):
                table = fn(*args, **kwargs)
                self.counts["ruzsa.injection.pairs"] += len(table.pairs)
                return table

            return observed
        return fn

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sumdiff" or n.startswith("sumdiff.")]
        for mod_name, attr, hot in TARGETS:
            owner = importlib.import_module(f"sumdiff.{mod_name}")
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self.originals[name] = orig
                setattr(cls, meth, self.wrap(name, self._observe(name, orig), hot))
                continue
            orig = getattr(owner, attr)
            self.originals[name] = orig
            traced = self.wrap(name, self._observe(name, orig), hot)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def measure_peak_alloc(self) -> None:
        """Re-run the widest ``find_minimizer`` call untraced under tracemalloc."""
        if self.largest_minimizer is None:
            return
        _, args, kwargs = self.largest_minimizer
        tracemalloc.start()
        try:
            self.originals["petridis.find_minimizer"](*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        self.peak_alloc_mb = max(self.peak_alloc_mb, peak)

    # -- aggregation across processes --------------------------------------------

    def reset(self) -> None:
        self.stack.clear()
        self.agg.clear()
        self.spans.clear()
        self.counts.clear()
        self.largest_minimizer = None
        self.peak_alloc_mb = 0.0

    def dump(self, path) -> None:
        Path(path).write_text(
            json.dumps({"agg": self.agg, "counts": self.counts, "spans": self.spans,
                        "peak_alloc_mb": self.peak_alloc_mb})
        )

    def merge(self, data: dict) -> None:
        """Fold in another process's dump; its root spans hang under the open span."""
        for name, (calls, total, self_s) in data["agg"].items():
            rec = self.agg[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in data["counts"].items():
            self.counts[name] += value
        self.peak_alloc_mb = max(self.peak_alloc_mb, data["peak_alloc_mb"])
        offset = self._next_id
        root = self.stack[-1][2] if self.stack else 0
        top = 0
        for sid, parent, name, start, end in data["spans"]:
            self.spans.append((sid + offset, parent + offset if parent else root, name, start, end))
            top = max(top, sid)
        self._next_id = offset + top + 1

    def follow_forks(self, prefix: str) -> None:
        """Make every forked multiprocessing worker dump its share at exit."""
        import multiprocessing.util as mp_util

        def after_fork(tracer):
            tracer.reset()
            mp_util.Finalize(tracer, tracer.dump, args=(f"{prefix}.{os.getpid()}",), exitpriority=0)

        mp_util.register_after_fork(self, after_fork)

    # -- derived numbers ---------------------------------------------------------

    def calls(self, name) -> int:
        return self.agg[name][0] if name in self.agg else 0

    def self_s(self, name) -> float:
        return self.agg[name][2] if name in self.agg else 0.0

    def total_s(self, name) -> float:
        return self.agg[name][1] if name in self.agg else 0.0

    def kernel_calls(self) -> int:
        return sum(self.calls(f"groups.{k}") for k in ("shift_mask", "neg_mask", "scale_mask"))


def _traced_cli(out_path: str, argv: list) -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from sumdiff import cli

    tracer = Tracer()
    tracer.install()
    prefix = f"{out_path}.worker"
    tracer.follow_forks(prefix)
    code = tracer.span("cli.process", cli.main, argv)
    tracer.measure_peak_alloc()
    out_dir = Path(out_path).parent
    for dump in sorted(out_dir.glob(Path(prefix).name + ".*")):
        tracer.merge(json.loads(dump.read_text()))
        dump.unlink()
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
