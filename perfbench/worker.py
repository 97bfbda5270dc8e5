"""One benchmark process: set up a workload in a fresh interpreter and run it.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        [--setup-only | --seconds S [--trace]]

``--spawned-at`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this interpreter, so set-up time covers interpreter start,
imports, input generation, reference outputs and warm-up. The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from calibrate import Sampler, calibrate, reference_s, speed_factor  # noqa: E402
from tracer import CLAIM_FUNCTIONS, Tracer  # noqa: E402

REFERENCE_EVERY_S = 0.25


def run_blocks(blocks, *, seconds: float, min_blocks: int, interrupt: bool, tracer=None) -> dict:
    """Time every operation of whole blocks until ``seconds`` have passed.

    Checks run after each operation's timer stops. An operation that raises
    or fails its check counts as failed; its time still counts as a sample.
    The reference task is timed every REFERENCE_EVERY_S to follow the
    machine's speed (see calibrate.py), from a SIGALRM handler if
    ``interrupt``; that time is not charged to any operation.
    """
    samples, subsets = {}, {}
    attempted = failed = output_bytes = 0
    problems = []
    done = 0
    with Sampler(REFERENCE_EVERY_S, interrupt=interrupt) as sampler:
        deadline = time.perf_counter() + seconds
        for block in blocks:
            for op in block:
                sampler.between_ops()
                spent0 = sampler.spent
                t0 = time.perf_counter()
                try:
                    out = tracer.span(f"op {op.key}", op.run) if tracer else op.run()
                except Exception as exc:  # counted as a failed operation
                    out, found = None, [f"{type(exc).__name__}: {exc}"]
                else:
                    found = None
                elapsed = time.perf_counter() - t0 - (sampler.spent - spent0)
                if found is None:
                    try:
                        found = op.check(out)
                    except Exception as exc:  # a checker that cannot decide is a failure
                        found = [f"check raised {type(exc).__name__}: {exc}"]
                    if op.cli:
                        output_bytes += len(out[1].encode() if isinstance(out[1], str) else out[1])
                attempted += 1
                if found:
                    failed += 1
                    problems.append(f"{op.key}: {'; '.join(found)}")
                samples.setdefault(op.key, []).append((t0, elapsed))
                subsets[op.key] = op.subsets
            done += 1
            if done >= min_blocks and time.perf_counter() >= deadline:
                break
    return {
        "samples": samples,
        "subsets": subsets,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "output_bytes": output_bytes,
        "reference": sampler.reference,
    }


def _rates(times: dict, subsets: dict) -> dict:
    """Throughput and latency over distinct operations, each at its median."""
    med = {k: statistics.median(v) for k, v in times.items()}
    lat_ms = sorted(1000 * t for t in med.values())
    p95 = statistics.quantiles(lat_ms, n=20, method="inclusive")[18]
    return {
        "subsets_per_s": sum(subsets[k] for k in med) / sum(med.values()),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p95_ms": p95,
        "beyond_p95": sum(1 for x in lat_ms if x > p95),
        "medians_ms": {k: 1000 * t for k, t in med.items()},
    }


def end_to_end(res: dict) -> dict:
    """End-to-end numbers at reference speed, with the raw ones beside them."""
    ref = res["reference"]
    raw = _rates({k: [e for _, e in v] for k, v in res["samples"].items()}, res["subsets"])
    cal = _rates({k: [calibrate(t, e, ref) for t, e in v] for k, v in res["samples"].items()},
                 res["subsets"])
    return dict(
        cal,
        raw={k: raw[k] for k in ("subsets_per_s", "query_p50_ms", "query_p95_ms")},
        speed_factor=speed_factor([d for _, d in ref]),
        reference_samples=len(ref),
        operations=len(cal["medians_ms"]),
        samples=sum(len(v) for v in res["samples"].values()),
    )


def max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def startup_s() -> float:
    """Median wall time of a fresh interpreter importing ``sumdiff.cli``."""
    argv = [sys.executable, "-c", "import sumdiff.cli"]
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        workloads.run_process(argv, timeout=60).check_returncode()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pass_seconds(res: dict) -> float:
    return sum(e for v in res["samples"].values() for _, e in v)


def traced_run(w, seed: int) -> dict:
    """One untraced pass, then one traced pass, then per-layer numbers.

    Reference timings are taken only between operations here, so that no
    span has a timing inside it.
    """
    untraced = run_blocks(w.blocks(), seconds=0, min_blocks=w.pass_blocks, interrupt=False)
    cli_runs = list(w.extras.get("runs", ()))
    tracer = Tracer()
    tracer.install()
    if w.name == "cli-parallel":
        w.extras["tracer"] = tracer
        w.extras["launcher"] = [sys.executable, str(HERE / "tracer.py"), str(w.extras["work"] / "trace.json")]
    traced = run_blocks(w.blocks(), seconds=0, min_blocks=w.pass_blocks, interrupt=False,
                        tracer=tracer)
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    problems = untraced["problems"] + traced["problems"]
    tracer.measure_peak_alloc()

    layers = {
        "groups.shift_mask.calls": tracer.calls("groups.shift_mask"),
        "groups.shift_mask.self_s": tracer.self_s("groups.shift_mask"),
        "groups.neg_scale_mask.calls": tracer.calls("groups.neg_mask") + tracer.calls("groups.scale_mask"),
        "groups.is_coset.self_s": tracer.self_s("groups.is_coset"),
        "sets.sumset.calls": tracer.calls("sets.sumset"),
        "sets.sumset.self_s": tracer.self_s("sets.sumset"),
        "petridis.find_minimizer.calls": tracer.calls("petridis.find_minimizer"),
        "petridis.find_minimizer.candidates": tracer.counts["petridis.find_minimizer.candidates"],
        "petridis.find_minimizer.peak_alloc_mb": tracer.peak_alloc_mb,
        "ruzsa.build_injection.calls": tracer.calls("ruzsa.build_injection"),
        "ruzsa.injection.pairs": tracer.counts["ruzsa.injection.pairs"],
        "cli.output_bytes": traced["output_bytes"],
        "cli.startup_s": startup_s(),
        "trace.overhead_ratio": pass_seconds(traced) / pass_seconds(untraced),
    }

    # Layers only some workloads use: in the report, None where unused.
    def self_s(name):
        return tracer.self_s(name) if tracer.calls(name) else None

    report = {
        "petridis.find_minimizer.self_s": self_s("petridis.find_minimizer"),
        "petridis.replay_trace.self_s": self_s("petridis.replay_trace"),
        "ruzsa.build_injection.self_s": self_s("ruzsa.build_injection"),
        "cli.self_s": self_s("cli.main"),
    }
    for claim, fn in CLAIM_FUNCTIONS.items():
        report[f"theorems.{claim}.self_s"] = self_s(f"theorems.{fn}")
    if w.name == "scan-orbits":
        campaigns = w.extras["campaigns"]
        kernels0 = tracer.kernel_calls()
        canon_s, reps = 0.0, 0
        for key, (campaign, want) in campaigns.items():
            t0 = time.perf_counter()
            n = tracer.span(f"canonical {key}", lambda: sum(1 for _ in workloads.explorer.enumerate_canonical(campaign)))
            canon_s += time.perf_counter() - t0
            reps += n
            attempted += 1
            if n != want:
                failed += 1
                problems.append(f"canonical {key}: {n} representatives, Burnside says {want}")
        med = end_to_end(untraced)["medians_ms"]
        report.update({
            "explorer.canonical.self_s": canon_s,
            "explorer.records.self_s": tracer.total_s("explorer.scan") - canon_s,
            "explorer.canonical.reps": reps,
            "explorer.canonical.kernel_calls_per_rep": (tracer.kernel_calls() - kernels0) / reps,
            "explorer.product_over_cyclic": med["Z2xZ8 translation+negation"] / med["Z16 translation+negation"],
        })
    if w.name == "cli-parallel":
        fanned = [(wall, cpu) for key, wall, cpu in cli_runs if key != "check thm3 --sweep Z10"]
        report["explorer.parallel.cpu_util"] = sum(c for _, c in fanned) / (
            sum(wall for wall, _ in fanned) * w.extras["workers"]
        )
    spans_path = workloads.OUT_DIR / f"trace-{w.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "spans_columns": ["id", "parent", "name", "start", "end"],
        "spans": tracer.spans,
        "aggregates": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in tracer.agg.items()},
        "counts": tracer.counts,
    }))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "per_layer": layers,
        "report": report,
        "spans_file": str(spans_path.relative_to(workloads.ROOT)),
    }


def _terminate(signum, frame):
    workloads.kill_running()
    sys.exit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    w = workloads.SETUPS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    setup_factor = speed_factor([reference_s() for _ in range(5)])
    try:
        if args.setup_only:
            result = {"setup_s": setup_s, "setup_factor": setup_factor}
        elif args.trace:
            result = traced_run(w, args.seed)
        else:
            res = run_blocks(w.blocks(), seconds=args.seconds, min_blocks=w.min_blocks,
                             interrupt=w.in_process)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-parallel" else resource.RUSAGE_SELF
            result = {
                "setup_s": setup_s,
                "setup_factor": setup_factor,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "problems": res["problems"],
                "end_to_end": end_to_end(res),
                "peak_rss_mb": max_rss_mb(who),
            }
    finally:
        if "work" in w.extras:
            shutil.rmtree(w.extras["work"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
