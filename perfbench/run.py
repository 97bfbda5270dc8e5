"""Layered benchmark for sumdiff. Stdlib only; run from the repository root:

    python3 perfbench/run.py --workload scan-orbits --seed 1 --seconds 25 --trace 0

Workloads: scan-orbits, sweep-claims, query-mix, cli-parallel (see
``workloads.py``). With ``--trace 0`` it measures set-up in three fresh
interpreters and runs the timed loop untraced in the last one; with
``--trace 1`` it runs one untraced and one traced pass and reports per-layer
numbers. It prints a human-readable report, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A copy of the result, with the machine it ran on, is written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-orbits", "sweep-claims", "query-mix", "cli-parallel")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # never used while tuning; for confirming a claimed gain
SETUP_REPEATS = 3
DEADLINE_S = 170  # the whole run, all child interpreters included

E2E_UNITS = {
    "subsets_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "groups.shift_mask.calls": "count",
    "groups.shift_mask.self_s": "s",
    "groups.neg_scale_mask.calls": "count",
    "groups.is_coset.self_s": "s",
    "sets.sumset.calls": "count",
    "sets.sumset.self_s": "s",
    "petridis.find_minimizer.calls": "count",
    "petridis.find_minimizer.candidates": "count",
    "petridis.find_minimizer.peak_alloc_mb": "MB",
    "ruzsa.build_injection.calls": "count",
    "ruzsa.injection.pairs": "count",
    "cli.output_bytes": "B",
    "cli.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,  # None outside a git checkout; src_sha256 still names the code
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def spawn_worker(deadline: float, *args) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    argv = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.terminate()  # the worker stops its own CLI children on SIGTERM
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise SystemExit("benchmark run exceeded its time limit")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "sumdiff" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a sumdiff checkout",
                  file=sys.stderr)
            return 2
    deadline = time.monotonic() + DEADLINE_S
    prov = provenance(args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    print(f"# sumdiff perfbench | workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in prov.items() if k != "seed"))

    if args.trace:
        res = spawn_worker(deadline, *common, "--trace")
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in LAYER_UNITS.items()}
        lines = [f"{k:<44} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines += [f"{k:<44} {'n/a' if v is None else f'{v:.6g}'} (report only)"
                  for k, v in res["report"].items()]
        lines.append(f"spans written to {res['spans_file']}")
    else:
        setups = [spawn_worker(deadline, *common, "--setup-only") for _ in range(SETUP_REPEATS - 1)]
        res = spawn_worker(deadline, *common, "--seconds", str(args.seconds))
        setups.append(res)
        e2e = res["end_to_end"]
        raw = dict(e2e["raw"], setup_s=statistics.median(s["setup_s"] for s in setups),
                   peak_rss_mb=res["peak_rss_mb"])
        values = {
            "subsets_per_s": e2e["subsets_per_s"],
            "query_p50_ms": e2e["query_p50_ms"],
            "query_p95_ms": e2e["query_p95_ms"],
            "setup_s": statistics.median(s["setup_s"] / s["setup_factor"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        lines = [f"{k:<16} {m['value']:<12.6g} {m['unit']:<5} raw {raw[k]:.6g}"
                 for k, m in metrics.items()]
        lines.insert(3, f"  ({e2e['operations']} distinct operations, {e2e['samples']} samples, "
                        f"{e2e['beyond_p95']} beyond p95)")
        lines.append(f"  (timed loop at speed factor {e2e['speed_factor']:.4f} from "
                     f"{e2e['reference_samples']} reference timings; setup_s is the median of "
                     f"{SETUP_REPEATS} fresh interpreters: "
                     + ", ".join(f"{s['setup_s']:.3f}/{s['setup_factor']:.3f}" for s in setups) + ")")
    failed_ratio = res["failed"] / max(res["attempted"], 1)
    lines.append(f"failed_ratio     {failed_ratio:.6g} ratio ({res['failed']} of {res['attempted']})")
    lines += [f"  FAILED {p}" for p in res["problems"][:20]]
    print("\n".join(lines))

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, problems=res["problems"], details=res.get("end_to_end") or res.get("report"))
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
