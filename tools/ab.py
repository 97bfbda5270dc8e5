"""Side-by-side timing of two checkouts of sumdiff. Stdlib only; run as

    python3 tools/ab.py PARENT CHANGE --request "scan --group Z14 --mode none --format csv --threads 1"
    python3 tools/ab.py PARENT CHANGE --request "witness ruzsa 0,1,3@Z8 --format json" --rounds 51
    python3 tools/ab.py PARENT CHANGE --cli "scan --group Z18 --mode none --format csv --out {out}"

PARENT and CHANGE are the roots of two checkouts (the same root twice is
allowed). In-process, ``--request ARGS`` loads each side's ``src/sumdiff``
under its own package name and times one ``cli.main(ARGS)`` of each side, in
CPU seconds, with its stdout captured: a scan plus its csv, or a request of a
few milliseconds, which ``--cli`` would bury under interpreter start-up.
``--cli ARGS`` times ``python -m sumdiff ARGS`` in a child process per side,
forked by a small launcher, in wall and child CPU seconds, and reports the
median of the child's own peak RSS (``ru_maxrss``) in MB; ``{out}`` stands
for a fresh output file. Every round runs both sides, and the side that runs
first alternates. Every run must write the bytes of the first run, or the
script stops with an error. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SIDES = ("parent", "change")


def load_side(root: Path, name: str):
    """The package ``root/src/sumdiff``, imported as the top-level package ``name``."""
    path = Path(root).resolve() / "src" / "sumdiff"
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py", submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def request_runner(pkg, args: str):
    """A function running ``cli.main(args)`` of ``pkg`` once in-process: (CPU seconds,
    exit code and stdout); stderr is swallowed."""
    main, argv = importlib.import_module(pkg.__name__ + ".cli").main, shlex.split(args)

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = time.process_time()
            code = main(argv)
            seconds = time.process_time() - start
        return seconds, f"{code}\n{out.getvalue()}".encode()

    return run


# Forks the command from a fresh interpreter, not from ab.py: Linux keeps the forking process's peak
# RSS across exec, so a child forked from ab.py would report ab.py's own peak as its floor.
_LAUNCHER = """
import os, sys, time
start = time.perf_counter()
if not (pid := os.fork()):
    os.execv(sys.executable, [sys.executable, "-m", "sumdiff", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(int(sys.argv[1]), f"{status} {wall} {usage.ru_utime + usage.ru_stime} {usage.ru_maxrss}".encode())
"""


def cli_runner(root: Path, args: str):
    """A function running ``python -m sumdiff args`` once from ``root``, forked by a small
    launcher: ((wall seconds, child CPU seconds, child peak RSS in MB), stdout plus any --out file)."""
    env = {**os.environ, "PYTHONPATH": str(Path(root).resolve() / "src")}

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            argv = [a.replace("{out}", str(out)) for a in shlex.split(args)]
            report, w = os.pipe()
            proc = subprocess.Popen(
                [sys.executable, "-c", _LAUNCHER, str(w), *argv], env=env, pass_fds=(w,),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            os.close(w)
            with proc.stdout, proc.stderr, open(report) as fh:  # stderr is at most an error line
                stdout, stderr = proc.stdout.read(), proc.stderr.read()
                status, wall, cpu, peak_kib = fh.read().split()
            proc.wait()
            code = os.waitstatus_to_exitcode(int(status))
            if code:
                raise RuntimeError(f"exit {code}: python -m sumdiff {args}\n{stderr.decode()}")
            return (float(wall), float(cpu), int(peak_kib) / 1024), stdout + (out.read_bytes() if out.exists() else b"")

    return run


def _stats(values: list) -> dict:
    runs = [round(v, 6) for v in values]
    return {"min_s": min(runs), "median_s": round(statistics.median(values), 6), "runs_s": runs}


def alternate(runners: dict, rounds: int) -> dict:
    """Run both sides ``rounds`` times, the parent first in even rounds; returns per-side
    timings, and raises RuntimeError unless every run wrote the first run's bytes."""
    times = {side: [] for side in SIDES}
    reference = None
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            seconds, blob = runners[side]()
            reference = blob if reference is None else reference
            if blob != reference:
                raise RuntimeError(f"{side} wrote other bytes in round {r}")
            times[side].append(seconds)
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--request", action="append", default=[], help='in-process cli.main, e.g. "constants 0,1@Z5"')
    p.add_argument("--cli", action="append", default=[], help="whole-process command, e.g. \"mstd --ints 0..15\"")
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    if args.rounds < 1 or not args.request + args.cli:
        p.error("need --rounds >= 1 and at least one --request or --cli")
    roots = dict(zip(SIDES, (args.parent, args.change)))
    pkgs = {side: load_side(root, f"sumdiff_ab_{side}") for side, root in roots.items()}
    result = {
        "method": f"tools/ab.py, {args.rounds} rounds, the side that runs first alternating; in-process: "
        "one cli.main request with stdout captured, CPU time (time.process_time); whole-process: "
        "python -m sumdiff forked by a small launcher, wall and child CPU time and median peak RSS "
        "(ru_maxrss from os.wait4); both sides wrote the same bytes in every round",
        "in_process": {},
        "whole_process": {},
    }
    for text in args.request:
        times = alternate({side: request_runner(pkgs[side], text) for side in SIDES}, args.rounds)
        result["in_process"][text] = {side: _stats(times[side]) for side in SIDES}
        cpus = {s: result["in_process"][text][s]["median_s"] for s in SIDES}
        print(f"{text}: " + ", ".join(f"{s} {cpus[s] * 1e3:.3f} ms CPU" for s in SIDES), file=sys.stderr)
    for text in args.cli:
        times = alternate({side: cli_runner(roots[side], text) for side in SIDES}, args.rounds)
        result["whole_process"][text] = {
            side: {
                "wall": _stats([t[0] for t in times[side]]),
                "cpu": _stats([t[1] for t in times[side]]),
                "peak_rss_mb": round(statistics.median(t[2] for t in times[side]), 1),
            }
            for side in SIDES
        }
        timed = result["whole_process"][text]
        sides = (f"{s} {timed[s]['wall']['median_s']:.4f} s wall, {timed[s]['peak_rss_mb']} MB" for s in SIDES)
        print(f"{text}: " + ", ".join(sides), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
