"""The four benchmark workloads: inputs, timed operations and their checks.

Each workload's ``setup`` builds everything the timed loop needs (inputs,
reference outputs, oracle expectations) and returns a ``Workload``. Its
``blocks`` iterator yields lists of operations; the runner times each
``Op.run`` alone and calls ``Op.check`` afterwards, outside the timed region.

- scan-orbits: exhaustive scans in every dedup mode and in integer mode; the
  seed does not change it. One operation is one campaign (scan + CSV).
- sweep-claims: all six claims over every non-empty subset of Z12 and Z2xZ6;
  the seed does not change it. One operation is one claim sweep.
- query-mix: a closed loop with one client sending seeded, distinct
  single-set requests through ``cli.main``. One operation is one request.
- cli-parallel: fresh ``python -m sumdiff`` processes fanning out over
  ``nproc`` workers; the seed does not change it. One operation is one command.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path
from random import Random
from typing import Callable, Iterator

import checks
from checks import ROOT

from sumdiff import cli, explorer, theorems
from sumdiff.explorer import Campaign
from sumdiff.groups import GroupSpec

OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class Op:
    key: str  # identifies the operation; repeats of one key share a median
    subsets: int  # subsets of the universe the operation decides
    run: Callable[[], object]
    check: Callable[[object], list]
    cli: bool = False  # output is (exit code, text); its size counts as CLI output


@dataclass
class Workload:
    name: str
    blocks: Callable[[], Iterator[list]]  # a fresh iterator per pass
    pass_blocks: int  # blocks in one full pass over the workload
    min_blocks: int  # blocks every timed run completes
    extras: dict  # workload-specific handles for the traced run
    in_process: bool = True  # False when operations wait on child processes


# -- scan-orbits -----------------------------------------------------------------

SCAN_CAMPAIGNS = (
    ("Z16 translation+negation", (16,), None, "translation+negation"),
    ("Z2xZ8 translation+negation", (2, 8), None, "translation+negation"),
    ("Z16 translation", (16,), None, "translation"),
    ("Z14 full-affine", (14,), None, "full-affine"),
    ("Z14 none", (14,), None, "none"),
    ("ints 0..15 translation+negation", None, (0, 15), "translation+negation"),
)


def _campaign(moduli, ints, mode) -> Campaign:
    return Campaign(group=GroupSpec(moduli) if moduli else None, ints=ints, mode=mode)


def run_scan(campaign: Campaign):
    records, summary = explorer.scan(campaign, threads=1)
    buf = io.StringIO()
    explorer.write_csv(records, buf, campaign)
    return records, summary, buf.getvalue().encode()


def setup_scan(seed: int) -> Workload:
    oracles = checks.load_oracles()
    first_csv = {}
    ops = []
    expected = {}
    for key, moduli, ints, mode in SCAN_CAMPAIGNS:
        campaign = _campaign(moduli, ints, mode)
        width = campaign.width()
        reps = (
            checks.group_orbit_count(oracles, moduli, mode)
            if moduli
            else checks.int_window_orbit_count(width, mode)
        )
        universe = (1 << width) - 1
        expected[key] = (campaign, reps)

        def check(out, key=key, universe=universe, reps=reps):
            records, summary, csv_bytes = out
            ref = first_csv.setdefault(key, csv_bytes)
            return checks.check_scan(
                records, summary, csv_bytes, universe=universe, reps=reps, reference_csv=ref
            )

        ops.append(Op(key, universe, lambda c=campaign: run_scan(c), check))
    # Three passes: every campaign's CSV is compared across repeats, and its
    # time is a median of three.
    return Workload("scan-orbits", lambda: ([op] for op in cycle(ops)), len(ops), 3 * len(ops),
                    {"campaigns": expected})


# -- sweep-claims ----------------------------------------------------------------

SWEEP_GROUPS = ((12,), (2, 6))


def setup_sweep(seed: int) -> Workload:
    oracles = checks.load_oracles()
    ops = []
    for moduli in SWEEP_GROUPS:
        g = GroupSpec(moduli)
        cosets = len(oracles.naive_coset_masks(moduli))
        total = (1 << g.order) - 1
        for claim in theorems.CLAIM_IDS:
            ops.append(
                Op(
                    f"{claim} {g.label()}",
                    total,
                    lambda c=claim, g=g: theorems.sweep_claim(c, g),
                    lambda s, total=total, cosets=cosets: checks.check_sweep(
                        s, total=total, cosets=cosets
                    ),
                )
            )
    return Workload("sweep-claims", lambda: ([op] for op in cycle(ops)), len(ops), len(ops), {})


# -- query-mix -------------------------------------------------------------------

QUERY_KINDS = ("constants", "thm3", "thm5", "ruzsa", "petridis")
# Every (kind, size) once, plus a second |A| = 17 for each kind that runs
# find_minimizer over 2^|A| candidates. Those six slowest slots are 10% of a
# block, so p95 falls inside one class instead of on the 2x step between the
# |A| = 16 and |A| = 17 classes, where it would jump from seed to seed.
QUERY_SLOTS = tuple((k, s) for k in QUERY_KINDS for s in range(6, 18)) + tuple(
    (k, 17) for k in ("thm3", "thm5", "petridis")
)
QUERY_GROUPS = ((48,), (2, 24), (4, 12), (54,), (3, 18), (60,), (2, 30), (64,), (2, 32), (8, 8))
QUERY_ARGV = {
    "constants": ["constants", "{}"],
    "thm3": ["check", "thm3", "{}"],
    "thm5": ["check", "thm5", "{}", "--n", "3"],
    "ruzsa": ["witness", "ruzsa", "{}"],
    "petridis": ["witness", "petridis", "{}"],
}


@dataclass(frozen=True)
class Request:
    kind: str
    moduli: tuple | None  # None for an integer-mode literal
    elements: tuple

    def literal(self) -> str:
        label = "x".join(f"Z{n}" for n in self.moduli) if self.moduli else "Z"
        return ",".join(map(str, self.elements)) + "@" + label

    def argv(self) -> list:
        return [a.format(self.literal()) for a in QUERY_ARGV[self.kind]] + ["--format", "json"]


def request_blocks(seed: int) -> Iterator[list]:
    """Endless seeded request stream in blocks of fixed composition.

    Every block holds the same slots in shuffled order and uses integer mode
    for the same quarter of them, so any whole number of blocks has the same
    mix; the seed picks the groups, the elements and the order.
    """
    rng = Random(seed)
    while True:
        block = []
        for i, (kind, size) in enumerate(QUERY_SLOTS):
            if i % 4 == 3:
                lo = rng.randint(0, 40)  # a leading '-' would read as a flag
                block.append(Request(kind, None, tuple(sorted(rng.sample(range(lo, lo + 2 * size), size)))))
            else:
                moduli = rng.choice(QUERY_GROUPS)
                n = moduli[0] * (moduli[1] if len(moduli) > 1 else 1)
                block.append(Request(kind, moduli, tuple(sorted(rng.sample(range(n), size)))))
        rng.shuffle(block)
        yield block


def call_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def oracle_sizes(oracles, req: Request) -> dict:
    """Sizes the request's JSON must report, from the brute-force oracles."""
    pts = req.elements
    if req.moduli is None:
        sizes = {
            "A": len(pts),
            "AA": len(oracles.int_sumset(pts, pts)),
            "AmA": len(oracles.int_iterated(pts, 1, 1)),
        }
        if req.kind == "thm5":
            sizes["nA"] = len(oracles.int_iterated(pts, 3, 0))
    else:
        m = req.moduli
        sizes = {
            "A": len(pts),
            "AA": len(oracles.naive_sumset(m, pts, pts)),
            "AmA": len(oracles.naive_diffset(m, pts, pts)),
        }
        if req.kind == "thm5":
            sizes["nA"] = len(oracles.naive_iterated(m, pts, 3, 0))
    keep = {"constants": ("A", "AA", "AmA"), "thm3": ("A", "AA", "AmA"),
            "thm5": ("A", "AA", "nA"), "ruzsa": ("AmA",), "petridis": ()}[req.kind]
    return {k: sizes[k] for k in keep}


def query_op(oracles, req: Request) -> Op:
    argv = req.argv()
    return Op(
        " ".join(argv),
        1,
        lambda: call_cli(argv),
        lambda out: checks.check_query(req, out[0], out[1], oracle_sizes(oracles, req)),
        cli=True,
    )


# Warm-up requests, outside the seeded stream: first-call costs (argparse,
# lazy tables) land in set-up, not in the first timed request.
WARMUP = ("constants 0,1,3@Z8", "check thm3 0,1,3@Z8", "check thm5 0,1,3@Z8 --n 3",
          "witness ruzsa 0,1,3@Z8", "witness petridis 0,1,3@Z8", "constants 0,2,3@Z")


def setup_query(seed: int) -> Workload:
    oracles = checks.load_oracles()
    for line in WARMUP:
        call_cli(line.split() + ["--format", "json"])

    # One stream for the whole process: a second pass (the traced one) gets
    # fresh requests with the same mix, so no request meets a warm cache.
    def blocks(stream=request_blocks(seed)):
        return ([query_op(oracles, r) for r in block] for block in stream)

    min_blocks = -(-240 // len(QUERY_SLOTS))  # >= 240 samples, so >= 12 lie beyond p95
    return Workload("query-mix", blocks, min_blocks, min_blocks, {})


# -- cli-parallel ----------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


_running = set()  # process groups of live CLI children, killed on SIGTERM


def run_process(argv, timeout: float) -> subprocess.CompletedProcess:
    """Run one CLI process in its own process group, so that a timeout or a
    termination of this benchmark also stops the worker processes it forked."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    _running.add(proc.pid)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        _running.discard(proc.pid)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def kill_running() -> None:
    for pgid in list(_running):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_cli(seed: int) -> Workload:
    workers = str(nproc())
    work = OUT_DIR / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    commands = (
        ("scan Z16", 65535, ["scan", "--group", "Z16", "--format", "csv", "--out", "{out}",
                             "--threads", "{threads}"]),
        ("mstd ints 0..15", 65535, ["mstd", "--ints", "0..15", "--format", "json", "--out",
                                    "{out}", "--threads", "{threads}"]),
        ("check thm3 --sweep Z10", 1023, ["check", "thm3", "--sweep", "Z10"]),
    )
    extras = {"workers": int(workers), "launcher": [sys.executable, "-m", "sumdiff"], "runs": []}
    ops = []
    for i, (key, universe, template) in enumerate(commands):
        out_path = work / f"out{i}"
        writes_file = "{out}" in template

        def argv_for(out, threads, template=template):
            return [a.format(out=out, threads=threads) for a in template]

        ref_path = work / f"ref{i}"
        code, stdout = call_cli(argv_for(ref_path, "1"))
        if code != 0:
            raise RuntimeError(f"reference run of {key!r} exited {code}")
        reference = ref_path.read_bytes() if writes_file else stdout.encode()

        def run(argv=argv_for(out_path, workers), out_path=out_path, writes_file=writes_file,
                key=key):
            out_path.unlink(missing_ok=True)
            cpu0, t0 = children_cpu_s(), time.perf_counter()
            proc = run_process(extras["launcher"] + argv, timeout=120)
            extras["runs"].append((key, time.perf_counter() - t0, children_cpu_s() - cpu0))
            if "tracer" in extras:  # the launcher is tracer.py, which left its trace here
                trace_file = Path(extras["launcher"][-1])
                extras["tracer"].merge(json.loads(trace_file.read_text()))
                trace_file.unlink()
            output = out_path.read_bytes() if writes_file and out_path.exists() else proc.stdout
            return proc.returncode, output

        ops.append(Op(key, universe, run,
                      lambda out, ref=reference: checks.check_cli_output(out[0], out[1], ref),
                      cli=True))
    extras["work"] = work
    return Workload("cli-parallel", lambda: ([op] for op in cycle(ops)), len(ops), len(ops), extras,
                    in_process=False)


SETUPS = {
    "scan-orbits": setup_scan,
    "sweep-claims": setup_sweep,
    "query-mix": setup_query,
    "cli-parallel": setup_cli,
}
