"""Smoke tests of ``tools/ab.py``, the side-by-side timing harness."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


def test_ab_times_the_repo_against_itself():
    scans = ["scan --group Z6 --format csv --threads 1", "scan --ints -2..3 --mode none --format csv --threads 1"]
    requests = [*scans, "witness ruzsa 0,1,3@Z8 --format json"]
    argv = [sys.executable, str(AB), str(ROOT), str(ROOT), "--rounds", "2"]
    argv += ["--cli", "scan --group Z4 --format csv --out {out}"]
    for text in requests:
        argv += ["--request", text]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    for text in requests:
        for side in ("parent", "change"):
            assert len(result["in_process"][text][side]["runs_s"]) == 2
    timed = result["whole_process"]["scan --group Z4 --format csv --out {out}"]
    assert all(len(timed[side][clock]["runs_s"]) == 2 for side in ("parent", "change") for clock in ("wall", "cpu"))
    assert all(5 < timed[side]["peak_rss_mb"] < 500 for side in ("parent", "change"))  # an interpreter's, in MB


def test_ab_alternates_sides_and_refuses_other_bytes():
    spec = importlib.util.spec_from_file_location("ab", AB)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    order = []
    runners = {side: (lambda side=side: order.append(side) or (1.0, b"same")) for side in ab.SIDES}
    assert ab.alternate(runners, 3) == {"parent": [1.0] * 3, "change": [1.0] * 3}
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    runners["change"] = lambda: (1.0, b"other")
    with pytest.raises(RuntimeError, match="change wrote other bytes in round 0"):
        ab.alternate(runners, 1)
