"""Planted-fault tests: every checker must reject one wrong answer.

    python3 -m pytest perfbench/test_checks.py

Each checker sees a real, correct output first (no problems) and then the
same output with one fault planted in it (at least one problem), so no check
passes vacuously. The runner test shows that a rejected output is counted
in ``failed``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import time

import checks
import worker  # puts the package's src/ on sys.path
from workloads import Op, Request, call_cli

from sumdiff import Campaign, GroupSpec, explorer, scan, sweep_claim, write_csv

ORACLES = checks.load_oracles()


def test_burnside_counts_match_known_necklace_and_bracelet_numbers():
    # binary necklaces and bracelets of length 12 and 16, minus the empty set
    assert checks.group_orbit_count(ORACLES, (12,), "translation") == 352 - 1
    assert checks.group_orbit_count(ORACLES, (12,), "translation+negation") == 224 - 1
    assert checks.group_orbit_count(ORACLES, (16,), "translation+negation") == 2250 - 1
    assert checks.group_orbit_count(ORACLES, (6,), "none") == 63
    assert checks.int_window_orbit_count(4, "translation") == 8  # subsets of [0, 3] holding 0


def _scan_output(moduli, mode):
    campaign = Campaign(group=GroupSpec(moduli), mode=mode)
    records, summary = scan(campaign)
    buf = io.StringIO()
    write_csv(records, buf, campaign)
    return records, summary, buf.getvalue().encode()


def test_scan_checker_rejects_off_by_one_reps_and_changed_csv_byte():
    records, summary, csv = _scan_output((2, 4), "translation+negation")
    reps = checks.group_orbit_count(ORACLES, (2, 4), "translation+negation")
    ok = dict(universe=255, reps=reps, reference_csv=csv)
    assert checks.check_scan(records, summary, csv, **ok) == []
    assert checks.check_scan(records, summary, csv, **dict(ok, reps=reps + 1))
    assert checks.check_scan(records, summary, csv, **dict(ok, universe=256))
    changed = csv[:-2] + bytes([csv[-2] ^ 1]) + csv[-1:]
    assert checks.check_scan(records, summary, changed, **ok)


def test_sweep_checker_rejects_a_flipped_verdict():
    summary = sweep_claim("thm1", GroupSpec((6,)))
    cosets = len(ORACLES.naive_coset_masks((6,)))
    assert checks.check_sweep(summary, total=63, cosets=cosets) == []
    counts = dict(summary.counts)
    counts["equality-case"] -= 1
    counts["holds"] += 1
    flipped = dataclasses.replace(summary, counts=counts)
    assert checks.check_sweep(flipped, total=63, cosets=cosets)
    counts = dict(summary.counts, violated=1)
    counts["holds"] -= 1
    assert checks.check_sweep(dataclasses.replace(summary, counts=counts), total=63, cosets=cosets)


def _query(kind, moduli, elements):
    from workloads import oracle_sizes

    req = Request(kind, moduli, elements)
    code, out = call_cli(req.argv())
    return req, code, out, oracle_sizes(ORACLES, req)


def test_query_checker_rejects_wrong_size_flag_and_exit_code():
    req, code, out, want = _query("constants", (4, 12), (0, 1, 5, 7, 30, 41))
    assert checks.check_query(req, code, out, want) == []
    payload = json.loads(out)
    payload["sizes"]["AA"] += 1
    assert checks.check_query(req, code, json.dumps(payload), want)
    assert checks.check_query(req, 2, out, want)
    assert checks.check_query(req, code, out[:-3], want)  # truncated JSON

    req, code, out, want = _query("ruzsa", None, (3, 4, 7, 9, 12, 13))
    assert checks.check_query(req, code, out, want) == []
    payload = json.loads(out)
    payload["injective"] = False
    assert checks.check_query(req, code, json.dumps(payload), want)

    req, code, out, want = _query("petridis", (48,), (0, 5, 9, 17, 30, 33))
    assert checks.check_query(req, code, out, want) == []
    payload = json.loads(out)
    payload["equality"] = not payload["equality"]
    assert checks.check_query(req, code, json.dumps(payload), want)

    req, code, out, want = _query("thm5", (2, 24), (1, 2, 8, 13, 21, 40))
    assert checks.check_query(req, code, out, want) == []
    payload = json.loads(out)
    payload["outcome"] = "violated"
    assert checks.check_query(req, code, json.dumps(payload), want)


def test_cli_checker_rejects_non_zero_exit_and_changed_output():
    ref = b"# sumdiff\nrow\n"
    assert checks.check_cli_output(0, ref, ref) == []
    assert checks.check_cli_output(1, ref, ref)
    assert checks.check_cli_output(0, ref.replace(b"row", b"rox"), ref)


def test_runner_counts_rejected_and_raising_operations_as_failed():
    def boom():
        raise RuntimeError("planted")

    ops = [
        Op("good", 1, lambda: 1, lambda out: []),
        Op("wrong", 1, lambda: 2, lambda out: ["planted wrong answer"]),
        Op("raises", 1, boom, lambda out: []),
    ]
    res = worker.run_blocks(iter([ops]), seconds=0, min_blocks=1, interrupt=True)
    assert (res["attempted"], res["failed"]) == (3, 2)
    assert set(res["samples"]) == {"good", "wrong", "raises"}


def test_tracer_patches_every_importer_and_records_spans():
    from tracer import Tracer

    tracer = Tracer()
    original = explorer.sumset
    tracer.install()
    assert explorer.sumset is not original  # the name explorer imported is patched too
    tracer.span("root", explorer.scan, Campaign(group=GroupSpec((6,))))
    assert tracer.calls("explorer.scan") == 1
    assert tracer.calls("sets.sumset") > 0 and tracer.calls("groups.shift_mask") > 0
    (scan_span,) = [s for s in tracer.spans if s[2] == "explorer.scan"]
    (root_span,) = [s for s in tracer.spans if s[2] == "root"]
    assert scan_span[1] == root_span[0]  # the scan's parent is the root span


def test_self_time_is_duration_minus_traced_children():
    from tracer import Tracer

    tracer = Tracer()
    inner = tracer.wrap("t.inner", lambda: time.sleep(0.02), hot=True)
    outer = tracer.wrap("t.outer", lambda: (inner(), time.sleep(0.01)), hot=False)
    outer()
    _, total, self_s = tracer.agg["t.outer"]
    assert abs(total - self_s - tracer.agg["t.inner"][1]) < 1e-9
    assert 0.01 <= self_s < total
