import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import sumdiff
from sumdiff import Campaign, GroupSpec, ParseError, check_fact1, cli, embed_integer_set, explorer, is_coset, ruzsa, scan
from sumdiff.cli import main, parse_group_literal, parse_set_literal

from test_golden_cli import GROUP_SETS, INT_SETS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parse_group_literal():
    assert parse_group_literal("Z12") == GroupSpec((12,))
    assert parse_group_literal("z2Xz3xZ5") == GroupSpec((2, 3, 5))
    with pytest.raises(ParseError):
        parse_group_literal("Q8")
    with pytest.raises(ParseError):
        parse_group_literal("Z0")
    err = None
    try:
        parse_group_literal("Z2xW3")
    except ParseError as e:
        err = e
    assert err is not None and err.position == 3


def test_parse_set_literal():
    p = parse_set_literal("0,1,3@Z8")
    assert p.kind == "group" and p.gset().elements() == (0, 1, 3)
    p = parse_set_literal("0,2,3,14@Z")
    assert p.kind == "ints" and p.values == (0, 2, 3, 14)
    with pytest.raises(ValueError, match="^integer-mode literal has no direct GSet$"):
        p.gset()  # it is embedded per operation
    with pytest.raises(ParseError):
        parse_set_literal("0,1,3")
    with pytest.raises(ParseError):
        parse_set_literal("@Z8")
    with pytest.raises(ParseError):
        parse_set_literal("0,x@Z8")
    with pytest.raises(ParseError):
        parse_set_literal("9@Z8")


def test_constants_group_mode():
    code, out, _ = run(["constants", "0,1,3@Z8"])
    assert code == 0
    assert "sigma    2/1" in out and "delta    7/3" in out
    code, out, _ = run(["constants", "1,4@Z6"])
    assert code == 0 and "sigma    1/1" in out and "coset    true" in out


def test_constants_integer_mode_echoes_modulus():
    code, out, _ = run(["constants", "0,2,3,4,7,11,12,14@Z"])
    assert code == 0
    assert "|A+A|    26" in out and "|A-A|    25" in out and "Z29" in out


def test_constants_roundtrip_json():
    code, out, _ = run(["constants", "0,1,3@Z8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == [2, 1] and payload["delta"] == [7, 3]
    reparsed = parse_set_literal(payload["set"])
    assert reparsed.gset().elements() == (0, 1, 3)


def test_integer_sets_embed_as_cosets_only_when_singletons():
    # why constants needs no integer-mode coset rule of its own: fact1's is_coset decides
    for mask in range(512):  # least element 0, largest at most 9
        values = (0, *(i + 1 for i in range(9) if mask >> i & 1))
        _, A = embed_integer_set(values, 1, 1)
        assert (is_coset(A) is not None) == (len(values) == 1), values


@pytest.mark.parametrize("literal", GROUP_SETS + INT_SETS)
def test_constants_json_agrees_with_fact1(literal):
    code, out, _ = run(["constants", literal, "--format", "json"])
    parsed = parse_set_literal(literal)
    A = parsed.gset() if parsed.kind == "group" else embed_integer_set(parsed.values, 1, 1)[1]
    v = check_fact1(A)
    got = json.loads(out)
    assert code == 0 and got["sizes"] == v.sizes and got["coset"] == v.details["coset"]
    assert Fraction(*got["sigma"]) == v.ratios["sigma"] and Fraction(*got["delta"]) == v.ratios["delta"]


def test_check_single_and_exit_codes():
    code, out, _ = run(["check", "thm5", "0,1@Z8", "--n", "3"])
    assert code == 0 and "outcome  holds" in out
    code, out, _ = run(["check", "ineq1", "1,4@Z6"])
    assert code == 0 and "outcome  equality-case" in out
    code, out, _ = run(["check", "thm3", "0,1@Z5"])
    assert code == 0 and "link3" in out


def test_check_sweep():
    code, out, _ = run(["check", "fact1", "--sweep", "Z12"])
    assert code == 0 and "equality-case  28" in out
    code, out, _ = run(["check", "fact1", "--sweep", "Z10", "--format", "json"])
    payload = json.loads(out)
    assert payload["counts"]["equality-case"] == 18
    assert payload["counts"]["violated"] == 0


@pytest.mark.parametrize("claim", ["thm3", "thm5"])
def test_sampled_minimizer_sweep_of_a_large_group(claim):
    # the minimizer claims sample sets within the minimizer cap instead of aborting
    argv = ["check", claim, "--sweep", "Z64", "--sample", "10", "--format", "json"]
    code, out, _ = run(argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 10 and payload["counts"]["violated"] == 0
    assert run(argv) == (code, out, "")


def test_check_integer_mode():
    code, out, _ = run(["check", "ineq1", "0,2,3,14@Z"])
    assert code == 0 and "outcome  holds" in out


def test_witness_ruzsa():
    code, out, _ = run(["witness", "ruzsa", "0,1@Z5"])
    assert code == 0 and "injective  true" in out and "surjective false" in out
    code, out, _ = run(["witness", "ruzsa", "1,4@Z6"])
    assert code == 0 and "surjective true" in out
    code, out, _ = run(["witness", "ruzsa", "0,1@Z5", "--format", "json"])
    payload = json.loads(out)
    assert {"w": 1, "u": 1, "v": 0} in payload["witness_map"]
    assert {"a": 0, "u": 1, "out1": 1, "out2": 0} in payload["injection_map"]
    assert len(payload["injection_map"]) == 6


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_witness_ruzsa_counts_the_sumset_once(monkeypatch, fmt):
    calls = []

    def counting(A, B):
        calls.append(A)
        return sumset(A, B)

    sumset = cli.sumset
    monkeypatch.setattr(cli, "sumset", counting)
    monkeypatch.setattr(ruzsa, "sumset", counting)
    code, out, _ = run(["witness", "ruzsa", "0,1,3@Z8", "--format", fmt])
    assert code == 0 and "surjective" in out and len(calls) == 1


def test_witness_petridis():
    code, out, _ = run(["witness", "petridis", "0,3@Z6", "--C", "0,1"])
    assert code == 0 and "equality true" in out and "Q        {0,1}" in out
    code, out, _ = run(
        ["witness", "petridis", "0,1@Z5", "--C", "0,1", "--format", "json"]
    )
    payload = json.loads(out)
    assert payload["X"] == [0, 4] and payload["K"] == [3, 2]
    assert payload["equality"] is False and payload["certificate"] is None
    steps = payload["steps"]
    assert steps[0]["X_k"] == [] and steps[1]["X_k"] == [4]
    assert set(steps[0]) == {
        "k", "c_k", "X_k", "Y_k", "lhs", "rhs_num", "rhs_den", "equality_conditions",
    }


def test_witness_order_flag():
    code, out, _ = run(
        ["witness", "petridis", "0,3@Z6", "--C", "0,1", "--order", "desc", "--format", "json"]
    )
    assert code == 0 and json.loads(out)["order"] == [1, 0]


def test_witness_custom_base():
    code, out, _ = run(
        ["witness", "petridis", "0,1@Z5", "--base", "0,4", "--format", "json"]
    )
    assert code == 0 and json.loads(out)["X"] == [0, 4]


def test_witness_petridis_integer_mode():
    code, out, _ = run(["witness", "petridis", "0,1@Z", "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["modulus"] == 4  # arity (2,1): 3*range + 1
    code, _, err = run(["witness", "petridis", "0,1@Z", "--C", "5,6"])
    assert code == 1 and "range" in err


def test_scan_summary_z10():
    code, out, _ = run(["scan", "--group", "Z10", "--all", "--threads", "1"])
    assert code == 0 and "coset           18" in out


def test_scan_z1_single_record():
    code, out, _ = run(["scan", "--group", "Z1", "--format", "json", "--threads", "1"])
    payload = json.loads(out)
    assert len(payload["records"]) == 1 and payload["records"][0]["coset"] is True


def test_scan_mstd_and_exponents():
    code, out, _ = run(
        ["scan", "--ints", "0..14", "--max-size", "8", "--mstd", "--exponents", "--threads", "1"]
    )
    assert code == 0
    assert "0,2,3,4,7,11,12,14@Z" in out
    assert "1.12594" in out


def test_scan_csv_roundtrip(tmp_path):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(
        ["scan", "--group", "Z8", "--format", "csv", "--out", str(out_file), "--threads", "1"]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[1].split(",")[:5] == ["group", "set", "card", "sum_card", "diff_card"]
    # every row reparses to the same set
    import csv as csvmod

    for row in csvmod.DictReader(lines[1:]):
        lit = row["set"] + "@" + row["group"]
        assert parse_set_literal(lit).gset().card == int(row["card"])


def test_scan_range_partition_matches_full(tmp_path):
    full = tmp_path / "full.csv"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["scan", "--group", "Z8", "--format", "csv", "--out", str(full), "--threads", "1"])
    run(["scan", "--group", "Z8", "--format", "csv", "--out", str(a), "--range", "1:128", "--threads", "1"])
    run(["scan", "--group", "Z8", "--format", "csv", "--out", str(b), "--range", "128:256", "--threads", "1"])
    body = lambda p: p.read_text().splitlines()[2:]
    assert body(a) + body(b) == body(full)


def test_mstd_command():
    code, out, _ = run(["mstd", "--ints", "0..14", "--max-size", "8", "--threads", "1"])
    assert code == 0 and out.splitlines()[0].endswith("surplus=1")
    code, out, _ = run(["mstd", "--group", "Z7", "--threads", "1"])
    assert code == 0 and "no sum-dominant sets" in out


@pytest.mark.parametrize(
    "flags, kwargs",
    [
        (["--ints", "0..14", "--max-size", "8"], {"ints": (0, 14), "max_size": 8}),
        (["--group", "Z3xZ6"], {"group": GroupSpec((3, 6))}),
        (["--ints", "0..9", "--mode", "none"], {"ints": (0, 9), "mode": "none"}),
        (["--group", "Z20"], {"group": GroupSpec((20,))}),  # surpluses 1 and 2
    ],
    ids=["ints-0..14", "Z3xZ6", "ints-0..9-none", "Z20"],
)
def test_mstd_json_records_match_sorted_scan(flags, kwargs):
    code, out, _ = run(["mstd", *flags, "--format", "json", "--threads", "1"])
    lo = kwargs["ints"][0] if "ints" in kwargs else 0
    mask = lambda r: sum(1 << (e - lo) for e in r.elements)
    records, _ = scan(Campaign(**kwargs))
    mstd = [r for r in records if r.sum_card > r.diff_card]
    mstd.sort(key=lambda r: (r.diff_card - r.sum_card, mask(r)))  # largest surplus first, then by mask
    expected = [r.to_json_dict() for r in mstd]
    assert code == 0 and json.loads(out)["records"] == json.loads(json.dumps(expected))


def test_mstd_command_calls_find_mstd_once(monkeypatch):
    calls = []

    def counting(**kwargs):
        calls.append(kwargs)
        return explorer.find_mstd(**kwargs)

    monkeypatch.setattr(cli, "find_mstd", counting)
    code, out, _ = run(["mstd", "--group", "Z3xZ6", "--threads", "1"])
    assert code == 0 and len(calls) == 1 and "surplus=" in out
    assert calls[0]["group"] == GroupSpec((3, 6)) and calls[0]["threads"] == 1


def test_python_m_sumdiff_runs_the_console_entry_point():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sumdiff.__file__)))
    call = lambda *argv: subprocess.run(
        [sys.executable, "-m", "sumdiff", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert call("constants", "0,1@Z5").returncode == 0
    assert call("constants", "0,x@Z5").returncode == 1
    assert call("check", "thm3", "--sweep", "Z26").returncode == 2
    version = call("--version")
    assert (version.returncode, version.stdout) == (0, f"sumdiff {sumdiff.__version__}\n")


def test_exit_codes():
    code, _, err = run(["constants", "0,1,3@"])
    assert code == 1 and "error" in err
    code, _, err = run(["check", "thm3", "--sweep", "Z26"])
    assert code == 2
    # a sample covering every subset sweeps exhaustively, so the group cap refuses it
    for argv, message in (
        (["check", "fact1", "--sweep", "Z8", "--group-cap", "6", "--sample", "255"], "group order 8 exceeds scan cap 6"),
        (["check", "fact1", "--sweep", "Z2xZ32", "--sample", str(2**64 - 1)], "group order 64 exceeds scan cap 24"),
    ):
        assert run(argv) == (2, "", f"error: {message}\n")
    code, _, err = run(["scan", "--group", "Z30", "--threads", "1"])
    assert code == 2
    code, _, _ = run(["check", "bogus", "0,1@Z5"])
    assert code == 1
    code, _, _ = run(["nonsense"])
    assert code == 1


def test_json_byte_determinism():
    runs = [run(["scan", "--group", "Z8", "--format", "json", "--threads", "1"]) for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    runs = [run(["witness", "ruzsa", "0,1,3@Z8", "--format", "json"]) for _ in range(2)]
    assert runs[0][1] == runs[1][1]


_AWKWARD_STRS = ['"', "\\", "\x00\x1f\n\t", "\u00e9", "\u96ea", "\U0001f600", ""]
_AWKWARD_FLOATS = [-0.0, 1e-7, 1e16, math.nan, math.inf, -math.inf]


def test_json_emitter_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    strs = st.text(max_size=10) | st.sampled_from(_AWKWARD_STRS)
    leaves = (
        st.integers()
        | st.integers(min_value=2**64)
        | st.booleans()
        | st.none()
        | strs
        | st.floats()
        | st.sampled_from(_AWKWARD_FLOATS)
    )
    ints = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
    misses = {"bool": True, "float": 1.0, "str": "1", "list": [1], "nested": {"k": 1}}

    @st.composite
    def int_runs(draw):
        """A list or tuple of dicts with one key set in shuffled orders and int values,
        with at most one planted near-miss of the cli._json fast path."""
        keys = draw(st.lists(strs | st.sampled_from(["%", "%d", "a%%s"]), min_size=1, max_size=4, unique=True))
        run = [{k: draw(ints) for k in draw(st.permutations(keys))} for _ in range(draw(st.integers(1, 6)))]
        member, key = draw(st.sampled_from(run)), draw(st.sampled_from(keys))
        miss = draw(st.sampled_from([None, "missing", "extra", "renamed", *misses]))
        if miss in ("missing", "renamed"):
            del member[key]
        if miss in ("extra", "renamed"):
            member[draw(strs.filter(lambda k: k not in keys))] = 0
        elif miss in misses:
            member[key] = misses[miss]
        return draw(st.sampled_from([list, tuple]))(run)

    payloads = st.recursive(
        leaves | int_runs(),
        lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(strs, kids),
        max_leaves=20,
    )

    @hypothesis.settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @hypothesis.given(payloads)
    def matches(obj):
        assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2)

    matches()
    fixed = {s: [s, {}, (), *_AWKWARD_FLOATS, -(2**70), 2**64, True, None] for s in _AWKWARD_STRS}
    row = {"w": -(2**70), "%d": 2**64, "u": 0, "\u00e9": -1}
    fixed["runs"] = [
        [row, dict(reversed(row.items())), {**row, "w": 7}],
        (row, {**row, "u": True}),
        [row, {**row, "u": 0.0}],
        [row, {**row, "u": "0"}],
        [row, {**row, "u": [0]}],
        [row, {k: v for k, v in row.items() if k != "u"}],
        [row, {**row, "v": 0}],
        [row, {**{k: v for k, v in row.items() if k != "u"}, "v": 0}],
        [row, [*row.values()]],
        [{"k": 1}, {"k": 2}],
        [row],
    ]
    assert cli._json(fixed) == json.dumps(fixed, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "bad",
    [Fraction(1, 3), {1, 2}, {1: "a"}, [{1: 2, 3: 4}, {1: 5, 3: 6}]],
    ids=["Fraction", "set", "int-key", "int-key-run"],
)
def test_json_emitter_rejects_other_types(bad):
    for obj in (bad, {"k": [bad]}, [{"a": 1, "b": 2}, {"a": 3, "b": bad}]):
        with pytest.raises(TypeError):
            cli._json(obj)


def test_config_file(tmp_path):
    cfg = tmp_path / "sumdiff.cfg"
    cfg.write_text("# caps\nminimizer_cap=2\n")
    code, _, err = run(["--config", str(cfg), "check", "thm3", "0,1,2@Z8"])
    assert code == 2  # configured cap is below |A| = 3
    # flag overrides config
    code, _, _ = run(["--config", str(cfg), "check", "thm3", "0,1,2@Z8", "--minimizer-cap", "20"])
    assert code == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key=1\n")
    code, _, _ = run(["--config", str(bad), "constants", "0@Z5"])
    assert code == 1


def test_config_out_dir(tmp_path):
    cfg = tmp_path / "sumdiff.cfg"
    cfg.write_text(f"out_dir={tmp_path}\n")
    code, _, _ = run(
        ["--config", str(cfg), "scan", "--group", "Z6", "--format", "csv", "--out", "res.csv", "--threads", "1"]
    )
    assert code == 0 and (tmp_path / "res.csv").exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["scan", "--group", "Z6", "--threads", "0"], None, "error: --threads must be >= 1, got 0"),
        (["scan", "--group", "Z6", "--threads", "-3"], None, "error: --threads must be >= 1, got -3"),
        (["mstd", "--group", "Z6", "--threads", "0"], None, "error: --threads must be >= 1, got 0"),
        (["scan", "--group", "Z6"], "threads=0\n", "error: config key 'threads' must be >= 1, got 0"),
        (["mstd", "--group", "Z6"], "threads=0\n", "error: config key 'threads' must be >= 1, got 0"),
        (["scan", "--group", "Z6"], "threads=1\nthreads=2\n", "error: config line 2: duplicate key 'threads'"),
        (["scan", "--group", "Z8", "--range", "5:2", "--threads", "1"], None, "mask range 5:2 ends before it starts"),
        (["scan", "--group", "Z6", "--min-size", "0", "--threads", "1"], None, "error: min_size must be >= 1, got 0"),
        (["scan", "--ints", "0..5", "--min-size", "-2", "--threads", "1"], None, "min_size must be >= 1, got -2"),
        (["scan", "--group", "Z6", "--min-size", "9"], None, "error: min_size 9 exceeds the universe's 6 elements"),
        (["scan", "--ints", "0..5", "--min-size", "7"], None, "error: min_size 7 exceeds the universe's 6 elements"),
        (["scan", "--group", "Z6", "--max-size", "-1", "--threads", "1"], None, "error: empty size window 1..-1"),
        (["scan", "--group", "Z6", "--min-size", "4", "--max-size", "3", "--threads", "1"], None, "empty size window 4..3"),
        (["mstd", "--group", "Z6", "--max-size", "-1", "--threads", "1"], None, "empty size window 1..-1"),
        (["constants", "0,0,1@Z8"], None, "duplicate element 0"),
        (["check", "ineq1", "3,3,1@Z"], None, "duplicate element 3"),
        (["witness", "petridis", "0,1@Z5", "--C", "1,1"], None, "duplicate element 1"),
        (["witness", "petridis", "0,1@Z5", "--base", "0,4,0"], None, "duplicate element 0"),
        (["check", "thm1", "--sweep", "Z9", "--sample", "0"], None, "error: --sample must be >= 1, got 0"),
        (["check", "thm1", "--sweep", "Z9", "--sample", "-4"], None, "error: --sample must be >= 1, got -4"),
        (["check", "thm5", "0,1@Z8", "--n", "0"], None, "error: --n must be >= 1, got 0"),
        (["check", "fact1", "0,1@Z5", "--n", "0"], None, "error: --n must be >= 1, got 0"),
        (["check", "thm3", "--sweep", "Z7", "--n", "-1"], None, "error: --n must be >= 1, got -1"),
        # input the command does not read
        (["check", "thm1", "0,1@Z5", "--sweep", "Z6"], None, "error: --sweep takes no set literal, got '0,1@Z5'"),
        (["check", "fact1", "0,1@Z5", "--sample", "3"], None, "error: --sample needs --sweep"),
        (["check", "fact1", "0,1@Z5", "--seed", "3"], None, "error: --seed needs --sweep"),
        (["check", "fact1", "0,1@Z5", "--seed", "-4", "--sample", "0"], None, "error: --sample needs --sweep"),
        (["check", "thm1", "--sweep", "Z9", "--seed", "3"], None, "needs a sample smaller than the 511 subsets of Z9"),
        (["check", "thm1", "--sweep", "Z4", "--sample", "100", "--seed", "2"], None, "seed 2 needs a sample smaller than"),
        (["check", "thm1", "0,1@Z5", "--group-cap", "8"], None, "error: --group-cap needs --sweep"),
        (["witness", "ruzsa", "0,1,3@Z8", "--C", "0,1"], None, "error: --C is not read by witness ruzsa"),
        (["witness", "ruzsa", "0,1,3@Z8", "--base", "0,4"], None, "error: --base is not read by witness ruzsa"),
        (["witness", "ruzsa", "0,1,3@Z8", "--order", "asc"], None, "error: --order is not read by witness ruzsa"),
        (["witness", "ruzsa", "0,1,3@Z8", "--order", "desc"], None, "error: --order is not read by witness ruzsa"),
        (
            ["witness", "ruzsa", "0,1,3@Z8", "--minimizer-cap", "20"],
            None,
            "error: --minimizer-cap is not read by witness ruzsa",
        ),
        (["check", "thm3", "0,1,3@Z8", "--minimizer-cap", "0"], None, "--minimizer-cap must be >= 1, got 0"),
        (["check", "thm5", "0,1,3@Z8", "--minimizer-cap", "-2"], None, "--minimizer-cap must be >= 1, got -2"),
        (["witness", "petridis", "0,1@Z5", "--minimizer-cap", "0"], None, "--minimizer-cap must be >= 1, got 0"),
        (["check", "thm3", "0,1,3@Z8"], "minimizer_cap=0\n", "config key 'minimizer_cap' must be >= 1, got 0"),
        (["check", "thm1", "--sweep", "Z8", "--group-cap", "0"], None, "--group-cap must be >= 1, got 0"),
        (["scan", "--group", "Z8", "--group-cap", "0", "--threads", "1"], None, "--group-cap must be >= 1, got 0"),
        (["mstd", "--group", "Z8", "--group-cap", "0", "--threads", "1"], None, "--group-cap must be >= 1, got 0"),
        (["mstd", "--group", "Z8", "--threads", "1"], "group_cap=-1\n", "config key 'group_cap' must be >= 1, got -1"),
        (["scan", "--ints", "0..5", "--width-cap", "0", "--threads", "1"], None, "--width-cap must be >= 1, got 0"),
        (["mstd", "--ints", "0..5", "--width-cap", "0", "--threads", "1"], None, "--width-cap must be >= 1, got 0"),
        (["mstd", "--ints", "0..5", "--threads", "1"], "width_cap=0\n", "config key 'width_cap' must be >= 1, got 0"),
        # non-ASCII digits (Arabic-Indic three, eight, one, two) are not read as 3, 8, 1, 2
        (["constants", "3,1@Z\u0668"], None, "expected a cyclic factor"),
        (["constants", "\u0663,1@Z8"], None, "expected an integer, got '\u0663'"),
        (["check", "thm1", "--sweep", "Z\u0668"], None, "expected a cyclic factor"),
        (["witness", "petridis", "0,1@Z5", "--base", "0,\u0661"], None, "expected an integer, got '\u0661'"),
        (["scan", "--group", "Z\u0668", "--threads", "1"], None, "expected a cyclic factor"),
        (["scan", "--group", "Z8", "--range", "\u0661:4", "--threads", "1"], None, "expected a mask range"),
        (["mstd", "--ints", "0..\u0661\u0662", "--threads", "1"], None, "expected an integer window"),
        # numeric flags and config values read only -?[0-9]+, not what int() also takes
        (["scan", "--group", "Z6", "--threads", "\u0661"], None, "argument --threads: expected an integer, got '\u0661'"),
        (["scan", "--group", "Z6", "--max-size", "\u0662", "--threads", "1"], None, "--max-size: expected an integer"),
        (["check", "thm5", "0,1@Z8", "--n", "\u0663"], None, "--n: expected an integer"),
        (["check", "thm1", "--sweep", "Z9", "--sample", "1_0"], None, "--sample: expected an integer"),
        (["check", "thm1", "--sweep", "Z9", "--sample", "10", "--seed", "+3"], None, "--seed: expected an integer"),
        (["scan", "--group", "Z6", "--threads", " 1"], None, "--threads: expected an integer"),
        (["scan", "--group", "Z6"], "threads=\u0661\n", "config key 'threads': expected an integer"),
    ],
)
def test_bad_input_exits_1(tmp_path, argv, config, message):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg), *argv]
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--group", "Z6", "--format", "xml"],
        ["scan", "--group", "Z6", "--threads"],
        ["scan", "--group", "Z6", "--bogus"],
        [],
        ["constants"],
        ["check", "nope", "0@Z5"],
        ["scan", "--group", "Z6", "--threads", "\u0661"],
    ],
    ids=["bad-choice", "missing-value", "unknown-flag", "no-subcommand", "missing-set", "bad-claim", "bad-number"],
)
def test_usage_errors_print_one_error_line(argv):
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "usage:" not in err


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"], ["--version"]])
def test_help_and_version_exit_0(argv):
    code, out, err = run(argv)
    assert code == 0 and out and err == ""


def test_negative_literals_are_values(tmp_path):
    # argparse keeps its negative-number pattern in the private _negative_number_matcher:
    # a Python that renames it fails here, not silently
    parse = cli.build_parser().parse_args
    assert parse(["constants", "-3,0,4@Z"]).set == "-3,0,4@Z"
    assert parse(["scan", "--ints", "-3..4"]).ints == "-3..4"
    from test_golden_cli import FIXTURE, _run_case

    twin = "scan --ints=-4..5 --format csv --threads 1"
    digest = next(line.split()[0] for line in FIXTURE.read_text().splitlines() if line.endswith(" 0 " + twin))
    assert _run_case(["scan", "--ints", "-4..5", "--format", "csv", "--threads", "1"], tmp_path) == (0, digest)


def test_threads_are_only_validated():
    # every scan runs in one process: the count is read, checked (test_bad_input_exits_1) and passed on
    parse = cli.build_parser().parse_args
    assert cli._setting(parse(["scan", "--group", "Z6", "--threads", "64"]), {}, "threads", 1) == 64
    assert cli._setting(parse(["mstd", "--group", "Z6"]), {"threads": "3"}, "threads", 1) == 3
    assert cli._setting(parse(["scan", "--group", "Z6"]), {}, "threads", 1) == 1
    assert cli._setting(parse(["scan", "--group", "Z6", "--threads", "1"]), {"threads": "2"}, "threads", 1) == 1


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_out_is_atomic(tmp_path, monkeypatch, exc):
    target = tmp_path / "scan.csv"
    target.write_text("previous run\n")
    argv = ["scan", "--group", "Z6", "--format", "csv", "--out", str(target), "--threads", "1"]
    write_csv = cli.write_csv

    def partial_then_fail(records, fh, campaign=None):
        fh.write("# sumdiff partial header\n")
        fh.flush()
        raise exc("render interrupted")

    monkeypatch.setattr(cli, "write_csv", partial_then_fail)
    with pytest.raises(exc):
        run(argv)
    assert target.read_text() == "previous run\n"
    assert list(tmp_path.iterdir()) == [target]
    monkeypatch.setattr(cli, "write_csv", write_csv)
    assert run(argv)[0] == 0
    assert target.read_text().startswith("# sumdiff ")
    assert list(tmp_path.iterdir()) == [target]


def test_cli_import_leaves_multiprocessing_unloaded():
    # the process pool is imported only when a scan fans out
    src = os.path.dirname(os.path.dirname(sumdiff.__file__))
    code = "import sys, sumdiff.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False\n")


def _fresh_process(argv):
    """(exit code, stdout, stderr) of one main() call in a new interpreter,
    which must not have built a parser on import."""
    src = os.path.dirname(os.path.dirname(sumdiff.__file__))
    code = (
        "import sys, sumdiff.cli as c\n"
        "assert c._parser is None, 'parser built at import'\n"
        "sys.exit(c.main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout, out.stderr


def _limited_process(argv, limit_mb):
    """(exit code, stdout, stderr, peak RSS in MB) of ``python -m sumdiff argv`` in a
    child whose address space is capped at ``limit_mb``: a memory regression then
    fails the child instead of exhausting the machine."""
    src = os.path.dirname(os.path.dirname(sumdiff.__file__))

    def cap():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    proc = subprocess.Popen(
        [sys.executable, "-m", "sumdiff", *argv], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, preexec_fn=cap,
    )
    with proc.stdout, proc.stderr:  # both small; wait4 then gives this child's own usage
        out, err = proc.stdout.read(), proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss / 1024


@pytest.mark.parametrize("argv", [["constants"], ["check", "thm3"], ["witness", "ruzsa"]], ids=" ".join)
def test_wide_integer_literal_runs_in_bounded_memory(argv):
    # the embedding modulus is in the millions: each map of the group is one index table
    code, out, err, peak_mb = _limited_process([*argv, "0,1,1000000@Z", "--format", "json"], 1024)
    assert (code, err) == (0, "") and peak_mb < 300
    payload = json.loads(out)
    assert payload["set"].startswith("0,1,1000000") and payload.get("sizes", {"A": 3})["A"] == 3


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_running_out_of_memory_exits_2_with_one_error_line(fmt):
    # Z10000000000's tables do not fit in 1 GiB: the MemoryError is an exceeded resource, not a traceback
    code, out, err, _ = _limited_process(["constants", "0,1@Z10000000000", "--format", fmt], 1024)
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("mode", ["translation", "translation+negation"])
@pytest.mark.parametrize("moduli", [(8, 4, 2), (2, 32)], ids=["Z8xZ4xZ2", "Z2xZ32"])
def test_a_window_of_an_order_64_product_costs_its_own_share(moduli, mode):
    # two 32-bit blocks and 32 blocks of 2 bits: the 512 masks below 2^64 take neither a 2^32-entry
    # symbol table nor a walk through every prefix below LO, either of which the limits stop
    lo, hi = (1 << 64) - 512, 1 << 64
    campaign = Campaign(group=GroupSpec(moduli), mode=mode, group_cap=64)
    label, window = campaign.group.label(), f"{lo}:{hi}"
    argv = ["scan", "--group", label, "--group-cap", "64", "--mode", mode, "--range", window, "--format", "csv"]
    code, out, err, peak_mb = _limited_process(argv, 1024)
    record = explorer._recorder(campaign)
    walk = [record(*pair) for pair in explorer._orbit_walk(campaign, explorer._sizes(campaign), lo, hi)]
    buf = io.StringIO()
    explorer.write_csv(walk, buf, campaign)
    assert (code, err) == (0, "") and out == buf.getvalue() and peak_mb < 300


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "fact1", "--sweep", "Z2xZ32", "--group-cap", "64"],
        ["scan", "--group", "Z2xZ32", "--group-cap", "64", "--mode", "full-affine"],
        ["check", "fact1", "--sweep", "Z2xZ20", "--group-cap", "40"],
        ["check", "fact1", "--sweep", "Z31", "--group-cap", "31"],
    ],
    ids=" ".join,
)
def test_a_walk_above_its_ceiling_exits_2(argv):
    # a raised --group-cap reaches the full-affine walk, whose visited array takes a byte per mask;
    # an exhaustive sweep refuses more than 2^30 masks whatever its source, before it runs
    code, out, err, _ = _limited_process(argv, 1024)
    group = argv[argv.index("--sweep" if "--sweep" in argv else "--group") + 1]
    masks = (1 << parse_group_literal(group).order) - 1
    assert (code, out) == (2, "")
    if "--sweep" in argv:
        assert err == f"error: exhaustive sweep of {group} covers {masks} masks, above 2^30\n"
    else:
        assert err == f"error: full-affine orbits of {group} walk {masks} masks, above 2^30\n"


def test_a_narrow_walk_of_an_order_64_product_runs():
    window = f"{(1 << 64) - 512}:{1 << 64}"
    argv = ["scan", "--group", "Z2xZ32", "--group-cap", "64", "--mode", "full-affine", "--range", window]
    code, out, err, _ = _limited_process([*argv, "--format", "json"], 1024)
    assert (code, err) == (0, "") and json.loads(out)["summary"]["representatives"] == 1  # the whole group


@pytest.mark.parametrize(
    "first, first_code",
    [
        (["check", "thm5", "0,1,3@Z8", "--n", "3", "--format", "json"], 0),
        (["check", "thm5", "0,1,3@Z8", "--format", "json", "--bogus-flag"], 1),
        (["--version"], 0),
        (["--config", "{cfg}", "check", "thm5", "0,1,3@Z8", "--format", "json"], 2),
    ],
    ids=["n3", "bad-flag", "version", "config"],
)
def test_reused_parser_leaks_no_state(tmp_path, first, first_code):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("minimizer_cap=1\n")
    second = ["check", "thm5", "0,1,3@Z8", "--format", "json"]
    assert run([a.replace("{cfg}", str(cfg)) for a in first])[0] == first_code
    got = run(second)
    assert got == _fresh_process(second)
    assert json.loads(got[1])["details"]["n"] == 2


def test_second_main_call_builds_no_parser(monkeypatch):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    assert run(["constants", "0,1,3@Z8"])[0] == 0
    assert built  # the first call builds the parser tree
    built.clear()
    assert run(["witness", "ruzsa", "0,1,3@Z8"])[0] == 0
    assert run(["constants", "0,1,3@"])[0] == 1
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        # full-affine products: Z2xZ8 and Z3xZ4 walk, Z2xZ6 (units +-1) takes block necklaces
        ["scan", "--group", "Z2xZ8", "--mode", "full-affine", "--exponents", "--format", "json"],
        ["scan", "--group", "Z2xZ6", "--mode", "full-affine", "--format", "csv"],
        ["scan", "--group", "Z3xZ4", "--mode", "full-affine", "--exponents"],
        ["mstd", "--group", "Z3xZ4", "--mode", "full-affine", "--max-size", "8", "--format", "json"],
    ],
    ids=["scan-json", "scan-csv", "scan-human", "mstd-json"],
)
def test_two_workers_print_the_one_worker_bytes(argv):
    assert run([*argv, "--threads", "2"]) == run([*argv, "--threads", "1"])


@pytest.mark.parametrize("fmt, builds", [("csv", 0), ("json", 1), ("human", 1)])
def test_exponent_report_built_once_and_never_for_csv(monkeypatch, fmt, builds):
    built = []
    report = cli.exponent_report
    monkeypatch.setattr(cli, "exponent_report", lambda records: built.append(1) or report(records))
    assert run(["scan", "--group", "Z8", "--exponents", "--format", fmt, "--threads", "1"])[0] == 0
    assert len(built) == builds
