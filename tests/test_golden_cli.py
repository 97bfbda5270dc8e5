"""Golden CLI matrix: fixed argv cases whose outputs must stay byte-identical.

Each line of ``golden/cli_matrix.txt`` is ``sha256 exit argv``, where the
digest covers the exit code, stdout, stderr and the bytes of any ``--out``
file the case wrote. Raw outputs run to megabytes, so only digests are kept.

New cases go at the end of ``_cases`` and their digests are appended with

    PYTHONPATH=src python tests/test_golden_cli.py --append

which renders every case, writes only the lines past the fixture's end, and
exits non-zero without writing anything if an existing line's digest changed
or the case list before it did. Regenerate the whole fixture only for an
intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import hashlib
import io
import resource
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from sumdiff.cli import main  # noqa: E402

FIXTURE = ROOT / "tests" / "golden" / "cli_matrix.txt"
# The matrix runs under this address-space cap, so a case whose tables outgrow
# it (the integer literals below reach moduli in the millions) raises
# MemoryError instead of exhausting the machine.
ADDRESS_SPACE_CAP = 2 << 30

# {tmp} is the case directory; --out files go to {tmp}/out and are digested.
CONFIGS = {
    "caps.cfg": "# caps\nminimizer_cap=2\n",
    "wide.cfg": "minimizer_cap=20\ngroup_cap=12\nwidth_cap=10\nthreads=1\n",
    "outdir.cfg": "out_dir={tmp}/out\nthreads=1\n",
    "bad.cfg": "nonsense_key=1\n",
    "noeq.cfg": "threads\n",
}

GROUP_SETS = ["0,1,3@Z8", "1,4@Z6", "0@Z1", "0,1,2@Z2xZ3", "0,5,7@Z2xZ4", "3,1,2@Z10", "0,1@Z5"]
INT_SETS = ["0,2,3,4,7,11,12,14@Z", "0,1@Z", "5@Z", "-3,0,4@Z", "1,2,3,4@Z"]
CLAIMS = ["fact1", "ineq1", "thm1", "thm2", "thm3", "thm5"]
MODES = ["none", "translation", "translation+negation", "full-affine"]


def _cases() -> list:
    cases = []
    for lit in GROUP_SETS + INT_SETS:
        for fmt in ("human", "json"):
            cases.append(["constants", lit, "--format", fmt])
    for claim in CLAIMS:
        for lit in ["0,1,3@Z8", "1,4@Z6", "0,1@Z5", "0,1,4@Z2xZ4", "0,2,3,14@Z", "3@Z"]:
            for fmt in ("human", "json"):
                cases.append(["check", claim, lit, "--format", fmt])
        for fmt in ("human", "json"):
            cases.append(["check", claim, "--sweep", "Z6", "--format", fmt])
        cases.append(["check", claim, "--sweep", "Z2xZ3", "--format", "json"])
        cases.append(["check", claim, "--sweep", "Z9", "--sample", "40", "--seed", "3"])
    cases += [
        ["check", "thm5", "0,1@Z8", "--n", "3"],
        ["check", "thm5", "0,1,3@Z8", "--n", "1", "--format", "json"],
        ["check", "thm5", "0,1,4,9@Z", "--n", "3", "--format", "json"],
        ["check", "thm3", "0,1,2@Z8", "--minimizer-cap", "20"],
        ["check", "fact1", "--sweep", "Z16", "--sample", "25", "--seed", "7", "--format", "json"],
        ["check", "ineq1", "--sweep", "Z8", "--group-cap", "8"],
        ["check", "thm3", "--sweep", "Z7", "--n", "3", "--format", "json"],
    ]
    for lit in GROUP_SETS + INT_SETS:
        for fmt in ("human", "json"):
            cases.append(["witness", "ruzsa", lit, "--format", fmt])
    for lit in ["0,3@Z6", "0,1@Z5", "0,1,3@Z8", "0,5,7@Z2xZ4", "0,1@Z", "0,2,3,7@Z"]:
        for fmt in ("human", "json"):
            cases.append(["witness", "petridis", lit, "--format", fmt])
            cases.append(["witness", "petridis", lit, "--order", "desc", "--format", fmt])
    cases += [
        ["witness", "petridis", "0,3@Z6", "--C", "0,1"],
        ["witness", "petridis", "0,3@Z6", "--C", "0,1", "--order", "desc", "--format", "json"],
        ["witness", "petridis", "0,1@Z5", "--base", "0,4", "--format", "json"],
        ["witness", "petridis", "0,1@Z5", "--C", "0,1", "--base", "0,2,4"],
        ["witness", "petridis", "0,2,3,7@Z", "--C", "2,3", "--format", "json"],
        ["witness", "petridis", "0,2,3,7@Z", "--C", "0,7", "--base", "0,1"],
        ["witness", "petridis", "0,1,3@Z8", "--minimizer-cap", "3", "--format", "json"],
    ]
    for universe in (["--group", "Z8"], ["--group", "Z2xZ4"], ["--ints", "0..9"]):
        for mode in MODES:
            for fmt in ("human", "json", "csv"):
                cases.append(["scan", *universe, "--mode", mode, "--format", fmt, "--threads", "1"])
    cases += [
        ["scan", "--group", "Z1", "--format", "json", "--threads", "1"],
        ["scan", "--group", "Z10", "--all", "--threads", "1"],
        ["scan", "--group", "Z6"],
        ["scan", "--group", "Z9", "--min-size", "2", "--max-size", "4", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z9", "--min-size", "3", "--format", "json", "--threads", "1"],
        ["scan", "--group", "Z8", "--range", "1:128", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z8", "--range", "128:256", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z8", "--range", "0:1000", "--threads", "1"],
        ["scan", "--group", "Z10", "--exponents", "--threads", "1"],
        ["scan", "--group", "Z10", "--exponents", "--format", "json", "--threads", "1"],
        ["scan", "--group", "Z4", "--max-size", "1", "--exponents", "--format", "json", "--threads", "1"],
        ["scan", "--group", "Z4", "--max-size", "1", "--exponents", "--threads", "1"],
        ["scan", "--group", "Z8", "--mstd", "--exponents", "--format", "json", "--threads", "1"],
        ["scan", "--ints", "0..14", "--min-size", "8", "--max-size", "8", "--mstd", "--exponents", "--threads", "1"],
        ["scan", "--ints", "0..14", "--min-size", "8", "--max-size", "8", "--mstd", "--format", "json", "--threads", "2"],
        ["scan", "--ints", "0..14", "--min-size", "7", "--max-size", "8", "--format", "csv", "--threads", "2"],
        ["scan", "--ints", "-3..4", "--mode", "translation", "--exponents", "--threads", "1"],
        ["scan", "--group", "Z15", "--max-size", "3", "--format", "csv", "--threads", "2"],
        ["scan", "--group", "Z15", "--max-size", "3", "--exponents", "--threads", "2"],
        ["scan", "--group", "Z2xZ8", "--max-size", "2", "--format", "json", "--threads", "2"],
        ["scan", "--group", "Z8", "--format", "csv", "--out", "{tmp}/out/scan.csv", "--threads", "1"],
        ["scan", "--group", "Z8", "--format", "json", "--out", "{tmp}/out/scan.json", "--threads", "1"],
        ["scan", "--ints", "0..7", "--out", "{tmp}/out/scan.txt", "--threads", "1"],
        ["--config", "{tmp}/outdir.cfg", "scan", "--group", "Z6", "--format", "csv", "--out", "res.csv"],
        ["--config", "{tmp}/wide.cfg", "scan", "--ints", "0..9", "--format", "json"],
        ["--config", "{tmp}/wide.cfg", "scan", "--group", "Z13"],
        ["--config", "{tmp}/wide.cfg", "scan", "--group", "Z13", "--group-cap", "13", "--max-size", "2"],
        ["--config", "{tmp}/wide.cfg", "scan", "--ints", "0..10"],
    ]
    for universe in (["--ints", "0..14", "--max-size", "8"], ["--group", "Z8"], ["--group", "Z2xZ4"]):
        for fmt in ("human", "json", "csv"):
            cases.append(["mstd", *universe, "--format", fmt, "--threads", "1"])
    cases += [
        ["mstd", "--ints", "0..14", "--max-size", "8", "--threads", "2"],
        ["mstd", "--group", "Z7", "--threads", "1"],
        ["mstd", "--ints", "0..9", "--mode", "none", "--format", "json", "--threads", "1"],
        ["mstd", "--group", "Z2xZ4", "--format", "csv", "--out", "{tmp}/out/m.csv", "--threads", "1"],
        ["--config", "{tmp}/outdir.cfg", "mstd", "--ints", "0..9", "--format", "json", "--out", "m.json"],
        ["--config", "{tmp}/caps.cfg", "check", "thm3", "0,1,2@Z8"],
        ["--config", "{tmp}/caps.cfg", "check", "thm3", "0,1,2@Z8", "--minimizer-cap", "20"],
        ["--config", "{tmp}/caps.cfg", "witness", "petridis", "0,1,2@Z8"],
        ["--config", "{tmp}/wide.cfg", "check", "fact1", "--sweep", "Z13"],
        ["--config", "{tmp}/bad.cfg", "constants", "0@Z5"],
        ["--config", "{tmp}/noeq.cfg", "constants", "0@Z5"],
        # parse errors: exit 1
        ["constants", "0,1,3@"],
        ["constants", "0,1,3"],
        ["constants", "@Z8"],
        ["constants", "0,x@Z8"],
        ["constants", "9@Z8"],
        ["constants", "0@Q8"],
        ["constants", "0@Z0"],
        ["constants", "0@Z2xW3"],
        ["check", "thm3"],
        ["check", "fact1", "--sweep", "Z2xY"],
        ["witness", "petridis", "0,1@Z", "--C", "5,6"],
        ["witness", "petridis", "0,1@Z5", "--C", "0,a"],
        ["witness", "petridis", "0,1@Z5", "--base", "0,7"],
        ["check", "thm5", "0,1@Z8", "--n", "0"],
        ["scan", "--threads", "1"],
        ["scan", "--ints", "5..2", "--threads", "1"],
        ["scan", "--ints", "0-9", "--threads", "1"],
        ["scan", "--group", "Z8", "--range", "1-9", "--threads", "1"],
        ["mstd", "--threads", "1"],
        ["mstd", "--ints", "x..3", "--threads", "1"],
        # caps exceeded: exit 2
        ["check", "thm3", "--sweep", "Z26"],
        ["check", "fact1", "--sweep", "Z8", "--group-cap", "6"],
        ["check", "thm3", "0,1,2,3@Z8", "--minimizer-cap", "3"],
        ["witness", "petridis", "0,1,2,3@Z8", "--minimizer-cap", "3"],
        ["scan", "--group", "Z30", "--threads", "1"],
        ["scan", "--group", "Z12", "--group-cap", "10", "--threads", "1"],
        ["scan", "--ints", "0..20", "--threads", "1"],
        ["scan", "--ints", "0..9", "--width-cap", "8", "--threads", "1"],
        ["mstd", "--group", "Z25", "--threads", "1"],
        ["mstd", "--ints", "0..16", "--threads", "1"],
    ]
    # Injections with |A| >= 12 on a cyclic and a product group of order 64.
    for lit in ["0,1,3,7,12,20,30,33,41,50,55,62@Z64", "0,3,5,8,13,21,26,34,40,47,55,61,63@Z2xZ32"]:
        for fmt in ("human", "json"):
            cases.append(["witness", "ruzsa", lit, "--format", fmt])
        cases.append(["check", "thm2", lit, "--format", "json"])
        cases.append(["check", "thm3", lit, "--format", "json"])
    # The exponent report stays out of csv.
    cases.append(["scan", "--group", "Z10", "--exponents", "--format", "csv", "--threads", "1"])
    # Exhaustive sweeps of order-12 groups, one verdict per orbit of x -> f(x) + t, f in Aut(G).
    for claim in CLAIMS:
        cases.append(["check", claim, "--sweep", "Z12", "--format", "json"])
    cases.append(["check", "thm5", "--sweep", "Z2xZ6", "--n", "3", "--format", "json"])
    # CSV with negative elements, bare negative singletons, and a filtered product-group scan.
    cases += [
        ["scan", "--ints=-4..5", "--format", "csv", "--threads", "1"],
        ["scan", "--ints=-6..6", "--mode", "none", "--max-size", "3", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z3xZ6", "--mstd", "--format", "csv", "--threads", "1"],
    ]
    # mstd with records from a product group, and a thm2 sweep of a product group.
    cases += [
        ["mstd", "--group", "Z3xZ6", "--format", "human", "--threads", "1"],
        ["mstd", "--group", "Z3xZ6", "--format", "json", "--threads", "1"],
        ["check", "thm2", "--sweep", "Z2xZ6", "--format", "json"],
    ]
    # Negative literals and windows passed after "--" or with "=": the bytes the
    # plain spellings above must print.
    for fmt in ("human", "json"):
        cases.append(["constants", "--format", fmt, "--", "-3,0,4@Z"])
    for fmt in ("human", "json"):
        cases.append(["witness", "ruzsa", "--format", fmt, "--", "-3,0,4@Z"])
    cases.append(["scan", "--ints=-3..4", "--mode", "translation", "--exponents", "--threads", "1"])
    # Exhaustive minimizer sweeps of a group above the minimizer cap: exit 2.
    cases += [["check", "thm3", "--sweep", "Z21"], ["check", "thm5", "--sweep", "Z21"]]
    # mstd order: two surplus-2 sets print before the 134 surplus-1 sets.
    cases.append(["mstd", "--group", "Z20", "--format", "human", "--threads", "1"])
    # Input the command does not read, and --n out of range on a claim that ignores it: exit 1.
    cases += [
        ["check", "thm1", "0,1@Z5", "--sweep", "Z6"],
        ["check", "fact1", "0,1@Z5", "--seed", "3"],
        ["witness", "ruzsa", "0,1,3@Z8", "--order", "asc"],
        ["check", "fact1", "0,1@Z5", "--n", "0"],
    ]
    # Integer literals whose embedding modulus runs to the millions, and a long product factor.
    for lit, fmts in (("0,1,20000@Z", ("human", "json")), ("0,1,1000000@Z", ("json",))):
        for argv in (["constants"], ["check", "thm3"], ["witness", "ruzsa"]):
            cases += [[*argv, lit, "--format", fmt] for fmt in fmts]
    cases.append(["constants", "0,1,3@Z2xZ2000", "--format", "json"])
    # Exhaustive sweeps of product groups with more automorphisms than unit scalars.
    for group in ("Z2xZ8", "Z4xZ4", "Z2xZ2xZ2xZ2"):
        cases += [["check", claim, "--sweep", group, "--format", "json"] for claim in ("fact1", "thm2", "thm3")]
    cases.append(["check", "ineq1", "--sweep", "Z3xZ3", "--format", "json"])
    # A --range that starts past the last mask: exit 1.
    cases += [["scan", "--group", "Z6", "--range", "99999:199999"], ["scan", "--ints", "0..5", "--range", "64:100"]]
    # Cyclic full-affine orbits whose unit stabilisers differ: a prime order, an odd and a 2-power order.
    cases += [
        ["check", "fact1", "--sweep", "Z13", "--format", "json"],
        ["check", "thm2", "--sweep", "Z15", "--format", "json"],
        ["check", "thm3", "--sweep", "Z16", "--format", "json"],
        ["scan", "--group", "Z15", "--mode", "full-affine", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z12", "--mode", "full-affine", "--range", "300:2900", "--format", "csv", "--threads", "1"],
    ]
    # Product-group scans of 2^20 masks with two workers. They were walks split across a process pool
    # when pinned; translation orbits now come from the block-necklace generator, in one part.
    cases += [
        ["scan", "--group", "Z2xZ10", "--max-size", "4", "--format", "csv", "--threads", "2"],
        ["scan", "--group", "Z4xZ5", "--mode", "translation", "--min-size", "3", "--max-size", "5", "--format", "json",
         "--threads", "2"],
    ]
    # Long injection tables (runs of same-key int dicts): the README's 85 KB case, a product
    # group and an integer literal with "modulus"; petridis steps hold lists among their ints.
    for lit in (
        "0,4,8,14,16,23,30,34,35,37,38,40,56,57,58,62,63@Z64",
        "0,1,5,9,14,18,23,30,37,41,46@Z4xZ12",
        "0,2,3,7,11,12,19,25,31,40@Z",
    ):
        cases.append(["witness", "ruzsa", lit, "--format", "json"])
    cases.append(["witness", "petridis", "0,1,3,7,12,20,30,33,41,50@Z64", "--format", "json"])
    # A --min-size above the universe's width: exit 1.
    cases += [["scan", "--group", "Z6", "--min-size", "9"], ["scan", "--ints", "0..5", "--min-size", "7"]]
    # A --seed on an exhaustive sweep, which draws nothing: exit 1.
    cases.append(["check", "thm1", "--sweep", "Z9", "--seed", "3"])
    # A sample covering every subset sweeps exhaustively: the group cap holds (exit 2), a seed is refused (exit 1).
    cases += [
        ["check", "fact1", "--sweep", "Z8", "--group-cap", "6", "--sample", "255"],
        ["check", "thm1", "--sweep", "Z4", "--sample", "100", "--seed", "2"],
        ["check", "fact1", "--sweep", "Z2xZ32", "--sample", "18446744073709551615"],
    ]
    # ineq1 and thm1 on products with more automorphisms than unit scalars, and thm1 on a
    # cyclic bracelet source above Z12.
    cases += [
        ["check", "ineq1", "--sweep", "Z4xZ4", "--format", "json"],
        ["check", "thm1", "--sweep", "Z2xZ2xZ2xZ2", "--format", "json"],
        ["check", "thm1", "--sweep", "Z16", "--format", "json"],
    ]
    # Product translation classes: a 3-bit and a 12-bit block, factors of size 1, a size
    # window cut by a mask range, and a two-worker scan that splits its walk at 2^20 masks.
    cases += [
        ["scan", "--group", "Z3xZ6", "--mode", "translation", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z12xZ2", "--mode", "translation+negation", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z4xZ1", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z1xZ4", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z2xZ2xZ4", "--min-size", "3", "--max-size", "6", "--range", "100:40000", "--format", "csv",
         "--threads", "1"],
        ["scan", "--group", "Z2xZ10", "--max-size", "3", "--format", "csv", "--threads", "2"],
    ]
    # A full-affine product walk of 2^20 masks, which two workers still split across a process pool.
    cases.append(["scan", "--group", "Z2xZ10", "--mode", "full-affine", "--max-size", "4", "--format", "csv",
                  "--threads", "2"])
    # Integer windows cut by a mask range, which the representative source cuts per top bit.
    for mode in MODES[:3]:
        cases.append(["scan", "--ints", "0..11", "--mode", mode, "--range", "1000:3001", "--format", "csv",
                      "--threads", "1"])
    cases.append(["scan", "--ints=-2..10", "--min-size", "3", "--max-size", "6", "--range", "517:6000", "--format",
                  "csv", "--threads", "1"])
    # Full-affine scans of products whose only units are +-1 (exponent 4, 6 and 6), json with orbit sizes.
    cases += [
        ["scan", "--group", "Z4xZ4", "--mode", "full-affine", "--format", "csv", "--threads", "1"],
        ["scan", "--group", "Z2xZ2xZ3", "--mode", "full-affine", "--format", "json", "--threads", "1"],
        ["scan", "--group", "Z3xZ6", "--mode", "full-affine", "--max-size", "5", "--format", "csv", "--threads", "2"],
    ]
    # Exhaustive sweeps of products whose translation+negation classes split their Aut orbits
    # most (fact1 on Z2xZ8 is pinned above), a cyclic fact1 sweep, and thm2 and thm3 on products
    # of order 12 with a factor 3.
    cases += [
        ["check", "ineq1", "--sweep", "Z2xZ2xZ4", "--format", "json"],
        ["check", "thm1", "--sweep", "Z4xZ4", "--format", "json"],
        ["check", "fact1", "--sweep", "Z16", "--format", "json"],
        ["check", "thm2", "--sweep", "Z2xZ2xZ3", "--format", "json"],
        ["check", "thm3", "--sweep", "Z3xZ4", "--format", "json"],
    ]
    # Minimizer sweeps of products with more automorphisms than unit scalars, and 13-element
    # minimizer bases, whose subset search splits into a low and a high part.
    cases += [
        ["check", "thm5", "--sweep", "Z2xZ2xZ4", "--format", "json"],
        ["check", "thm3", "--sweep", "Z3xZ6", "--format", "json"],
        ["witness", "petridis", "0,1,3,7,12,20,30,31,40,45,50,55,61@Z64", "--format", "json"],
        ["check", "thm3", "0,1,3,7,12,20,30,31,40,45,50,55,61@Z2xZ32", "--format", "json"],
    ]
    # Sampled size sweeps of groups far above the group cap, a cyclic one and a product.
    for claim in CLAIMS[:3]:
        cases += [
            ["check", claim, "--sweep", "Z64", "--sample", "3000", "--seed", "5"],
            ["check", claim, "--sweep", "Z2xZ32", "--sample", "3000", "--seed", "5", "--format", "json"],
        ]
    # thm2's image count on groups of order 64 to 81: single sets of order 65 and 66 (one set
    # a coset), integer literals embedded in Z63 and Z81, and sampled sweeps of order-64 groups.
    cases += [
        ["check", "thm2", "0,1,3,7,12,20,30,33,41,50,55,62,64@Z65", "--format", "json"],
        ["check", "thm2", "1,14,27,40,53@Z65", "--format", "json"],
        ["check", "thm2", "0,3,5,8,13,21,26,34,40,47,55,61,65@Z2xZ33", "--format", "json"],
        ["check", "thm2", "0,1,4,9,15,22,31@Z", "--format", "json"],
        ["check", "thm2", "0,2,3,7,11,12,19,25,31,40@Z", "--format", "json"],
        ["check", "thm2", "--sweep", "Z64", "--sample", "3000", "--seed", "5", "--format", "json"],
        ["check", "thm2", "--sweep", "Z2xZ32", "--sample", "3000", "--seed", "5", "--format", "json"],
    ]
    return cases


def _run_case(argv: list, tmp: Path) -> tuple[int, str]:
    out_dir = tmp / "out"
    out_dir.mkdir(exist_ok=True)
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\n--stderr--\n{err.getvalue()}"
    for path in sorted(out_dir.iterdir()):
        blob += f"\n--out {path.name}--\n" + path.read_text(encoding="utf-8")
        path.unlink()
    return code, hashlib.sha256(blob.encode("utf-8")).hexdigest()


def render_matrix(tmp: Path) -> list:
    """One fixture line per case: digest, exit code, argv."""
    for name, text in CONFIGS.items():
        (tmp / name).write_text(text.replace("{tmp}", str(tmp)), encoding="utf-8")
    lines = []
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if soft == resource.RLIM_INFINITY else min(soft, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        for argv in _cases():
            code, digest = _run_case(argv, tmp)
            lines.append(f"{digest} {code} {shlex.join(argv)}")
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return lines


def test_golden_cli_matrix(tmp_path):
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    actual = render_matrix(tmp_path)
    assert len(actual) == len(expected), "case list changed; regenerate the fixture"
    changed = [a.split(" ", 2)[2] for a, e in zip(actual, expected) if a != e]
    assert not changed, "output changed for: " + "; ".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--append"]):
        sys.exit("usage: python tests/test_golden_cli.py --write | --append")
    with tempfile.TemporaryDirectory() as tmp:
        lines = render_matrix(Path(tmp))
    if sys.argv[1] == "--write":
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} cases to {FIXTURE.relative_to(ROOT)}")
    else:
        kept = FIXTURE.read_text(encoding="utf-8").splitlines()
        changed = [e.split(" ", 2)[2] for a, e in zip(lines, kept) if a != e]
        if changed or len(lines) < len(kept):
            sys.exit("existing lines changed, nothing written: " + "; ".join(changed or ["cases removed"]))
        with FIXTURE.open("a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines[len(kept) :])
        print(f"appended {len(lines) - len(kept)} cases to {FIXTURE.relative_to(ROOT)}")
