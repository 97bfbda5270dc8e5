"""Output checkers and independent expectations for the benchmark workloads.

Every checker is a pure function that takes one operation's output and the
expected facts, and returns a list of problems; an empty list means the
output is correct. The expectations come from the project's brute-force
oracles (``tests/oracles.py``) and from Burnside counts computed here with
plain permutation arithmetic, never from the code under test.
"""

from __future__ import annotations

import importlib.util
import json
from math import gcd, lcm, prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_oracles():
    """Import ``tests/oracles.py`` by path, without making ``tests`` a package."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("sumdiff_oracles", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(f"oracle module not found at {path}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# -- Burnside counts -----------------------------------------------------------


def _cycles(perm) -> int:
    seen = bytearray(len(perm))
    count = 0
    for start in range(len(perm)):
        if not seen[start]:
            count += 1
            i = start
            while not seen[i]:
                seen[i] = 1
                i = perm[i]
    return count


def _orbit_count(perms) -> int:
    """Non-empty orbits of subsets under a permutation group (Burnside)."""
    group = set(perms)
    total = sum(1 << _cycles(p) for p in group)
    if total % len(group):
        raise ValueError("the permutations do not form a group")
    return total // len(group) - 1  # minus the empty set's orbit


def group_orbit_count(oracles, moduli: tuple, mode: str) -> int:
    """Representatives a scan of the whole group must emit in ``mode``."""
    n = prod(moduli)
    pts = range(n)
    identity = tuple(pts)
    if mode == "none":
        return _orbit_count([identity])
    linear = [identity]
    if mode == "translation+negation":
        linear.append(tuple(oracles.neg_idx(moduli, x) for x in pts))
    elif mode == "full-affine":
        e = lcm(*moduli)
        for u in range(1, max(e, 2)):
            if gcd(u, e) == 1:
                linear.append(
                    tuple(
                        oracles.encode(moduli, tuple(d * u for d in oracles.decode(moduli, x)))
                        for x in pts
                    )
                )
    elif mode != "translation":
        raise ValueError(f"unknown mode {mode!r}")
    return _orbit_count(
        tuple(oracles.add_idx(moduli, lin[x], t) for x in pts) for lin in linear for t in pts
    )


def int_window_orbit_count(width: int, mode: str) -> int:
    """Representatives of an integer-window scan: sets of span s are the
    translates of subsets of [0, s] holding both ends; negation acts on them
    as the reflection i -> s - i."""
    if mode == "none":
        return (1 << width) - 1
    count = 0
    for s in range(width):
        ends_fixed = [0, s] if s else [0]
        interior = [i for i in range(s + 1) if i not in ends_fixed]
        ident = tuple(range(len(interior)))
        perms = [ident]
        if mode == "translation+negation":
            pos = {v: k for k, v in enumerate(interior)}
            perms.append(tuple(pos[s - v] for v in interior))
        count += _orbit_count(perms) + 1  # the empty interior is a real set here
    return count


# -- checkers ------------------------------------------------------------------


def check_scan(records, summary, csv_bytes: bytes, *, universe: int, reps: int, reference_csv) -> list:
    """One scan campaign: orbit-weighted universe, Burnside rep count, CSV."""
    problems = []
    weighted = sum(r.orbit_size for r in records)
    if weighted != universe or summary.universe != universe:
        problems.append(f"orbit-weighted universe {weighted}/{summary.universe} != {universe}")
    if len(records) != reps or summary.representatives != reps:
        problems.append(f"representatives {len(records)}/{summary.representatives} != {reps}")
    lines = csv_bytes.count(b"\n")
    if lines != reps + 2:  # header comment, column names, one row per rep
        problems.append(f"csv has {lines} lines, expected {reps + 2}")
    if reference_csv is not None and csv_bytes != reference_csv:
        problems.append("csv bytes differ from the first repeat")
    return problems


def check_sweep(summary, *, total: int, cosets: int) -> list:
    """One claim sweep: no violations, equality exactly on the cosets."""
    problems = []
    if summary.total != total:
        problems.append(f"swept {summary.total} sets, expected {total}")
    if summary.counts.get("violated", 0):
        problems.append(f"{summary.counts['violated']} violated verdicts")
    if summary.counts.get("equality-case", 0) != cosets:
        problems.append(
            f"{summary.counts.get('equality-case', 0)} equality cases, expected {cosets} cosets"
        )
    return problems


def check_query(request, code: int, stdout: str, expected: dict) -> list:
    """One single-set CLI request against the oracle sizes in ``expected``."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    kind = request.kind
    if kind in ("constants", "thm3", "thm5"):
        for key, want in expected.items():
            got = out.get("sizes", {}).get(key)
            if got != want:
                problems.append(f"size {key} = {got}, oracle says {want}")
    if kind in ("thm3", "thm5") and out.get("outcome") not in ("holds", "equality-case"):
        problems.append(f"outcome {out.get('outcome')!r}")
    if kind == "ruzsa":
        if out.get("injective") is not True:
            problems.append("injection is not injective")
        if len(out.get("witness_map", ())) != expected["AmA"]:
            problems.append(f"{len(out.get('witness_map', ()))} witnesses, oracle |A-A| = {expected['AmA']}")
    if kind == "petridis":
        if (out.get("certificate") is not None) != bool(out.get("equality")):
            problems.append("certificate present does not match equality")
    return problems


def check_cli_output(code: int, output: bytes, reference: bytes) -> list:
    """One CLI subprocess: clean exit and bytes identical to the reference."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if output != reference:
        problems.append(f"output ({len(output)} bytes) differs from the reference ({len(reference)} bytes)")
    return problems
