"""Command-line front end: constants | check | witness | scan | mstd.

Set literals look like "0,1,3@Z8" (element indices in a named group) or
"0,2,3,14@Z" (integer mode: the set is embedded into a cyclic group large
enough that the requested operation sees no wraparound; the chosen modulus is
echoed in the output). Group literals: "Z12", "Z2xZ3xZ5", case-insensitive.

Exit codes: 0 all holds, 1 usage/parse error, 2 cap exceeded, 3 violation
found. Machine formats (json, csv) are byte-stable for identical invocations;
human output shows exact fractions, with decimal renderings marked by "≈".
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import itemgetter

from ._version import VERSION
from .errors import CapExceededError, ParseError, SumdiffError
from .explorer import MODES, Campaign, exponent_report, find_mstd, scan, write_csv
from .groups import GroupSpec
from .petridis import MINIMIZER_CAP, extract_certificate, find_minimizer, replay_trace
from .ruzsa import build_injection, check_surjective, verify_injective
from .sets import GSet, embed_integer_set, sumset
from .theorems import CLAIM_IDS, DEFAULT_N, VIOLATED, check_fact1, claim_arity, run_claim, sweep_claim

__all__ = ["main", "console", "parse_group_literal", "parse_set_literal", "ParsedSet"]


# -- literal grammar -----------------------------------------------------------


def parse_group_literal(text: str, full_text: str | None = None, offset: int = 0) -> GroupSpec:
    full = full_text if full_text is not None else text
    if not text:
        raise ParseError("empty group literal", full, offset)
    moduli = []
    pos = offset
    for part in re.split(r"[xX]", text):
        m = re.fullmatch(r"[Zz]([0-9]+)", part)
        if m is None:
            raise ParseError(f"expected a cyclic factor like 'Z6', got {part!r}", full, pos)
        n = int(m.group(1))
        if n < 1:
            raise ParseError("moduli must be >= 1", full, pos)
        moduli.append(n)
        pos += len(part) + 1
    return GroupSpec(tuple(moduli))


@dataclass
class ParsedSet:
    kind: str  # "group" | "ints"
    values: tuple[int, ...]
    group: GroupSpec | None

    def gset(self) -> GSet:
        if self.kind != "group":
            raise ValueError("integer-mode literal has no direct GSet")
        return GSet(self.group, self.values)


def parse_set_literal(text: str) -> ParsedSet:
    at = text.find("@")
    if at < 0:
        raise ParseError("missing '@group' suffix", text, len(text))
    head, tail = text[:at], text[at + 1 :]
    if not head:
        raise ParseError("empty element list", text, 0)
    tokens = _int_tokens(head, text)
    if tail in ("Z", "z"):
        return ParsedSet("ints", tuple(v for v, _ in tokens), None)
    g = parse_group_literal(tail, text, at + 1)
    for v, p in tokens:
        if not 0 <= v < g.order:
            raise ParseError(f"element {v} out of range for {g.label()}", text, p)
    return ParsedSet("group", tuple(v for v, _ in tokens), g)


def _int_tokens(head: str, text: str) -> list:
    """(value, position) for each comma-separated integer in ``head``, the
    start of ``text``; a malformed or repeated element is a ParseError."""
    tokens = []
    seen = set()
    pos = 0
    for tok in head.split(","):
        if re.fullmatch(r"-?[0-9]+", tok.strip()) is None:
            raise ParseError(f"expected an integer, got {tok!r}", text, pos)
        value = int(tok)
        if value in seen:
            raise ParseError(f"duplicate element {value}", text, pos)
        seen.add(value)
        tokens.append((value, pos))
        pos += len(tok) + 1
    return tokens


def _integer(text: str, key: str | None = None) -> int:
    """A numeric flag's value, or config ``key``'s, in the literal grammar's -?[0-9]+:
    int() alone would also read '١', '1_0', '+3' and padded digits."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        message = f"expected an integer, got {text!r}"  # argparse prefixes "argument --flag: "
        raise ParseError(f"config key {key!r}: {message}") if key else argparse.ArgumentTypeError(message)
    return int(text)


def _parse_int_list(text: str) -> tuple:
    return tuple(v for v, _ in _int_tokens(text, text))


def _ratio(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _approx(f: Fraction) -> str:
    return f"≈ {f.numerator / f.denominator:.6g}"


# -- config ---------------------------------------------------------------------

_CONFIG_KEYS = {"minimizer_cap", "group_cap", "width_cap", "threads", "out_dir"}


def load_config(path: str) -> dict:
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"config line {lineno}: expected key=value", line, 0)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError(f"config line {lineno}: unknown key {key!r}", line, 0)
            if key in config:
                raise ParseError(f"config line {lineno}: duplicate key {key!r}", line, 0)
            config[key] = value.strip()
    return config


def _setting(args, config: dict, key: str, default: int | None) -> int | None:
    """A numeric setting of at least 1: the flag if given, else the config
    file, else default. A value below 1 is named as it was given."""
    value, name = getattr(args, key), "--" + key.replace("_", "-")
    if value is None:
        if key not in config:
            return default
        value, name = _integer(config[key], key), f"config key {key!r}"
    if value < 1:
        raise ParseError(f"{name} must be >= 1, got {value}")
    return value


def _unread(args, keys: tuple, reason: str) -> None:
    """Reject the first flag of ``keys`` that was given: the command does not read it."""
    for key in keys:
        if getattr(args, key) is not None:
            raise ParseError(f"--{key.replace('_', '-')} {reason}")


# -- output helpers --------------------------------------------------------------


# json.dumps's spelling of each scalar by exact type, looked up inline by _json's containers
_SCALARS = {
    int: int.__repr__,
    str: _quote,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    float: lambda x: repr(x) if isfinite(x) else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity",
}


def _json(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, over dicts with str
    keys, lists, tuples and the scalar types of _SCALARS; anything else is a TypeError."""
    enc = _SCALARS.get(type(obj))
    if enc is not None:
        return enc(obj)
    inner = nl + "  "
    if type(obj) is dict:
        parts = []
        for key in sorted(obj):  # _quote raises the TypeError for a key that is not a str
            enc = _SCALARS.get(type(value := obj[key]))
            parts.append(_quote(key) + ": " + (enc(value) if enc else _json(value, inner)))
        return "{" + inner + ("," + inner).join(parts) + nl + "}" if parts else "{}"
    if type(obj) is list or type(obj) is tuple:
        # A run of dicts with one key set and exact-int values (the injection tables) fills one
        # row template per member with a single %; a key that is not a str is a TypeError here too.
        first = obj[0] if len(obj) > 1 else None
        if (
            type(first) is dict and len(first) > 1 and set(map(type, first.values())) == {int}
            and set(map(type, obj)) == {dict} and set(map(len, obj)) == {len(first)}
        ):
            keys = sorted(first)
            try:  # the members are as long as the first, so a KeyError is the only key mismatch left
                flat = tuple(chain.from_iterable(map(itemgetter(*keys), obj)))
            except KeyError:
                flat = ()
            if set(map(type, flat)) == {int}:
                deeper = inner + "  "
                row = "{" + deeper + ("," + deeper).join(_quote(k).replace("%", "%%") + ": %d" for k in keys)
                return "[" + inner + ("," + inner).join([row + inner + "}"] * len(obj)) % flat + nl + "]"
        parts = [enc(v) if (enc := _SCALARS.get(type(v))) else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(parts) + nl + "]" if parts else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(
    args, config: dict, payload, lines, modulus: int | None = None, echo="modulus  Z{} (embedding)", csv=None
) -> None:
    """Write a command's output per --format: ``payload()`` as JSON, ``lines()``
    as text, or ``csv(fh)`` as CSV. Only the chosen one is called.

    An integer-mode literal's embedding modulus is added as the JSON key
    "modulus" and, formatted into ``echo``, as the second line of text.

    Output goes to stdout, or to --out (relative to out_dir if set). A file is
    written to a temporary name beside the target and renamed over it only
    once complete, so a failure or interrupt leaves any existing file intact
    and no partial output behind.
    """
    if args.format == "csv":
        render = csv
    elif args.format == "json":
        out = payload()
        if modulus is not None:
            out["modulus"] = modulus
        render = lambda fh: fh.write(_json(out) + "\n")
    else:
        text = lines()
        if modulus is not None:
            text.insert(1, echo.format(modulus))
        render = lambda fh: fh.writelines(line + "\n" for line in text)
    path = getattr(args, "out", None)
    if path is None:
        render(sys.stdout)
        return
    out_dir = config.get("out_dir")
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            render(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# -- embedding for integer-mode literals ------------------------------------------


def _embed_for(parsed: ParsedSet, arity: tuple[int, int]) -> tuple[GSet, int | None]:
    """Resolve a literal to a GSet; integer mode embeds with the given arity."""
    if parsed.kind == "group":
        return parsed.gset(), None
    g, A = embed_integer_set(parsed.values, *arity)
    return A, g.order


# -- subcommands -------------------------------------------------------------------


def _cmd_constants(args, config: dict) -> int:
    parsed = parse_set_literal(args.set)
    A, modulus = _embed_for(parsed, (1, 1))
    v = check_fact1(A)
    sig, dlt, coset = v.ratios["sigma"], v.ratios["delta"], v.details["coset"]
    _emit(
        args,
        config,
        lambda: {
            "set": args.set,
            "group": parsed.group.label() if parsed.group else "Z",
            "sizes": v.sizes,
            "sigma": [sig.numerator, sig.denominator],
            "delta": [dlt.numerator, dlt.denominator],
            "coset": coset,
        },
        lambda: [
            f"set      {args.set}",
            f"|A|      {A.card}",
            f"|A+A|    {v.sizes['AA']}",
            f"|A-A|    {v.sizes['AmA']}",
            f"sigma    {_ratio(sig)} {_approx(sig)}",
            f"delta    {_ratio(dlt)} {_approx(dlt)}",
            f"coset    {str(coset).lower()}",
        ],
        modulus,
        "modulus  Z{} (embedding, arity 1+1)",
    )
    return 0


def _verdict_lines(v) -> list:
    lines = [
        f"claim    {v.claim}",
        f"group    {v.group.label()}",
        f"set      {','.join(map(str, v.elements))}",
        f"outcome  {v.outcome}",
        "sizes    " + " ".join(f"{k}={val}" for k, val in v.sizes.items()),
        "ratios   " + " ".join(f"{k}={_ratio(val)}" for k, val in v.ratios.items()),
    ]
    links = v.details.get("links")
    if links:
        for i, link in enumerate(links, 1):
            lines.append(
                f"link{i}    {link['lhs']} {link['rel']} {link['rhs']}"
                f" ({'tight' if link['slack'] == 0 else 'slack ' + str(link['slack'])})"
            )
    return lines


def _cmd_check(args, config: dict) -> int:
    cap = _setting(args, config, "minimizer_cap", MINIMIZER_CAP)
    n = _setting(args, config, "n", DEFAULT_N)
    if args.sweep is not None:
        if args.set is not None:
            raise ParseError(f"--sweep takes no set literal, got {args.set!r}")
        g = parse_group_literal(args.sweep)
        summary = sweep_claim(
            args.claim,
            g,
            n=n,
            cap=cap,
            group_cap=_setting(args, config, "group_cap", Campaign.group_cap),
            sample=_setting(args, config, "sample", None),
            seed=args.seed,
        )
        _emit(
            args,
            config,
            summary.to_json_dict,
            lambda: [
                f"claim    {summary.claim}",
                f"group    {summary.group.label()}",
                f"total    {summary.total}",
            ]
            + [f"{outcome:<14} {count}" for outcome, count in summary.counts.items()]
            + [f"violating set: {lit}" for lit in summary.violations],
        )
        return 3 if summary.counts.get(VIOLATED) else 0
    _unread(args, ("sample", "seed", "group_cap"), "needs --sweep")
    if args.set is None:
        raise ParseError("check needs a set literal or --sweep GROUP", "", 0)
    parsed = parse_set_literal(args.set)
    A, modulus = _embed_for(parsed, claim_arity(args.claim, n))
    v = run_claim(args.claim, A, n=n, cap=cap)
    _emit(args, config, v.to_json_dict, lambda: _verdict_lines(v), modulus)
    return 3 if v.outcome == VIOLATED else 0


def _cmd_witness(args, config: dict) -> int:
    parsed = parse_set_literal(args.set)
    if args.kind == "ruzsa":
        _unread(args, ("C", "base", "order", "minimizer_cap"), "is not read by witness ruzsa")
        A, modulus = _embed_for(parsed, (1, 1))
        inj = build_injection(A)
        injective = verify_injective(inj)
        sum_card = sumset(A, A).card
        surjective = check_surjective(inj, sum_card)
        _emit(
            args,
            config,
            lambda: {
                "set": args.set,
                "injective": injective,
                "surjective": surjective,
                "witness_map": [
                    {"w": w, "u": u, "v": v} for w, (u, v) in sorted(inj.witness.pairs.items())
                ],
                "injection_map": [
                    {"a": a, "u": u, "out1": o1, "out2": o2}
                    for (a, u), (o1, o2) in sorted(inj.pairs.items())
                ],
            },
            lambda: [
                f"set        {args.set}",
                f"injective  {str(injective).lower()}",
                f"surjective {str(surjective).lower()}",
                f"domain     {len(inj.pairs)} pairs; codomain {sum_card}^2",
            ]
            + [f"  w={w}: u={u} v={v}" for w, (u, v) in sorted(inj.witness.pairs.items())],
            modulus,
            "modulus    Z{} (embedding)",
        )
        return 0
    # petridis
    cap = _setting(args, config, "minimizer_cap", MINIMIZER_CAP)
    A, modulus = _embed_for(parsed, (2, 1))
    C = A
    if args.C is not None:
        cpts = _parse_int_list(args.C)
        lo = 0
        if modulus is not None:  # integer mode: C lies in the set's range, shifted like A
            lo = min(parsed.values)
            if any(not lo <= c <= max(parsed.values) for c in cpts):
                raise ParseError("--C values must lie within the set's own range", args.C, 0)
        C = GSet(A.group, (c - lo for c in cpts))
    base = GSet(A.group, _parse_int_list(args.base)) if args.base is not None else A.negate()
    mn = find_minimizer(A, base, cap=cap)
    order = tuple(reversed(C.elements())) if args.order == "desc" else C.elements()
    tr = replay_trace(A, mn.x, C, order)
    cert = extract_certificate(tr)

    def payload() -> dict:
        return {
            "set": args.set,
            "X": list(mn.x),
            "K": [mn.k.numerator, mn.k.denominator],
            "strict_on_proper_subsets": mn.strict_on_proper_subsets,
            "order": list(tr.order),
            "steps": [
                {
                    "k": st.index,
                    "c_k": st.element,
                    "X_k": list(st.x_k),
                    "Y_k": list(st.y_k),
                    "lhs": st.lhs_size,
                    "rhs_num": (tr.k * st.xc_size).numerator,
                    "rhs_den": (tr.k * st.xc_size).denominator,
                    "equality_conditions": list(st.conditions),
                }
                for st in tr.steps
            ],
            "equality": tr.equality,
            "certificate": {"Q": list(cert.q)} if cert else None,
        }

    def lines() -> list:
        out = [
            f"set      {args.set}",
            f"X        {{{','.join(map(str, mn.x))}}}",
            f"K        {_ratio(mn.k)} {_approx(mn.k)}",
            f"C        {{{','.join(map(str, C))}}} processed {args.order or 'asc'}ending",
        ]
        for st in tr.steps:
            rhs = tr.k * st.xc_size
            out.append(
                f"step {st.index}: c={st.element} |X+A+C_k|={st.lhs_size}"
                f" K|X+C_k|={_ratio(rhs)}"
                f" X_k={{{','.join(map(str, st.x_k))}}}"
                f" Y_k={{{','.join(map(str, st.y_k))}}}"
                f" conditions={''.join('T' if c else 'F' for c in st.conditions)}"
            )
        out.append(f"equality {str(tr.equality).lower()}")
        if cert:
            out.append(f"Q        {{{','.join(map(str, cert.q))}}}")
        return out

    _emit(args, config, payload, lines, modulus)
    return 0


def _parse_pair(text: str, pattern: str, expected: str) -> tuple[int, int]:
    m = re.fullmatch(pattern, text.strip())
    if m is None:
        raise ParseError(f"expected {expected}", text, 0)
    return int(m.group(1)), int(m.group(2))


def _campaign_fields(args, config: dict) -> dict:
    """The Campaign fields that scan and mstd read from their shared flags."""
    group = parse_group_literal(args.group) if args.group else None
    ints = None
    if args.ints:
        ints = _parse_pair(args.ints, r"(-?[0-9]+)\.\.(-?[0-9]+)", "an integer window like 0..14")
    if group is None and ints is None:
        raise ParseError("need --group or --ints", "", 0)
    return dict(
        group=group,
        ints=ints,
        min_size=args.min_size,
        max_size=args.max_size,
        mode=args.mode,
        group_cap=_setting(args, config, "group_cap", Campaign.group_cap),
        width_cap=_setting(args, config, "width_cap", Campaign.width_cap),
    )


def _summary_lines(summary) -> list:
    lines = [
        f"representatives {summary.representatives}",
        f"universe        {summary.universe}",
    ]
    for key in summary.counts:
        lines.append(f"{key:<15} {summary.counts[key]} ({summary.rep_counts[key]} reps)")
    if summary.max_exponent_up is not None:
        lines.append(f"max exponent_up   {summary.max_exponent_up:.5f} at {', '.join(summary.argmax_up)}")
        lines.append(f"max exponent_down {summary.max_exponent_down:.5f} at {', '.join(summary.argmax_down)}")
    return lines


def _cmd_scan(args, config: dict) -> int:
    campaign = Campaign(mstd_only=args.mstd, **_campaign_fields(args, config))
    mask_range = _parse_pair(args.range, r"([0-9]+):([0-9]+)", "a mask range like 1:4096") if args.range else None
    records, summary = scan(campaign, threads=_setting(args, config, "threads", 1), mask_range=mask_range)

    def payload() -> dict:
        out = {
            "tool": f"sumdiff {VERSION}",
            "campaign": campaign.to_json_dict(),
            "summary": summary.to_json_dict(),
            "records": [r.to_json_dict() for r in records],
        }
        if args.exponents:
            out["exponent_report"] = exponent_report(records).to_json_dict() if records else None
        return out

    def lines() -> list:
        out = [f"sumdiff {VERSION} | {campaign.describe()}", *_summary_lines(summary)]
        if campaign.mstd_only:
            out += [f"  {r.set_literal()}  |A+A|={r.sum_card} |A-A|={r.diff_card}" for r in records]
        else:
            out.append(f"records         {len(records)}")
        if args.exponents and records:
            out.append(exponent_report(records).render())
        return out

    _emit(args, config, payload, lines, csv=lambda fh: write_csv(records, fh, campaign))
    return 0


def _cmd_mstd(args, config: dict) -> int:
    records = find_mstd(**_campaign_fields(args, config), threads=_setting(args, config, "threads", 1))
    _emit(
        args,
        config,
        lambda: {"records": [r.to_json_dict() for r in records]},
        lambda: [
            f"{r.set_literal()}  |A+A|={r.sum_card} |A-A|={r.diff_card} surplus={r.sum_card - r.diff_card}"
            for r in records
        ]
        or ["no sum-dominant sets found"],
        csv=lambda fh: write_csv(records, fh),
    )
    return 0


# -- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):  # subparsers are built with this class too
    """Usage errors raise ParseError, and a value like -3,0,4@Z or -3..4 is not taken for a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9]")  # private in argparse; a test pins it

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sumdiff", description="exact workbench for sumset/difference-set combinatorics")
    parser.add_argument("--version", action="version", version=f"sumdiff {VERSION}")
    parser.add_argument("--config", help="key=value config file (caps, out_dir)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="sigma, delta and the set sizes")
    p.add_argument("set", help="set literal, e.g. 0,1,3@Z8 or 0,2,3,14@Z")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("check", help="verify one claim on a set or sweep a group")
    p.add_argument("claim", choices=CLAIM_IDS)
    p.add_argument("set", nargs="?", help="set literal (omit with --sweep)")
    p.add_argument("--sweep", metavar="GROUP", help="run over every non-empty subset")
    p.add_argument("--n", type=_integer, help="iterated-sum exponent for thm5")
    p.add_argument("--sample", type=_integer, help="sample size for large sweeps")
    p.add_argument("--seed", type=_integer, help="seed for sampled sweeps")
    p.add_argument("--minimizer-cap", type=_integer)
    p.add_argument("--group-cap", type=_integer)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("witness", help="dump the injection tables or an induction trace")
    p.add_argument("kind", choices=("ruzsa", "petridis"))
    p.add_argument("set", help="set literal")
    p.add_argument("--C", help="elements of C, e.g. 0,1 (default: A itself)")
    p.add_argument("--base", help="minimizer base elements (default: -A); with @Z, embedding-group indices")
    p.add_argument("--order", choices=("asc", "desc"))
    p.add_argument("--minimizer-cap", type=_integer)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_witness)

    universe = _Parser(add_help=False)  # the flags scan and mstd share
    universe.add_argument("--group", help="group literal, e.g. Z10")
    universe.add_argument("--ints", help="integer window, e.g. 0..14")
    universe.add_argument("--max-size", type=_integer)
    universe.add_argument("--mode", choices=MODES, default=Campaign.mode)
    universe.add_argument("--threads", type=_integer, help="worker count, at least 1; every scan runs in one process")
    universe.add_argument("--group-cap", type=_integer)
    universe.add_argument("--width-cap", type=_integer)
    universe.add_argument("--format", choices=("human", "json", "csv"), default="human")
    universe.add_argument("--out", help="write to this file instead of stdout")

    p = sub.add_parser("scan", parents=[universe], help="enumerate canonical subsets and their statistics")
    p.add_argument("--all", action="store_true", help="every non-empty subset (default)")
    p.add_argument("--min-size", type=_integer, default=Campaign.min_size)
    p.add_argument("--mstd", action="store_true", help="keep only sum-dominant records")
    p.add_argument("--exponents", action="store_true", help="append the exponent report")
    p.add_argument("--range", help="representative mask range LO:HI for partitioning")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("mstd", parents=[universe], help="list sum-dominant sets, largest surplus first")
    p.set_defaults(func=_cmd_mstd, min_size=Campaign.min_size)

    return parser


_parser = None  # built by the first main() call, not at import, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except SystemExit as exc:  # only --help and --version exit; a usage error raises ParseError
        return exc.code
    except (SumdiffError, ValueError, OSError, MemoryError) as exc:  # ParseError is a SumdiffError
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(exc, (CapExceededError, MemoryError)) else 1


def console() -> None:
    sys.exit(main())
