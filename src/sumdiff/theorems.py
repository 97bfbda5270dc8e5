"""Structured verdicts for the workbench's headline claims.

Each verifier returns a Verdict instead of raising on failure, so exhaustive
sweeps record anomalies rather than abort; "violated" is a first-class outcome
that a correct build never produces, which makes sweeps double as a regression
oracle. All comparisons between rational powers clear denominators first and
compare integers, e.g. delta <= sigma^2 is checked as |A-A| |A| <= |A+A|^2; no
roots, no floats.

Claim identifiers accepted throughout (also by the CLI):

* ``fact1`` -- sigma = 1, delta = 1, and "A is a coset" are all equivalent;
* ``ineq1`` -- delta <= sigma^2 and sigma <= delta^2;
* ``thm1``  -- equality in either bound of ineq1 happens exactly for cosets;
* ``thm2``  -- delta = sigma^2 only for cosets (injection surjectivity);
* ``thm3``  -- the five-link minimizer chain bounding |A+A| by delta^2 |A|;
* ``thm5``  -- |nA| < sigma^n |A| strictly whenever sigma > 1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb
from operator import or_
from random import Random

from .errors import CapExceededError, EmptySetError
from .explorer import (
    MODE_FULL_AFFINE, MODE_TRANSLATION_NEGATION, Campaign, _canonical_masks, _group_orbit, _size_kernel,
)
from .groups import GroupSpec, is_coset
from .petridis import MINIMIZER_CAP, find_minimizer
from .ruzsa import build_witness_table
from .sets import GSet, diffset, sumset

__all__ = [
    "Verdict",
    "SweepSummary",
    "CLAIM_IDS",
    "HOLDS",
    "EQUALITY",
    "VIOLATED",
    "check_fact1",
    "check_inequality",
    "check_upper",
    "check_main_theorem",
    "check_lower_chain",
    "check_plunnecke",
    "run_claim",
    "sweep_claim",
]

HOLDS = "holds"
EQUALITY = "equality-case"
VIOLATED = "violated"
DEFAULT_N = 2  # thm5's iterated-sum exponent n when none is given
# the largest group order whose sampled fact1, ineq1 and thm1 sweeps read the size kernel, whose
# tables grow with the square of the order: 2.6 MB at most up to order 64, 17 MB for Z2^7 (BENCH_37.json)
_KERNEL_ORDER = 64

@dataclass(frozen=True)
class Verdict:
    claim: str
    group: GroupSpec
    elements: tuple[int, ...]
    sizes: dict
    ratios: dict
    outcome: str
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "group": self.group.label(),
            "set": ",".join(map(str, self.elements)),
            "sizes": dict(self.sizes),
            "ratios": {k: [v.numerator, v.denominator] for k, v in self.ratios.items()},
            "outcome": self.outcome,
            "details": _jsonify(self.details),
        }


def _jsonify(value):
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, GSet):
        return list(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _two_a(A: GSet) -> GSet:
    """A+A, once A is known to be non-empty."""
    if not A.card:
        raise EmptySetError("verdicts need a non-empty set")
    return sumset(A, A)


def _measures(a: int, s: int, d: int) -> tuple:
    """The sizes and ratios dicts of |A| = a, |A+A| = s and |A-A| = d."""
    return {"A": a, "AA": s, "AmA": d}, {"sigma": Fraction(s, a), "delta": Fraction(d, a)}


def _outcome(ok: bool, tight: bool) -> str:
    """Violated unless ``ok``; otherwise the equality case exactly when ``tight``."""
    return VIOLATED if not ok else EQUALITY if tight else HOLDS


def _verdict(
    claim: str, A: GSet, sizes: dict, ratios: dict, ok: bool, tight: bool, details: dict
) -> Verdict:
    return Verdict(claim, A.group, A.elements(), sizes, ratios, _outcome(ok, tight), details)


# claim -> (ok, tight) from |A|, |A+A|, |A-A| and whether A is a coset: the one rule for fact1,
# ineq1 and thm1, read by _sized for verdicts and samples of wide groups and on the size kernel
# for the other sweeps. ineq1 is delta <= sigma^2 and sigma <= delta^2; thm1 asks for equality
# in one exactly on cosets.
_SIZE_RULES = {
    "fact1": lambda a, s, d, coset: ((s == a) == (d == a) == coset, s == a),
    "ineq1": lambda a, s, d, coset: (d * a <= s * s and s * a <= d * d, d * a == s * s or s * a == d * d),
    "thm1": lambda a, s, d, coset: ((eq := d * a == s * s or s * a == d * d) == coset, eq),
}


def _sized(A: GSet, claim: str) -> tuple:
    """fact1's, ineq1's or thm1's decision on integers: (ok, tight, (|A|, |A+A|, |A-A|, is_coset(A))).
    The coset test runs on every set, as the check_* verifiers, the sweeps' oracle, report it."""
    a, s, d, coset = sized = A.card, _two_a(A).card, diffset(A, A).card, is_coset(A)
    return *_SIZE_RULES[claim](a, s, d, coset is not None), sized


def check_fact1(A: GSet) -> Verdict:
    """sigma = 1, delta = 1 and cosetness must agree; record the shared value."""
    ok, tight, (a, s, d, coset) = _sized(A, "fact1")
    details = {"sigma_is_one": s == a, "delta_is_one": d == a, "coset": coset is not None}
    if coset is not None:
        details["subgroup"] = coset[0]
        details["representative"] = coset[1]
    return _verdict("fact1", A, *_measures(a, s, d), ok, tight, details)


def check_inequality(A: GSet) -> Verdict:
    """Both bounds relating sigma and delta, with equality flags."""
    ok, tight, (a, s, d, _) = _sized(A, "ineq1")
    details = {"upper_tight": d * a == s * s, "lower_tight": s * a == d * d}
    return _verdict("ineq1", A, *_measures(a, s, d), ok, tight, details)


def _image(A: GSet, table) -> int:
    """How many values the injection (a, w) -> (a + u, a + v), (u, v) w's witness pair in ``table``,
    takes. It maps A x {w} to the diagonal {(a, a) : a in A} of G x G moved by (u, v), which lies on
    the line x - y = u - v; diagonals on different lines never meet, and on one line they are the
    translates A + u of its first coordinates, so the image is the sum over lines of |union of A + u|.
    A correct table puts each pair on a line of its own, worth |A|; only shared lines are shifted,
    one at a time, so no more than one line's masks are alive."""
    g, lines = A.group, {}
    add, neg = g.add, g.scale_table(-1)
    for u, v in table.pairs.values():
        lines.setdefault(add(u, neg[v]), []).append(u)
    return sum(
        A.card if len(us) == 1 else reduce(or_, [g.shift_mask(A.mask, u) for u in us]).bit_count()
        for us in lines.values()
    )


def _upper(A: GSet) -> tuple:
    """check_upper's decision on integers: (ok, tight, (|A+A|, |A-A|, details))."""
    s, table = _two_a(A).card, build_witness_table(A)
    a, d, image = A.card, len(table.pairs), _image(A, table)
    injective, surjective = image == a * d, image == s * s  # verify_injective's and check_surjective's tests
    coset, upper_tight = s == a and is_coset(A) is not None, d * a == s * s  # a coset a+H has |A+A| = |A|
    details = {"injective": injective, "surjective": surjective, "upper_tight": upper_tight, "coset": coset}
    return injective and d * a <= s * s and upper_tight == coset == surjective, coset, (s, d, details)


def check_upper(A: GSet) -> Verdict:
    """delta <= sigma^2 with equality exactly on cosets.

    Cross-checked constructively: the witness injection must be injective
    always and surjective exactly when A is a coset.
    """
    ok, tight, (s, d, details) = _upper(A)
    return _verdict("thm2", A, *_measures(A.card, s, d), ok, tight, details)


def check_main_theorem(A: GSet) -> Verdict:
    """Equality in either bound if and only if A is a coset."""
    ok, tight, (a, s, d, coset) = _sized(A, "thm1")
    details = {"upper_tight": d * a == s * s, "lower_tight": s * a == d * d, "coset": coset is not None}
    return _verdict("thm1", A, *_measures(a, s, d), ok, tight, details)


_CHAIN = ("<=", "<=", "==", "<=", "<=")  # the relations of thm3's five links


def _lower_chain(A: GSet, cap: int) -> tuple:
    """check_lower_chain's decision on integers: (ok, tight, (sizes, minimizer, numerators, den, holds)).

    The six link values are ``numerators`` over one common denominator ``den`` = q^2 |A|
    (K = p/q, delta = d/|A|), and ``holds`` says which of the five links hold.
    """
    two_a, neg = _two_a(A), A.negate()
    a, s, d = A.card, two_a.card, sumset(A, neg).card  # |A-A| = |A+(-A)|
    mn = find_minimizer(A, neg, cap=cap)
    x, p, q = mn.x, mn.k.numerator, mn.k.denominator
    sizes = {"A": a, "AA": s, "AmA": d, "AAX": sumset(two_a, x).card, "XA": sumset(x, A).card, "X": x.card}
    den = q * q * a
    nums = (s * den, sizes["AAX"] * den, p * sizes["XA"] * q * a, p * p * x.card * a, p * p * a * a, d * d * q * q)
    holds = [lhs == rhs if rel == "==" else lhs <= rhs for lhs, rel, rhs in zip(nums, _CHAIN, nums[1:])]
    return all(holds), len(set(nums)) == 1, (sizes, mn, nums, den, holds)


def check_lower_chain(A: GSet, cap: int = MINIMIZER_CAP) -> Verdict:
    """The five-link chain from |A+A| up to delta^2 |A| via the minimizer.

    Links: |2A| <= |2A+X| <= K|X+A| = K^2|X| <= K^2|A| <= delta^2|A|, where X
    minimizes |A+X|/|X| over non-empty subsets of -A. Every link is evaluated
    exactly and its slack recorded; all links are tight exactly on cosets.
    """
    ok, tight, (sizes, mn, nums, den, holds) = _lower_chain(A, cap)
    values = [Fraction(n, den) for n in nums]
    links = [
        {"lhs": values[i], "rel": rel, "rhs": values[i + 1], "holds": holds[i], "slack": values[i + 1] - values[i]}
        for i, rel in enumerate(_CHAIN)
    ]
    ratios = _measures(sizes["A"], sizes["AA"], sizes["AmA"])[1] | {"K": mn.k}
    details = {"links": links, "X": mn.x, "strict_minimizer": mn.strict_on_proper_subsets}
    return _verdict("thm3", A, sizes, ratios, ok, tight, details)


def _plunnecke(A: GSet, n: int, cap: int) -> tuple:
    """check_plunnecke's decision on integers: (ok, tight, (|A+A|, |nA|, minimizer, main lhs, main rhs, aux)),
    with ``aux`` the pairs (|jA+X|, whether |jA+X| <= K^j |X|) for j = 1..n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    two_a = _two_a(A)
    a, s = A.card, two_a.card
    mn = find_minimizer(A, A, cap=cap)
    p, q = mn.k.numerator, mn.k.denominator
    aux, cur = [], A
    for j in range(1, n + 1):
        jax = sumset(cur, mn.x).card
        aux.append((jax, jax * q**j <= p**j * mn.x.card))
        if j < n:
            cur = two_a if j == 1 else sumset(cur, A)
    lhs, rhs = cur.card * a ** (n - 1), s**n  # cur is nA once the chain ends
    strict_required = s > a
    main_ok = lhs < rhs if strict_required else lhs == rhs
    return main_ok and all(ok for _, ok in aux), not strict_required, (s, cur.card, mn, lhs, rhs, aux)


def check_plunnecke(A: GSet, n: int, cap: int = MINIMIZER_CAP) -> Verdict:
    """|nA| < sigma^n |A| strictly when sigma > 1; equality when sigma = 1.

    The headline comparison clears denominators: |nA| |A|^(n-1) vs |A+A|^n.
    The auxiliary chain |jA+X| <= K^j |X| for j = 1..n is verified as well,
    with X the minimizer over non-empty subsets of A itself.
    """
    ok, tight, (s, na, mn, lhs, rhs, aux) = _plunnecke(A, n, cap)
    bounds = [{"j": j, "jA+X": jax, "bound": mn.k**j * mn.x.card, "holds": h} for j, (jax, h) in enumerate(aux, 1)]
    return _verdict(
        "thm5",
        A,
        {"A": A.card, "AA": s, "nA": na},
        {"sigma": Fraction(s, A.card), "K": mn.k},
        ok,
        tight,
        {"n": n, "main": {"lhs": lhs, "rhs": rhs}, "aux": bounds, "X": mn.x},
    )


# claim id -> (integer-mode embedding arity for a given n, verifier). The
# verifiers look their check_* function up by name on each call, so a
# rebound module attribute (a tracing wrapper, say) is the one that runs.
# Single sets run these verifiers. Sweeps decide each set by the claim's
# integer core in _CORES, the decision its check_* verifier builds the
# Verdict around, except fact1, ineq1 and thm1 sweeps of groups up to order
# _KERNEL_ORDER (every exhaustive one), which read _size_kernel and _SIZE_RULES.
_CLAIMS = {
    "fact1": (lambda n: (1, 1), lambda A, n, cap: check_fact1(A)),
    "ineq1": (lambda n: (1, 1), lambda A, n, cap: check_inequality(A)),
    "thm1": (lambda n: (1, 1), lambda A, n, cap: check_main_theorem(A)),
    "thm2": (lambda n: (1, 1), lambda A, n, cap: check_upper(A)),
    "thm3": (lambda n: (2, 1), lambda A, n, cap: check_lower_chain(A, cap=cap)),
    "thm5": (lambda n: (n + 1, 0), lambda A, n, cap: check_plunnecke(A, n, cap=cap)),
}
CLAIM_IDS = tuple(_CLAIMS)
_CORES = {
    "fact1": lambda A, n, cap: _sized(A, "fact1"),
    "ineq1": lambda A, n, cap: _sized(A, "ineq1"),
    "thm1": lambda A, n, cap: _sized(A, "thm1"),
    "thm2": lambda A, n, cap: _upper(A),
    "thm3": lambda A, n, cap: _lower_chain(A, cap),
    "thm5": lambda A, n, cap: _plunnecke(A, n, cap),
}


def claim_arity(claim: str, n: int) -> tuple[int, int]:
    """The (n, m) that integer sets are embedded with for this claim."""
    return _CLAIMS[claim][0](n)


def run_claim(claim: str, A: GSet, *, n: int = DEFAULT_N, cap: int = MINIMIZER_CAP) -> Verdict:
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIM_IDS}")
    return _CLAIMS[claim][1](A, n, cap)


@dataclass(frozen=True)
class SweepSummary:
    claim: str
    group: GroupSpec
    total: int
    counts: dict  # outcome -> count
    violations: tuple[str, ...]  # set literals, capped at 32

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "group": self.group.label(),
            "total": self.total,
            "counts": dict(self.counts),
            "violations": list(self.violations),
        }


def _draw(rng: Random, n: int, top: int) -> int:
    """One mask, uniform over the non-empty subsets of n elements with at most top members."""
    if top >= n:
        return rng.randrange(1, 1 << n)
    bounds = list(accumulate(comb(n, k) for k in range(1, top + 1)))  # exact weights C(n, k)
    k = bisect_right(bounds, rng.randrange(bounds[-1])) + 1
    return sum(1 << x for x in rng.sample(range(n), k))


def sweep_claim(
    claim: str,
    g: GroupSpec,
    *,
    n: int = DEFAULT_N,
    cap: int = MINIMIZER_CAP,
    group_cap: int = Campaign.group_cap,
    sample: int | None = None,
    seed: int | None = None,
) -> SweepSummary:
    """Run one claim over every non-empty subset of ``g`` (or a uniform sample).

    Exhaustive means one verdict per class of a partition that refines the orbits of
    x -> f(x) + t, f in Aut(g), counted with the class's size: a claim reads only sizes
    of sums of A and -A and whether A is a coset, which every automorphism keeps; it
    raises RuntimeError unless the class sizes sum to 2^|g| - 1. It lists the 32 least
    violating masks, ascending; a sample lists the first 32 it draws. An exhaustive
    fact1, ineq1 or thm1 sweep takes translation+negation classes, with no automorphism
    tables; the other claims take Aut(g) orbits. A fact1, ineq1 or thm1 sweep reads
    |A+A| and |A-A| from ``explorer._size_kernel``, with no sumset, unless it samples a
    group of order above ``_KERNEL_ORDER``. Every other sweep decides each set by the
    claim's integer core in ``_CORES``, the decision its check_* verifier builds its
    Verdict around. No sweep builds a Verdict.

    A sweep draws only when ``sample`` is below the 2^|g| - 1 subsets: uniformly,
    with replacement, seeded by ``seed`` (0 if None), and past the group cap.
    Any other sweep is exhaustive, takes no seed (ValueError), and is refused
    above ``group_cap`` by its Campaign's ``validate``, and above 2^30 subsets,
    before any orbit source runs. The minimizer claims (thm3, thm5) search
    subsets of A, so on groups of order above ``cap`` they sample uniformly
    among the sets of at most ``cap`` elements.
    """
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIM_IDS}")
    ints = {"n": n, "cap": cap, "sample": 1 if sample is None else sample, "seed": 0 if seed is None else seed}
    if bad := [k for k, v in ints.items() if not hasattr(type(v), "__index__")]:  # Random would seed from "x" or 1.5
        raise TypeError(f"{bad[0]} must be an integer, got {ints[bad[0]]!r}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample size must be >= 1, got {sample}")
    total_universe = (1 << g.order) - 1
    sampled = sample is not None and sample < total_universe
    top = cap if claim in ("thm3", "thm5") else g.order  # the most elements a verdict can take
    # a sampled sweep's group may have any order, and the kernel's tables grow faster than it
    rule, core = None if sampled and g.order > _KERNEL_ORDER else _SIZE_RULES.get(claim), _CORES[claim]
    if sampled:
        if top < 1:  # no set of at most cap elements to draw
            raise CapExceededError(f"minimizer base size {cap + 1} exceeds cap {cap}")
        rng = Random(seed or 0)
        weighted = ((_draw(rng, g.order, top), 1) for _ in range(sample))
    elif seed is not None:
        raise ValueError(f"seed {seed} needs a sample smaller than the {total_universe} subsets of {g.label()}")
    else:
        # every verdict is Aut-invariant, so classes inside the Aut orbits weigh the same, and the
        # violating masks, a union of Aut orbits, are a union of classes too
        mode = MODE_TRANSLATION_NEGATION if rule else MODE_FULL_AFFINE
        campaign = Campaign(group=g, mode=mode, group_cap=group_cap)
        campaign.validate()
        if top < g.order:  # the source would reach 2^(cap+1) - 1, a representative, and stop there
            raise CapExceededError(f"minimizer base size {cap + 1} exceeds cap {cap}")
        if total_universe > 1 << 30:
            raise CapExceededError(f"exhaustive sweep of {g.label()} covers {total_universe} masks, above 2^30")
        maps = () if rule else g.automorphisms()  # with the unit scalars of full-affine mode, all of Aut(g)
        weighted = _canonical_masks(campaign, 1, total_universe + 1, maps)
    sizes = rule and _size_kernel(g.moduli, g.order)
    counts = {HOLDS: 0, EQUALITY: 0, VIOLATED: 0}
    violations = []  # masks
    for mask, weight in weighted:
        if rule:  # a coset a+H has |A+A| = |H| = |A|, so no other set needs the coset test
            a, (s, d) = mask.bit_count(), sizes(mask)
            outcome = _outcome(*rule(a, s, d, s == a and is_coset(GSet.from_mask(g, mask)) is not None))
        else:
            outcome = _outcome(*core(GSet.from_mask(g, mask), n, cap)[:2])
        counts[outcome] += weight
        if outcome == VIOLATED and not sampled:  # a class's least member is its representative
            violations = sorted([*violations, *_group_orbit(g, mask, mode, maps)])[:32]
        elif outcome == VIOLATED and len(violations) < 32:
            violations.append(mask)
    total = sum(counts.values())
    if not sampled and total != total_universe:  # the classes must cover every subset once
        raise RuntimeError(f"exhaustive sweep of {g.label()} weighed {total} subsets, not {total_universe}")
    literals = tuple(str(GSet.from_mask(g, m)) for m in violations)
    return SweepSummary(claim, g, total, counts, literals)
