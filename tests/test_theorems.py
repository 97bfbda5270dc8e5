import gc
import json
import re
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from math import comb
from random import Random

import pytest

from sumdiff import (
    CapExceededError,
    EQUALITY,
    EmptySetError,
    HOLDS,
    VIOLATED,
    SweepSummary,
    GroupSpec,
    GSet,
    build_injection,
    build_witness_table,
    check_fact1,
    check_inequality,
    check_lower_chain,
    check_main_theorem,
    check_plunnecke,
    check_surjective,
    check_upper,
    cli,
    diffset,
    enumerate_subgroups,
    explorer,
    is_coset,
    run_claim,
    sets,
    subsets,
    sweep_claim,
    theorems,
    verify_injective,
)

from oracles import (
    aut_orbit_count,
    burnside_orbit_count,
    divisor_coset_count,
    naive_coset_masks,
    per_subset_sweep,
)


def gs(moduli, members):
    return GSet(GroupSpec(moduli), members)


def test_fact1_examples():
    v = check_fact1(gs((6,), [1, 4]))
    assert v.outcome == EQUALITY and v.details["coset"]
    assert v.details["subgroup"].elements() == (0, 3)
    v = check_fact1(gs((5,), [0, 1]))
    assert v.outcome == HOLDS
    assert not any(
        (v.details["sigma_is_one"], v.details["delta_is_one"], v.details["coset"])
    )


def test_fact1_census_z12():
    g = GroupSpec((12,))
    eq = [A.mask for A in subsets(g) if check_fact1(A).outcome == EQUALITY]
    assert len(eq) == 28 == divisor_coset_count(12)
    assert set(eq) == naive_coset_masks((12,))


def test_inequality_examples():
    v = check_inequality(gs((8,), [0, 1, 3]))
    assert v.outcome == HOLDS
    assert v.ratios["sigma"] == 2 and v.ratios["delta"] == Fraction(7, 3)
    v = check_inequality(gs((6,), [1, 4]))
    assert v.outcome == EQUALITY and v.details["upper_tight"] and v.details["lower_tight"]
    v = check_inequality(gs((5,), [0, 1]))
    assert v.outcome == HOLDS


def test_upper_examples():
    v = check_upper(gs((6,), [1, 4]))
    assert v.outcome == EQUALITY and v.details["surjective"]
    v = check_upper(gs((5,), [0, 1]))
    assert v.outcome == HOLDS and v.details["injective"] and not v.details["surjective"]


def _upper_agrees_with_the_injection(A):
    # the image that thm2 counts line by line is the one build_injection's dict takes; "coset"
    # is decided by is_coset only where |A+A| = |A|; it must agree with is_coset everywhere
    v, inj = check_upper(A), build_injection(A)
    assert theorems._image(A, build_witness_table(A)) == inj.image, A
    assert v.details["injective"] == verify_injective(inj), A
    assert v.details["surjective"] == check_surjective(inj), A
    assert v.sizes["AmA"] == diffset(A, A).card, A
    assert v.details["coset"] == (is_coset(A) is not None), A


# every abelian group of order <= 12, Z12 and Z2xZ6 in two spellings each
SMALL_GROUPS = [(n,) for n in range(1, 13)] + [(2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (3, 4), (2, 2, 3)]


@pytest.mark.parametrize("moduli", SMALL_GROUPS, ids=lambda m: GroupSpec(m).label())
def test_upper_agrees_with_the_public_ruzsa_functions(moduli):
    for A in subsets(GroupSpec(moduli)):
        _upper_agrees_with_the_injection(A)


@pytest.mark.parametrize("moduli", [(24,), (2, 12), (3, 8)], ids=lambda m: GroupSpec(m).label())
def test_upper_agrees_with_the_public_ruzsa_functions_on_drawn_sets(moduli):
    g, rng = GroupSpec(moduli), Random(11)
    for _ in range(3000):
        _upper_agrees_with_the_injection(GSet.from_mask(g, rng.randrange(1, 1 << g.order)))


@pytest.mark.parametrize("moduli", [(64,), (2, 32), (65,), (2, 33), (128,)], ids=lambda m: GroupSpec(m).label())
def test_upper_agrees_with_the_public_ruzsa_functions_on_wide_groups(moduli):
    # the line count needs no table that grows faster than the order, so it runs at every order
    g, rng = GroupSpec(moduli), Random(12)
    drawn = [GSet(g, rng.sample(range(g.order), rng.randrange(1, 17))) for _ in range(300)]
    for A in drawn + [GSet.from_mask(g, m) for m in (1, 3, g.full_mask, *(h.mask for h in enumerate_subgroups(g)))]:
        _upper_agrees_with_the_injection(A)


def test_the_image_count_keeps_one_line_of_masks_alive():
    # 20 members of Z200003 have 381 differences, each line a 25 KB translate: a mask kept per
    # line would hold 9.5 MB. The planted pair (a0, a0) for the last difference shares 0's line
    g, rng = GroupSpec((200003,)), Random(3)
    A = GSet(g, rng.sample(range(g.order), 20))
    table = build_witness_table(A)
    *_, w = table.pairs
    planted = replace(table, pairs=table.pairs | {w: (min(A), min(A))})
    for t, image in ((table, 20 * len(table.pairs)), (planted, 20 * (len(table.pairs) - 1))):
        assert build_injection(A, t).image == image
        tracemalloc.start()
        try:
            assert theorems._image(A, t) == image
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


@pytest.mark.parametrize("moduli", [(12,), (2, 6)], ids=["Z12", "Z2xZ6"])
def test_a_witness_pair_off_its_difference_breaks_injectivity(monkeypatch, capsys, moduli):
    # the largest difference w takes a pair (x, x) of members, with u - v = 0 != w. Its moved
    # diagonal then meets the one of 0's pair (a0, a0) in |A & (A + x - a0)| points, the image
    # count that the line count and build_injection's dict must both report. On the two-element
    # sets x = a0, which loses |A| points; on {0, 1, 3} in Z12, x = 1 loses one
    table = theorems.build_witness_table

    def off_pair(A, x):
        t = table(A)
        *_, w = t.pairs
        return replace(t, pairs=t.pairs | {w: (x, x)})

    g, lossy = GroupSpec(moduli), [gs(moduli, [0, 1, 3])]
    clean = sweep_claim("thm2", g).counts
    monkeypatch.setattr(
        theorems, "build_witness_table",
        lambda A: off_pair(A, min(A)) if A.card == 2 else off_pair(A, 1) if A in lossy else table(A),
    )
    pairs = [m for m in range(1, 1 << g.order) if m.bit_count() == 2]
    cosets = sum(is_coset(GSet.from_mask(g, m)) is not None for m in pairs)
    counts = {HOLDS: clean[HOLDS] - len(pairs) + cosets, EQUALITY: clean[EQUALITY] - cosets, VIOLATED: len(pairs)}
    A = lossy[0]
    lost = (A.mask & g.shift_mask(A.mask, 1)).bit_count()
    assert lost == (1 if moduli == (12,) else 2)
    for B, x, image in [(A, 1, 3 * diffset(A, A).card - lost)] + [
        (B, min(B), 2 * diffset(B, B).card - 2) for B in (GSet.from_mask(g, m) for m in pairs)
    ]:
        assert theorems._image(B, off_pair(B, x)) == build_injection(B, off_pair(B, x)).image == image, B
        assert not check_upper(B).details["injective"], B
    lossy.clear()  # the sweeps meet only the two-element faults, which every automorphism keeps
    assert check_upper(A).details["injective"]
    assert cli.main(["check", "thm2", "--sweep", g.label(), "--format", "json"]) == 3
    s = json.loads(capsys.readouterr().out)
    assert s["counts"] == counts and s["violations"] == [str(GSet.from_mask(g, m)) for m in pairs[:32]]


def test_main_theorem_examples():
    assert check_main_theorem(gs((6,), [1, 4])).outcome == EQUALITY
    assert check_main_theorem(gs((5,), [0, 1])).outcome == HOLDS


def test_main_theorem_census_z10():
    g = GroupSpec((10,))
    count = sum(1 for A in subsets(g) if check_main_theorem(A).outcome == EQUALITY)
    assert count == 18 == divisor_coset_count(10)


def test_lower_chain_example_z5():
    v = check_lower_chain(gs((5,), [0, 1]))
    links = v.details["links"]
    values = [links[0]["lhs"]] + [l["rhs"] for l in links]
    assert values == [3, 4, Fraction(9, 2), Fraction(9, 2), Fraction(9, 2), Fraction(9, 2)]
    assert v.outcome == HOLDS
    assert v.ratios["K"] == Fraction(3, 2)
    assert v.details["X"].elements() == (0, 4)


def test_lower_chain_coset_all_tight():
    v = check_lower_chain(gs((6,), [1, 4]))
    assert v.outcome == EQUALITY
    assert all(link["slack"] == 0 for link in v.details["links"])


@pytest.mark.parametrize("moduli", [(9,), (2, 4)])
def test_lower_chain_links_match_fraction_arithmetic(moduli):
    # the integer link decisions against the chain evaluated in Fractions
    for A in subsets(GroupSpec(moduli)):
        v = check_lower_chain(A)
        a, s, k, delta = A.card, v.sizes["AA"], v.ratios["K"], v.ratios["delta"]
        values = [Fraction(s), Fraction(v.sizes["AAX"]), k * v.sizes["XA"], k * k * v.sizes["X"], k * k * a,
                  delta * delta * a]
        links = v.details["links"]
        assert [(l["lhs"], l["rhs"], l["slack"]) for l in links] == [
            (lo, hi, hi - lo) for lo, hi in zip(values, values[1:])
        ]
        assert all(type(l[key]) is Fraction for l in links for key in ("lhs", "rhs", "slack"))
        rels = ("<=", "<=", "==", "<=", "<=")
        assert [(l["rel"], l["holds"]) for l in links] == [
            (rel, hi == lo if rel == "==" else hi >= lo) for (lo, hi), rel in zip(zip(values, values[1:]), rels)
        ]
        tight = all(hi == lo for lo, hi in zip(values, values[1:]))
        assert v.outcome == (EQUALITY if tight and all(l["holds"] for l in links) else HOLDS)


def test_lower_chain_z8_strict_somewhere():
    v = check_lower_chain(gs((8,), [0, 1, 3]))
    assert v.outcome == HOLDS
    assert any(link["slack"] > 0 for link in v.details["links"])


def test_plunnecke_examples():
    v = check_plunnecke(gs((8,), [0, 1]), 3)
    assert v.outcome == HOLDS and v.details["main"] == {"lhs": 16, "rhs": 27}
    v = check_plunnecke(gs((6,), [1, 4]), 4)
    assert v.outcome == EQUALITY
    v = check_plunnecke(gs((8,), [0, 1, 3]), 2)
    assert v.outcome == HOLDS
    assert v.sizes["nA"] == 6
    with pytest.raises(ValueError):
        check_plunnecke(gs((8,), [0, 1]), 0)


def test_plunnecke_n1_and_n2_shapes():
    # n=1 is strict iff sigma > 1; n=2 likewise since |2A| = sigma |A|
    g = GroupSpec((9,))
    for A in subsets(g, max_size=4):
        s = check_inequality(A).ratios["sigma"]
        for n in (1, 2):
            v = check_plunnecke(A, n)
            assert v.outcome == (EQUALITY if s == 1 else HOLDS)


def test_verdict_internal_consistency_and_json():
    v = check_lower_chain(gs((8,), [0, 1, 3]))
    assert v.ratios["sigma"] == Fraction(v.sizes["AA"], v.sizes["A"])
    assert v.ratios["delta"] == Fraction(v.sizes["AmA"], v.sizes["A"])
    d = v.to_json_dict()
    assert set(d) == {"claim", "group", "set", "sizes", "ratios", "outcome", "details"}
    assert d["claim"] == "thm3" and d["group"] == "Z8" and d["set"] == "0,1,3"
    assert d["ratios"]["sigma"] == [2, 1]
    assert d["outcome"] == "holds"


@pytest.mark.parametrize("claim", theorems.CLAIM_IDS)
def test_verdicts_reject_the_empty_set(claim):
    with pytest.raises(EmptySetError, match="^verdicts need a non-empty set$"):
        run_claim(claim, gs((5,), []))


def test_run_claim_dispatch_and_unknown():
    A = gs((6,), [1, 4])
    for claim in ("fact1", "ineq1", "thm1", "thm2", "thm3", "thm5"):
        assert run_claim(claim, A).claim == claim
    with pytest.raises(ValueError):
        run_claim("thm9", A)


def test_sweep_claim_refuses_an_unknown_claim_before_any_cap():
    message = f"^unknown claim 'nope'; expected one of {re.escape(str(theorems.CLAIM_IDS))}$"
    for kw in ({}, {"sample": 10}):
        with pytest.raises(ValueError, match=message):
            sweep_claim("nope", GroupSpec((30,)), **kw)
    assert set(theorems._CORES) == set(theorems.CLAIM_IDS)  # one integer core per claim


def test_sweep_summary_and_caps():
    s = sweep_claim("fact1", GroupSpec((10,)))
    assert s.total == 1023
    assert s.counts[EQUALITY] == 18 and s.counts[VIOLATED] == 0
    with pytest.raises(CapExceededError):
        sweep_claim("fact1", GroupSpec((26,)))
    sampled = sweep_claim("ineq1", GroupSpec((26,)), sample=50, seed=1)
    assert sampled.total == 50 and sampled.counts[VIOLATED] == 0
    assert sampled == sweep_claim("ineq1", GroupSpec((26,)), sample=50, seed=1)
    for bad in (0, -4):
        with pytest.raises(ValueError):
            sweep_claim("thm1", GroupSpec((9,)), sample=bad)
    # non-integers are refused by name: int() would read 2.5 as 2, and Random would seed from "x"
    for field, bad in [("sample", 2.5), ("seed", "x"), ("seed", 1.5), ("n", 2.0), ("cap", 2.5), ("n", None)]:
        for claim in ("fact1", "thm5"):
            with pytest.raises(TypeError, match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
                sweep_claim(claim, GroupSpec((64,)), **{"sample": 5, field: bad})


def test_verdicts_keep_no_group_alive():
    # the negation and scaling tables live on the group, so a request's
    # product group is freed once the caller lets go of it
    g = GroupSpec((2, 4, 8))
    ref = weakref.ref(g)
    A = GSet(g, [0, 3, 9, 17, 40, 41])
    v = check_lower_chain(A)
    assert v.outcome == HOLDS
    assert g.scale_mask(A.mask, 3) == sum(1 << g.scale(x, 3) for x in A)
    del g, A, v
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("claim", ["thm3", "thm5"])
def test_sampled_minimizer_sweeps_stay_within_cap(monkeypatch, claim):
    # a uniform mask of Z64 has about 32 members, past any minimizer cap
    drawn, core = [], theorems._CORES[claim]  # a sweep decides each set by the claim's core
    monkeypatch.setitem(theorems._CORES, claim, lambda A, n, cap: drawn.append(A) or core(A, n, cap))
    g = GroupSpec((64,))
    s = sweep_claim(claim, g, sample=12, seed=5, cap=9)
    assert s.total == 12 and s.counts[VIOLATED] == 0
    assert len(drawn) == 12 and all(1 <= A.card <= 9 for A in drawn)
    first = list(drawn)
    assert sweep_claim(claim, g, sample=12, seed=5, cap=9) == s
    assert drawn[12:] == first  # the same seed draws the same sets
    sweep_claim(claim, g, sample=12, seed=6, cap=9)
    assert drawn[24:] != first


@pytest.mark.parametrize("claim", ["thm3", "thm5"])
def test_exhaustive_minimizer_sweep_above_the_cap_fails_before_the_walk(monkeypatch, claim):
    # the walk would reach 2^(cap+1) - 1, the least mask with cap + 1 members and so
    # a representative, and stop there with the same message
    small = GroupSpec((8,))
    with pytest.raises(CapExceededError) as walked:
        run_claim(claim, GSet.from_mask(small, 0b1111), cap=3)
    walks, source = [], theorems._canonical_masks
    monkeypatch.setattr(theorems, "_canonical_masks", lambda *a: walks.append(a) or source(*a))
    with pytest.raises(CapExceededError) as early:
        sweep_claim(claim, small, cap=3)
    assert str(early.value) == str(walked.value) == "minimizer base size 4 exceeds cap 3"
    with pytest.raises(CapExceededError, match="^minimizer base size 21 exceeds cap 20$"):
        sweep_claim(claim, GroupSpec((21,)))
    assert walks == []
    assert sweep_claim(claim, GroupSpec((21,)), sample=3).total == 3  # sampled sweeps still run
    assert walks == []
    sweep_claim(claim, GroupSpec((2, 2)), cap=4)  # order at the cap: the sweep walks through the patched name
    assert len(walks) == 1


@pytest.mark.parametrize("claim", ["thm3", "thm5"])
def test_a_minimizer_cap_below_1_is_refused_drawn_or_exhaustive(claim):
    # no set has at most 0 elements, so a drawn sweep fails as the exhaustive one and a single set do
    g = GroupSpec((64,))
    for run in (
        lambda: sweep_claim(claim, g, sample=5, cap=0),
        lambda: sweep_claim(claim, g, cap=0, group_cap=64),
        lambda: run_claim(claim, GSet(g, [0]), cap=0),
    ):
        with pytest.raises(CapExceededError, match="^minimizer base size 1 exceeds cap 0$"):
            run()
    with pytest.raises(ValueError, match="^seed 3 needs a sample"):  # the exhaustive path checks the seed first
        sweep_claim(claim, GroupSpec((6,)), cap=0, seed=3)


def test_capped_draw_is_uniform_over_small_sets():
    rng = Random(3)
    counts = Counter(theorems._draw(rng, 6, 2) for _ in range(4200))
    # the 6 singletons and 15 pairs of 6 elements, each drawn about 200 times
    assert len(counts) == 21 and all(1 <= m.bit_count() <= 2 for m in counts)
    assert all(140 <= c <= 260 for c in counts.values())


def test_uncapped_draw_keeps_the_plain_mask_draw():
    # groups of order <= cap draw exactly as before, so sampled sweeps keep their sets
    ours, plain = Random(11), Random(11)
    assert [theorems._draw(ours, 9, 20) for _ in range(50)] == [
        plain.randrange(1, 1 << 9) for _ in range(50)
    ]


# every group of order <= 11 up to isomorphism, and three of order 12
SWEEP_GROUPS = [
    *[GroupSpec((n,)) for n in range(1, 12)],
    GroupSpec((2, 2)),
    GroupSpec((2, 4)),
    GroupSpec((2, 2, 2)),
    GroupSpec((3, 3)),
    GroupSpec((12,)),
    GroupSpec((2, 6)),
    GroupSpec((3, 4)),
]


@pytest.mark.parametrize("g", SWEEP_GROUPS, ids=GroupSpec.label)
def test_orbit_weighted_sweep_matches_the_per_subset_sweep(g):
    # every claim on every non-empty subset: no set violates it, the orbit-weighted
    # sweep counts what the per-subset one does, and fact1 and thm1 hold with
    # equality on the same sets
    equal = {}
    for claim in theorems.CLAIM_IDS:
        equal[claim] = set()
        summary = per_subset_sweep(claim, g, equal=equal[claim])
        assert summary.counts[VIOLATED] == 0, (claim, summary.violations)
        assert sweep_claim(claim, g) == summary, claim
    assert equal["fact1"] == equal["thm1"]
    assert sweep_claim("thm5", g, n=3) == per_subset_sweep("thm5", g, n=3)


# the groups above, and four products whose automorphisms outnumber their unit scalars
AUT_SWEEP_GROUPS = [*SWEEP_GROUPS, GroupSpec((2, 8)), GroupSpec((4, 4)), GroupSpec((2, 2, 4)), GroupSpec((2, 2, 2, 2))]


@pytest.mark.parametrize("g", AUT_SWEEP_GROUPS, ids=GroupSpec.label)
def test_exhaustive_sweep_takes_one_verdict_per_automorphism_orbit(monkeypatch, g):
    verdicts = []
    _plant(monkeypatch, verdicts.append)  # None: holds
    s = sweep_claim("planted", g)
    assert s.total == s.counts[HOLDS] == (1 << g.order) - 1
    assert len(verdicts) == aut_orbit_count(g.moduli)
    if len(g.moduli) == 1:  # a cyclic group's automorphisms are its unit scalars
        assert len(verdicts) == burnside_orbit_count(g.moduli, "full-affine")


@pytest.mark.parametrize("g", [GroupSpec((12,)), GroupSpec((13,)), GroupSpec((2, 6))], ids=GroupSpec.label)
def test_an_exhaustive_sweep_that_misses_an_orbit_raises(monkeypatch, g):
    # a source that drops its first orbit, the singletons
    source = theorems._canonical_masks
    monkeypatch.setattr(theorems, "_canonical_masks", lambda *a: islice(source(*a), 1, None))
    short = (1 << g.order) - 1 - g.order
    with pytest.raises(RuntimeError, match=f"^exhaustive sweep of {g.label()} weighed {short} subsets, not "):
        sweep_claim("fact1", g)
    assert sweep_claim("fact1", g, sample=50).total == 50  # a sample draws its own masks


def test_cyclic_sweeps_take_the_necklace_source(monkeypatch):
    # Z_N's automorphisms are its unit scalars, so its full-affine orbits need no walk
    walked = []
    walk = explorer._orbit_walk
    monkeypatch.setattr(explorer, "_orbit_walk", lambda *a: walked.append(a[0].group.label()) or walk(*a))
    for g in (GroupSpec((16,)), GroupSpec((2, 4))):
        verdicts = []
        _plant(monkeypatch, verdicts.append)
        assert sweep_claim("planted", g).total == (1 << g.order) - 1
        assert len(verdicts) == aut_orbit_count(g.moduli)
    assert walked == ["Z2xZ4"]


def _plant(monkeypatch, violated):
    """Plant a claim violated exactly on the sets that ``violated`` picks: the integer core
    that sweeps run and the ``_CLAIMS`` verifier that the per-subset oracle runs. The
    predicates below are orbit-invariant, as every real claim is."""
    verify = lambda A, n, cap: theorems._verdict("planted", A, {}, {}, not violated(A), False, {})
    monkeypatch.setitem(theorems._CLAIMS, "planted", ((lambda n: (1, 1)), verify))
    monkeypatch.setitem(theorems._CORES, "planted", lambda A, n, cap: (not violated(A), False))


# Z2xZ2xZ4 has 192 automorphisms against 2 unit scalars: its three-element sets lie in
# orbits merged by the automorphism tables, and each violating one is expanded
@pytest.mark.parametrize("g", [GroupSpec((12,)), GroupSpec((2, 2, 4))], ids=GroupSpec.label)
def test_planted_violations_are_the_least_masks_in_order(monkeypatch, g):
    _plant(monkeypatch, lambda A: A.card == 3)
    s = sweep_claim("planted", g)
    least = list(islice((m for m in range(1, 1 << g.order) if m.bit_count() == 3), 32))
    assert s.violations == tuple(str(GSet.from_mask(g, m)) for m in least)
    triples = comb(g.order, 3)
    assert s.counts == {HOLDS: (1 << g.order) - 1 - triples, EQUALITY: 0, VIOLATED: triples}
    assert s == per_subset_sweep("planted", g)


@pytest.mark.parametrize(
    "moduli, cosets",
    [((12,), 6), ((2, 6), 18), ((2, 8), 24), ((2, 2, 2, 2), 120)],
    ids=["Z12", "Z2xZ6", "Z2xZ8", "Z2xZ2xZ2xZ2"],
)
def test_planted_short_violation_list_matches_the_oracle(monkeypatch, moduli, cosets):
    # the two-element cosets: one per subgroup of order 2 and translate
    _plant(monkeypatch, lambda A: A.card == 2 and is_coset(A) is not None)
    g = GroupSpec(moduli)
    s = sweep_claim("planted", g)
    assert s.counts[VIOLATED] == cosets and len(s.violations) == min(cosets, 32)
    assert s == per_subset_sweep("planted", g)


def test_planted_sampled_violations_are_listed_in_draw_order(monkeypatch):
    # the sets of odd size violate: a sample lists the first 32 it draws, unsorted,
    # and counts every violating draw
    _plant(monkeypatch, lambda A: A.card % 2 == 1)
    g = GroupSpec((16,))
    rng = Random(3)
    odd = [m for m in (rng.randrange(1, 1 << 16) for _ in range(200)) if m.bit_count() % 2]
    s = sweep_claim("planted", g, sample=200, seed=3)
    assert s.total == 200 and s.counts[VIOLATED] == len(odd) > 32
    assert s.violations == tuple(str(GSet.from_mask(g, m)) for m in odd[:32])
    assert sorted(odd[:32]) != odd[:32]


SIZE_CLAIMS = ("fact1", "ineq1", "thm1")


@pytest.mark.parametrize("g", [GroupSpec((64,)), GroupSpec((2, 32)), GroupSpec((2, 2, 4))], ids=GroupSpec.label)
def test_sampled_size_sweeps_match_the_verdicts_of_their_draws(g):
    # the same draws, replayed, each judged by its check_* verdict
    for claim in SIZE_CLAIMS:
        rng = Random(5)
        drawn = [GSet.from_mask(g, theorems._draw(rng, g.order, g.order)) for _ in range(500)]
        outcomes = [run_claim(claim, A).outcome for A in drawn]
        bad = tuple(str(A) for A, o in zip(drawn, outcomes) if o == VIOLATED)[:32]
        counts = {o: outcomes.count(o) for o in (HOLDS, EQUALITY, VIOLATED)}
        assert sweep_claim(claim, g, sample=500, seed=5) == SweepSummary(claim, g, 500, counts, bad), claim


@pytest.mark.parametrize(
    "moduli, cosets, oracle",
    [
        ((12,), 6, SIZE_CLAIMS),
        ((2, 6), 18, SIZE_CLAIMS),
        ((2, 8), 24, ("fact1",)),
        ((4, 4), 24, ("ineq1",)),
        ((2, 2, 4), 56, ("thm1",)),
    ],
    ids=["Z12", "Z2xZ6", "Z2xZ8", "Z4xZ4", "Z2xZ2xZ4"],
)
def test_a_planted_kernel_fault_reaches_the_exhaustive_size_sweeps(monkeypatch, moduli, cosets, oracle):
    # a kernel that reports |A-A| one too large on two-element sets and 3 on three-element
    # ones. The two-element cosets, where |A+A| = |A-A| = |A| = 2, then break fact1, ineq1
    # and thm1 (a pair {x, y} off a coset has |A+A| = |A-A| = 3, and 4 keeps every claim).
    # A three-element set off a coset has |A+A| > 3, so fact1 and ineq1 fail on it and thm1
    # holds; unlike a coset, such a set need not be a translate of its negative or of its
    # other automorphic images, so each violating class must expand by its own members.
    # The verifiers that the per-subset oracle runs read the same fault from
    # theorems.diffset; it takes 1.5 s a claim at order 16, so there it checks one claim.
    kernel = theorems._size_kernel

    def fault(a, d):  # the |A-A| reported for a set of a elements
        return d + 1 if a == 2 else 3 if a == 3 else d

    def faulty(*args):
        sizes = kernel(*args)
        return lambda mask: (lambda s, d: (s, fault(mask.bit_count(), d)))(*sizes(mask))

    def faulty_diffset(A, B):  # a set of that size: A-A and the least element outside it, or A
        D = diffset(A, B)
        return GSet.from_mask(D.group, D.mask | ~D.mask & D.mask + 1) if A.card == 2 else A if A.card == 3 else D

    monkeypatch.setattr(theorems, "_size_kernel", faulty)
    monkeypatch.setattr(theorems, "diffset", faulty_diffset)
    g = GroupSpec(moduli)
    coset = {m: is_coset(GSet.from_mask(g, m)) is not None for m in range(1, 1 << g.order) if m.bit_count() in (2, 3)}
    assert sum(c for m, c in coset.items() if m.bit_count() == 2) == cosets
    for claim in SIZE_CLAIMS:
        bad = [m for m, c in coset.items() if c == (m.bit_count() == 2) and (claim != "thm1" or c)]
        s = sweep_claim(claim, g)
        assert s.total == (1 << g.order) - 1 and s.counts[VIOLATED] == len(bad), claim
        assert s.violations == tuple(str(GSet.from_mask(g, m)) for m in bad[:32]), claim
        if claim in oracle:
            assert s == per_subset_sweep(claim, g), claim


@pytest.mark.parametrize("moduli, cosets", [((12,), 6), ((2, 2, 4), 56)], ids=["Z12", "Z2xZ2xZ4"])
def test_a_planted_fault_reaches_the_claim_cores(monkeypatch, moduli, cosets):
    # on the two-element cosets only, a witness table that drops a difference and a
    # minimizer that reports K = 1/2: thm2, thm3 and thm5 then fail exactly there, in the
    # sweeps' integer cores and in the check_* verifiers that the oracles run, which all
    # read these functions from the theorems namespace. The per-subset oracle takes 7-10 s
    # a claim on Z2xZ2xZ4, so there the exhaustive sweep must equal the sound one with its
    # cosets moved from the equality case to violated
    clean = {claim: sweep_claim(claim, GroupSpec(moduli)) for claim in ("thm2", "thm3", "thm5")}
    table, minimizer = theorems.build_witness_table, theorems.find_minimizer
    planted = lambda A: A.card == 2 and is_coset(A) is not None

    def faulty_table(A):
        t = table(A)
        return replace(t, pairs=dict(islice(t.pairs.items(), 1))) if planted(A) else t

    def faulty_minimizer(A, base, **kw):
        mn = minimizer(A, base, **kw)
        return replace(mn, k=Fraction(1, 2)) if planted(A) else mn

    monkeypatch.setattr(theorems, "build_witness_table", faulty_table)
    monkeypatch.setattr(theorems, "find_minimizer", faulty_minimizer)
    g = GroupSpec(moduli)
    for claim in ("thm2", "thm3", "thm5"):
        s = sweep_claim(claim, g)
        if g.order <= 12:
            assert s == per_subset_sweep(claim, g), claim
        pairs = [m for m in range(1, 1 << g.order) if m.bit_count() == 2 and planted(GSet.from_mask(g, m))]
        counts = clean[claim].counts | {EQUALITY: clean[claim].counts[EQUALITY] - cosets, VIOLATED: cosets}
        assert (s.counts, s.violations) == (counts, tuple(str(GSet.from_mask(g, m)) for m in pairs[:32])), claim
        rng = Random(4)  # a sample's draws: the group's order is within the minimizer cap
        drawn = [GSet.from_mask(g, rng.randrange(1, 1 << g.order)) for _ in range(3000)]
        outcomes = [run_claim(claim, A).outcome for A in drawn]
        bad = tuple(str(A) for A, o in zip(drawn, outcomes) if o == VIOLATED)[:32]
        counts = {o: outcomes.count(o) for o in (HOLDS, EQUALITY, VIOLATED)}
        assert counts[VIOLATED] and sweep_claim(claim, g, sample=3000, seed=4) == SweepSummary(
            claim, g, 3000, counts, bad
        ), claim


@pytest.mark.parametrize("moduli, cosets", [((12,), 28), ((2, 6), 44)], ids=["Z12", "Z2xZ6"])
def test_a_coset_test_that_finds_none_fails_every_coset(monkeypatch, moduli, cosets):
    # the sweeps take the coset flag from theorems.is_coset, on the sets with |A+A| = |A|
    monkeypatch.setattr(theorems, "is_coset", lambda A: None)
    g = GroupSpec(moduli)
    least = sorted(naive_coset_masks(moduli))[:32]
    assert len(naive_coset_masks(moduli)) == cosets
    for claim in ("fact1", "thm1"):
        s = sweep_claim(claim, g)
        assert s.counts == {HOLDS: (1 << g.order) - 1 - cosets, EQUALITY: 0, VIOLATED: cosets}, claim
        assert s.violations == tuple(str(GSet.from_mask(g, m)) for m in least), claim
    assert sweep_claim("ineq1", g).counts[VIOLATED] == 0  # ineq1 reads no coset flag


def test_exhaustive_size_sweeps_build_no_sumset(monkeypatch):
    calls = []
    for module in list(sys.modules.values()):  # every module that imported the kernel
        if module.__name__.startswith("sumdiff") and getattr(module, "sumset", None) is sets.sumset:
            monkeypatch.setattr(module, "sumset", lambda *a, kernel=sets.sumset: calls.append(a) or kernel(*a))
    for g in (GroupSpec((12,)), GroupSpec((2, 6))):
        for claim in SIZE_CLAIMS:
            sweep_claim(claim, g)
    assert calls == []
    run_claim("fact1", gs((12,), [0, 1]))  # the single-set verifier still builds A+A
    assert calls


def test_only_size_sweeps_up_to_the_kernel_order_build_the_kernel(monkeypatch):
    # the kernel's tables grow faster than the order, and a sample may take any order
    built, kernel = [], theorems._size_kernel
    monkeypatch.setattr(theorems, "_size_kernel", lambda *a: built.append(a) or kernel(*a))
    for claim in ("thm2", "thm3", "thm5"):
        sweep_claim(claim, GroupSpec((2, 3)))
        sweep_claim(claim, GroupSpec((6,)), sample=62)
    for claim in theorems.CLAIM_IDS:
        sweep_claim(claim, GroupSpec((65,)), sample=3, cap=8)
        sweep_claim(claim, GroupSpec((2, 33)), sample=3, cap=8)
        run_claim(claim, gs((6,), [0, 1, 3]))
    assert built == [] and theorems._KERNEL_ORDER == 64
    for claim in SIZE_CLAIMS:
        sweep_claim(claim, GroupSpec((2, 3)))
        sweep_claim(claim, GroupSpec((6,)), sample=62)
        sweep_claim(claim, GroupSpec((2, 32)), sample=3)
    assert built == [((2, 3), 6), ((6,), 6), ((2, 32), 64)] * 3


@pytest.mark.parametrize("claim", theorems.CLAIM_IDS)
def test_a_sample_of_the_whole_universe_sweeps_it_exhaustively(claim):
    for g in (GroupSpec((8,)), GroupSpec((2, 3))):
        full = sweep_claim(claim, g)
        universe = (1 << g.order) - 1
        assert sweep_claim(claim, g, sample=universe) == full
        assert sweep_claim(claim, g, sample=universe + 9) == full
        with pytest.raises(ValueError, match=f"^seed 4 needs a sample smaller than the {universe} subsets of "):
            sweep_claim(claim, g, sample=universe, seed=4)


def test_an_exhaustive_sweep_is_refused_above_the_group_cap_before_any_walk(monkeypatch):
    # a sample that covers every subset sweeps exhaustively, so it obeys the group
    # cap as no sample does: Campaign.validate refuses it before Aut(g) or a walk
    calls, source, automorphisms = [], theorems._canonical_masks, GroupSpec.automorphisms
    monkeypatch.setattr(theorems, "_canonical_masks", lambda *a: calls.append("walk") or source(*a))
    monkeypatch.setattr(GroupSpec, "automorphisms", lambda g: calls.append("aut") or automorphisms(g))
    z8 = GroupSpec((8,))
    for sample in (None, 255, 256):
        with pytest.raises(CapExceededError, match="^group order 8 exceeds scan cap 6$"):
            sweep_claim("fact1", z8, group_cap=6, sample=sample)
    with pytest.raises(CapExceededError, match="^group order 64 exceeds scan cap 24$"):  # not an OverflowError
        sweep_claim("fact1", GroupSpec((2, 32)), sample=2**64 - 1)
    with pytest.raises(CapExceededError, match="^group order 26 exceeds scan cap 24$"):
        sweep_claim("thm3", GroupSpec((26,)))  # the group cap before the minimizer cap
    assert calls == []
    assert sweep_claim("fact1", z8, group_cap=6, sample=254).total == 254  # a draw lifts the cap
    assert calls == []


def test_a_seed_needs_a_sweep_that_draws():
    z8 = GroupSpec((8,))
    for sample in (None, 300):  # no sample, and one past the 255 subsets
        with pytest.raises(ValueError, match="^seed 4 needs a sample smaller than the 255 subsets of Z8$"):
            sweep_claim("thm1", z8, sample=sample, seed=4)
    with pytest.raises(ValueError, match="^seed 0 needs"):  # the seed rule before the group cap
        sweep_claim("thm3", GroupSpec((26,)), seed=0)
    assert sweep_claim("thm1", z8, sample=254) == sweep_claim("thm1", z8, sample=254, seed=0)


def test_upper_builds_each_sumset_and_diffset_once(monkeypatch):
    calls, depth = Counter(), [0]
    for name in ("sumset", "diffset"):
        kernel = getattr(sets, name)

        def counted(*args, name=name, kernel=kernel):
            calls[name] += not depth[0]  # the sumset inside diffset is part of the diffset
            depth[0] += 1
            try:
                return kernel(*args)
            finally:
                depth[0] -= 1

        for module in list(sys.modules.values()):  # every module that imported the kernel
            if module.__name__.startswith("sumdiff") and getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted)
    for lit in [[0], [1, 4], [0, 1, 3], [0, 2, 3, 7, 9]]:
        calls.clear()
        check_upper(gs((12,), lit))
        assert calls == {"sumset": 1, "diffset": 1}, lit
