"""Property tests of the mask kernels and the minimizer search against the
residue-tuple oracles."""

from functools import lru_cache
from itertools import product
from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from sumdiff import (
    CLAIM_IDS,
    Campaign,
    GroupSpec,
    GSet,
    InvalidElementError,
    build_injection,
    build_witness_table,
    check_surjective,
    explorer,
    find_minimizer,
    run_claim,
    sumset,
    verify_injective,
)
from sumdiff.groups import _close_under_addition, _map_bits

from oracles import (
    add_idx,
    automorphism_perms,
    int_iterated,
    int_sumset,
    naive_diffset,
    naive_is_coset,
    naive_coset_masks,
    naive_minimizer,
    naive_sumset,
    neg_idx,
    scale_idx,
)

MODULI = st.lists(st.integers(1, 12), min_size=1, max_size=4).filter(lambda m: prod(m) <= 256)


def members(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def mask_of(elements):
    return sum(1 << x for x in set(elements))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(moduli=MODULI, data=st.data())
def test_mask_kernels_match_oracles(moduli, data):
    g = GroupSpec(tuple(moduli))
    mask = data.draw(st.integers(0, g.full_mask), label="mask")
    a = data.draw(st.integers(0, g.order - 1), label="a")
    u = data.draw(st.integers(-13, 13), label="u")
    small = data.draw(st.sets(st.integers(0, g.order - 1), max_size=6), label="small")
    xs = members(mask)
    assert g.shift_mask(mask, a) == mask_of(add_idx(moduli, x, a) for x in xs)
    assert g.neg_mask(mask) == mask_of(neg_idx(moduli, x) for x in xs)
    assert g.scale_mask(mask, u) == mask_of(scale_idx(moduli, x, u) for x in xs)
    got = sumset(GSet.from_mask(g, mask), GSet(g, small))
    assert list(got) == naive_sumset(moduli, xs, small)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(moduli=MODULI, data=st.data())
def test_find_minimizer_matches_naive(moduli, data):
    g = GroupSpec(tuple(moduli))
    element = st.integers(0, g.order - 1)
    A = data.draw(st.sets(element, min_size=1, max_size=5), label="A")
    base = data.draw(st.sets(element, min_size=1, max_size=9), label="base")
    mn = find_minimizer(GSet(g, A), GSet(g, base))
    want = naive_minimizer(tuple(moduli), tuple(sorted(A)), tuple(sorted(base)))
    assert (list(mn.x), mn.k) == want
    assert mn.strict_on_proper_subsets


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(moduli=st.lists(st.integers(1, 8), min_size=1, max_size=4).filter(lambda m: prod(m) <= 64), data=st.data())
def test_translates_match_shift_mask_and_oracle(moduli, data):
    g = GroupSpec(tuple(moduli))
    mask = data.draw(st.sampled_from([0, g.full_mask]) | st.integers(0, g.full_mask), label="mask")
    xs = members(mask)
    got = g.translates(mask)
    assert got == [g.shift_mask(mask, t) for t in g.elements()]
    assert got == [mask_of(add_idx(moduli, x, t) for x in xs) for t in g.elements()]


PRODUCTS = st.lists(st.integers(2, 8), min_size=2, max_size=3).filter(lambda m: prod(m) <= 64)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(moduli=PRODUCTS, mode=st.sampled_from(explorer.MODES), data=st.data())
def test_scan_record_matches_oracles(moduli, mode, data):
    g = GroupSpec(tuple(moduli))
    mask = data.draw(st.integers(1, g.full_mask), label="mask")
    if data.draw(st.booleans(), label="coset"):  # a translate of the subgroup mask generates
        t = data.draw(st.integers(0, g.order - 1), label="t")
        mask = g.shift_mask(_close_under_addition(g, mask), t)
    campaign = Campaign(group=g, mode=mode)
    if mode == explorer.MODE_NONE:  # the one-mask window yields just this mask
        assert list(explorer._canonical_masks(campaign, mask, mask + 1)) == [(mask, 1)]
    r = explorer._recorder(campaign)(mask, 1)
    xs = members(mask)
    assert (r.elements, r.card) == (tuple(xs), len(xs))
    assert r.sum_card == len(naive_sumset(moduli, xs, xs))
    assert r.diff_card == len(naive_diffset(moduli, xs, xs))
    assert r.coset == naive_is_coset(moduli, xs)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(universe=st.sampled_from([(24,), (2, 12), (2, 2, 6), (2, 2, 2, 3), 13, 14, 15, 16]), data=st.data())
def test_size_kernel_matches_oracles_on_wide_masks(universe, data):
    # groups of order 24 and integer windows of width 13-16, in Z_25 to Z_31
    width = universe if isinstance(universe, int) else prod(universe)
    mask = data.draw(st.just((1 << width) - 1) | st.integers(1, (1 << width) - 1), label="mask")
    xs = members(mask)
    if isinstance(universe, int):
        lo = data.draw(st.integers(-20, 20), label="lo")
        r = explorer._recorder(Campaign(ints=(lo, lo + width - 1), mode=explorer.MODE_NONE))(mask, 1)
        pts = [x + lo for x in xs]
        assert r.elements == tuple(pts)
        assert (r.sum_card, r.diff_card) == (len(int_sumset(pts, pts)), len(int_iterated(pts, 1, 1)))
    else:
        sizes = explorer._size_kernel(GroupSpec(universe), width)
        assert sizes(mask) == (len(naive_sumset(universe, xs, xs)), len(naive_diffset(universe, xs, xs)))


coset_masks = lru_cache(maxsize=None)(naive_coset_masks)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(moduli=PRODUCTS, data=st.data())
def test_claim_verdicts_match_coset_oracles(moduli, data):
    g = GroupSpec(tuple(moduli))
    mask = mask_of(data.draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=10), label="A"))
    coset = g.shift_mask(_close_under_addition(g, mask), data.draw(st.integers(0, g.order - 1), label="t"))
    if data.draw(st.booleans(), label="coset") and coset.bit_count() <= 10:
        mask = coset
    xs = members(mask)
    # every mask of the group is enumerated only where that stays small
    want = mask in coset_masks(tuple(moduli)) if g.order <= 12 else naive_is_coset(moduli, xs)
    for claim in CLAIM_IDS:
        outcome = run_claim(claim, GSet(g, xs)).outcome
        assert outcome != "violated", (claim, xs)
        assert (outcome == "equality-case") == want, (claim, xs)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(moduli=PRODUCTS, mode=st.sampled_from(explorer.MODES), data=st.data())
def test_scan_window_records_match_oracles(moduli, mode, data):
    # windows around the representative of a random set: multi-byte bit lists, -a on wide masks
    g = GroupSpec(tuple(moduli))
    mask = data.draw(st.integers(1, g.full_mask), label="mask")
    rep = mask if mode == explorer.MODE_NONE else min(explorer._group_orbit(g, mask, mode))
    lo = max(1, rep - data.draw(st.integers(0, 1 << 9), label="below"))
    hi = min(rep + 1 + data.draw(st.integers(0, 1 << 9), label="above"), g.full_mask + 1)
    records, summary = explorer.scan(Campaign(group=g, mode=mode, group_cap=64), mask_range=(lo, hi))
    masks = [mask_of(r.elements) for r in records]
    assert rep in masks and all(lo <= m < hi for m in masks) and summary.representatives == len(records)
    if mode == explorer.MODE_NONE:
        assert masks == list(range(lo, hi))
    for r in records:
        xs = list(r.elements)
        assert xs == sorted(set(xs)) and r.card == len(xs)
        assert r.sum_card == len(naive_sumset(moduli, xs, xs))
        assert r.diff_card == len(naive_diffset(moduli, xs, xs))
        assert r.coset == naive_is_coset(moduli, xs)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(moduli=st.lists(st.integers(1, 16), min_size=1, max_size=3).filter(lambda m: prod(m) <= 64), data=st.data())
def test_injection_matches_oracle_sums(moduli, data):
    g = GroupSpec(tuple(moduli))
    xs = sorted(data.draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=12), label="A"))
    A = GSet(g, xs)
    pairs = sorted((u, v) for u in xs for v in xs)
    want_witness = {}
    for u, v in pairs:  # ascending, so the first pair seen per difference is the least
        want_witness.setdefault(add_idx(moduli, u, neg_idx(moduli, v)), (u, v))
    table = build_witness_table(A)
    assert table.pairs == want_witness
    inj = build_injection(A)
    assert inj.pairs == {
        (a, w): (add_idx(moduli, a, u), add_idx(moduli, a, v)) for a in xs for w, (u, v) in want_witness.items()
    }
    assert verify_injective(inj)
    assert check_surjective(inj) == naive_is_coset(moduli, xs)
    bad = data.draw(st.sampled_from([-1, g.order, g.order + 5, 1.0, "0", None]), label="bad")
    ok = data.draw(st.integers(0, g.order - 1), label="ok")
    assert g.add(ok, ok) == add_idx(moduli, ok, ok)
    for args in ((bad, ok), (ok, bad)):
        with pytest.raises(InvalidElementError):
            g.add(*args)


PRODUCTS_24 = st.lists(st.integers(2, 12), min_size=2, max_size=4).filter(lambda m: prod(m) <= 24)
EVERY_PRODUCT_24 = [m for k in (2, 3, 4) for m in product(range(2, 13), repeat=k) if prod(m) <= 24]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_byte_tables_apply_every_automorphism(data):
    # a walk applies each automorphism a mask byte at a time; the images must be the bit-by-bit ones
    for moduli in EVERY_PRODUCT_24:
        g = GroupSpec(moduli)
        mask = data.draw(st.integers(0, g.full_mask), label=g.label())
        for table in g.automorphisms():
            t0, t1, t2, t3 = explorer._byte_images(table)
            image = t0[mask & 255] | t1[mask >> 8 & 255] | t2[mask >> 16 & 255] | t3[mask >> 24]
            assert image == _map_bits(table, mask), (table, mask)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(moduli=PRODUCTS_24, data=st.data())
def test_automorphism_orbit_is_closed_under_every_map(moduli, data):
    g = GroupSpec(tuple(moduli))
    mask = data.draw(st.integers(1, g.full_mask), label="mask")
    maps = g.automorphisms()
    orbit = explorer._group_orbit(g, mask, explorer.MODE_FULL_AFFINE, maps)
    assert orbit.issuperset(g.translates(mask))
    for m in orbit:
        assert m.bit_count() == mask.bit_count() and orbit.issuperset(g.translates(m))
        assert all(mask_of(t[x] for x in members(m)) in orbit for t in maps)
        assert all(g.scale_mask(m, u) in orbit for u in g.units())
    if g.order <= 12:  # small enough to apply every x -> f(x) + t
        xs, perms = members(mask), automorphism_perms(tuple(moduli))
        assert orbit == {mask_of(add_idx(moduli, f[x], t) for x in xs) for f in perms for t in range(g.order)}
