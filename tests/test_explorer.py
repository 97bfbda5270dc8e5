import io
import pickle
import math
import random
import re
from itertools import islice
from fractions import Fraction

import pytest

from sumdiff import (
    Campaign,
    CapExceededError,
    GroupSpec,
    GSet,
    MODE_FULL_AFFINE,
    MODE_NONE,
    MODE_TRANSLATION,
    MODE_TRANSLATION_NEGATION,
    PENMAN_WELLS_EXPONENT,
    delta,
    enumerate_canonical,
    exponent_report,
    find_mstd,
    scan,
    sigma,
    write_csv,
)
from sumdiff import explorer, sets
from sumdiff.explorer import CSV_COLUMNS

from oracles import (
    burnside_orbit_count,
    csv_writer_text,
    divisor_coset_count,
    int_iterated,
    int_sumset,
    int_window_representatives,
    naive_coset_masks,
    naive_diffset,
    naive_sumset,
)


def test_canonical_examples():
    reps = list(
        enumerate_canonical(
            Campaign(group=GroupSpec((4,)), min_size=2, max_size=2, mode=MODE_TRANSLATION)
        )
    )
    assert [r.elements() for r in reps] == [(0, 1), (0, 2)]
    reps = list(
        enumerate_canonical(
            Campaign(group=GroupSpec((3,)), min_size=2, max_size=2)
        )
    )
    assert len(reps) == 1
    reps = list(enumerate_canonical(Campaign(group=GroupSpec((9,)), max_size=1)))
    assert [r.elements() for r in reps] == [(0,)]


def test_canonical_orbit_members_share_statistics():
    g = GroupSpec((8,))
    rng = random.Random(5)
    for _ in range(30):
        A = GSet.from_mask(g, rng.randrange(1, 256))
        s, d = sigma(A), delta(A)
        for t in g.elements():
            for img in (A.translate(t), A.negate().translate(t)):
                assert sigma(img) == s and delta(img) == d


def test_scan_weighted_counts_match_no_dedup():
    g = GroupSpec((8,))
    _, with_dedup = scan(Campaign(group=g, mode=MODE_TRANSLATION_NEGATION))
    _, no_dedup = scan(Campaign(group=g, mode=MODE_NONE))
    assert with_dedup.universe == no_dedup.universe == 255
    assert with_dedup.counts == no_dedup.counts


def test_scan_census_z12_and_z10():
    _, s12 = scan(Campaign(group=GroupSpec((12,))))
    assert s12.universe == 4095
    assert s12.counts["coset"] == 28 == divisor_coset_count(12)
    assert s12.counts["eq_upper"] == 28 and s12.counts["eq_lower"] == 28
    _, s10 = scan(Campaign(group=GroupSpec((10,))))
    assert s10.counts["coset"] == 18


def test_scan_exponent_down_below_two():
    for n in (8, 10, 12):
        _, summary = scan(Campaign(group=GroupSpec((n,))))
        if summary.max_exponent_down is not None:
            assert summary.max_exponent_down < 2


def test_record_flags_consistent():
    records, _ = scan(Campaign(group=GroupSpec((10,))))
    for r in records:
        assert r.mstd == (r.sum_card > r.diff_card)
        assert r.balanced == (r.sum_card == r.diff_card)
        assert r.eq_upper == (r.diff_card * r.card == r.sum_card**2)
        assert r.eq_lower == (r.sum_card * r.card == r.diff_card**2)
        assert not (r.mstd and r.coset)
        assert r.sigma.numerator * r.card == r.sum_card * r.sigma.denominator
        # eq. (1) holds for every record
        assert r.diff_card * r.card <= r.sum_card**2
        assert r.sum_card * r.card <= r.diff_card**2


def test_full_affine_mode_runs():
    c = Campaign(group=GroupSpec((8,)), mode=MODE_FULL_AFFINE)
    records, summary = scan(c)
    assert summary.universe == 255
    assert summary.counts["coset"] == 15
    assert summary.representatives <= 36  # affine orbits are at least as coarse


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign().validate()
    with pytest.raises(ValueError):
        Campaign(group=GroupSpec((4,)), ints=(0, 3)).validate()
    with pytest.raises(CapExceededError):
        Campaign(group=GroupSpec((30,))).validate()
    with pytest.raises(CapExceededError):
        Campaign(ints=(0, 20)).validate()
    with pytest.raises(ValueError):
        Campaign(ints=(0, 5), mode="bogus").validate()
    # min_size=1.5 would scan sizes 2..6 and call itself sizes=1.5..6; ints=(0.5, 3) would die inside the scan
    for campaign, message in (
        (Campaign(group=GroupSpec((6,)), min_size=1.5), "min_size must be an integer, got 1.5"),
        (Campaign(group=GroupSpec((6,)), max_size=4.0), "max_size must be an integer, got 4.0"),
        (Campaign(ints=(0.5, 3)), "ints[0] must be an integer, got 0.5"),
        (Campaign(ints=(0, "3")), "ints[1] must be an integer, got '3'"),
        (Campaign(group=GroupSpec((6,)), group_cap=24.0), "group_cap must be an integer, got 24.0"),
        (Campaign(ints=(0, 3), width_cap=None), "width_cap must be an integer, got None"),
    ):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            scan(campaign)
    Campaign(group=GroupSpec((6,)), max_size=None).validate()  # no upper bound


@pytest.mark.parametrize("window", [{"group": GroupSpec((6,))}, {"ints": (0, 5)}], ids=["Z6", "ints"])
def test_empty_size_window_is_rejected(window):
    with pytest.raises(ValueError, match="^min_size must be >= 1, got 0$"):
        scan(Campaign(min_size=0, **window))
    with pytest.raises(ValueError, match="empty size window 3..2"):
        scan(Campaign(min_size=3, max_size=2, **window))
    with pytest.raises(ValueError, match="empty size window 3..2"):
        find_mstd(min_size=3, max_size=2, **window)
    with pytest.raises(ValueError, match="empty size window 1..0"):
        next(enumerate_canonical(Campaign(max_size=0, **window)))
    with pytest.raises(ValueError, match="min_size 7 exceeds the universe's 6 elements"):
        scan(Campaign(min_size=7, **window))
    with pytest.raises(ValueError, match="min_size 9 exceeds the universe's 6 elements"):
        find_mstd(min_size=9, **window)
    with pytest.raises(ValueError, match="min_size 7 exceeds the universe's 6 elements"):
        next(enumerate_canonical(Campaign(min_size=7, **window)))
    assert len(list(enumerate_canonical(Campaign(min_size=3, max_size=3, **window)))) > 0


def test_find_mstd_classical_window():
    records = find_mstd(ints=(0, 14), max_size=8)
    assert any(r.elements == (0, 2, 3, 4, 7, 11, 12, 14) for r in records)
    best = records[0]
    assert best.sum_card - best.diff_card == max(r.sum_card - r.diff_card for r in records)
    for r in records:
        assert r.sum_card > r.diff_card
        # re-verify against the direct integer oracle
        assert r.sum_card == len(int_iterated(r.elements, 2, 0))
        assert r.diff_card == len(int_iterated(r.elements, 1, 1))


def test_find_mstd_none_below_width_eight():
    assert find_mstd(ints=(0, 7)) == []
    for n in range(1, 8):
        assert find_mstd(group=GroupSpec((n,))) == []
    assert find_mstd(group=GroupSpec((2, 3))) == []


def test_find_mstd_sorts_by_surplus_then_mask():
    # Z20 has two surpluses: two sets of 2 and 134 of 1
    records = find_mstd(group=GroupSpec((20,)))
    keys = [(r.diff_card - r.sum_card, sum(1 << e for e in r.elements)) for r in records]
    assert {-s for s, _ in keys} == {1, 2}
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "fields", [{"group": GroupSpec((20,))}, {"ints": (0, 15)}], ids=["Z20", "ints0..15"]
)
def test_find_mstd_min_size_filters_in_order(fields):
    records = find_mstd(**fields)  # cards 8-10 on Z20, 8-9 on the window
    for k in (8, 9, 10):
        assert find_mstd(min_size=k, **fields) == [r for r in records if r.card >= k]


def test_find_mstd_takes_no_mstd_only():
    with pytest.raises(TypeError):
        find_mstd(group=GroupSpec((8,)), mstd_only=False)


def test_int_scan_modes_cover_window():
    # dedup x orbit-size == raw count over the window
    _, none = scan(Campaign(ints=(0, 9), mode=MODE_NONE))
    _, tn = scan(Campaign(ints=(0, 9), mode=MODE_TRANSLATION_NEGATION))
    _, tr = scan(Campaign(ints=(0, 9), mode=MODE_TRANSLATION))
    assert none.universe == tn.universe == tr.universe == 1023
    assert none.counts == tn.counts == tr.counts


def test_exponent_report_content():
    records = find_mstd(ints=(0, 14), max_size=8)
    rep = exponent_report(records)
    txt = rep.render()
    assert "1.12594" in txt
    classical = math.log(26 / 8) / math.log(25 / 8)
    assert rep.max_exponent_up == pytest.approx(classical, abs=1e-12)
    assert abs(PENMAN_WELLS_EXPONENT - 1.12594) < 5e-6


def test_exponent_report_all_cosets():
    records, _ = scan(Campaign(group=GroupSpec((4,)), max_size=1))
    rep = exponent_report(records)
    assert rep.max_exponent_up is None
    assert "no non-coset sets; exponent undefined" in rep.render()
    with pytest.raises(ValueError):
        exponent_report([])


def test_csv_output_schema_and_determinism():
    records, _ = scan(Campaign(group=GroupSpec((6,))))
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(records, buf, Campaign(group=GroupSpec((6,))))
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0].startswith("# sumdiff ")
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + len(records)


CSV_CAMPAIGNS = [
    Campaign(group=GroupSpec((2, 8))),
    Campaign(ints=(-5, 6), mode=MODE_TRANSLATION),
    Campaign(ints=(-6, 6), mode=MODE_NONE, max_size=3),
    Campaign(group=GroupSpec((3, 6)), mstd_only=True),
]


@pytest.mark.parametrize("campaign", [*CSV_CAMPAIGNS, None], ids=lambda c: c.describe() if c else "no-campaign")
def test_write_csv_matches_csv_writer(campaign):
    records = scan(campaign)[0] if campaign else []
    if campaign and campaign.mstd_only:
        assert records and all(r.mstd for r in records)
    buf = io.StringIO()
    write_csv(iter(records), buf, campaign)  # any iterable, read once
    # lines with their ends join back to the text: equal lists are equal bytes, and diff faster
    assert buf.getvalue().splitlines(True) == csv_writer_text(records, campaign).splitlines(True)


def test_write_csv_quotes_labels_as_csv_writer_does():
    labels = ["", "a,b", 'say "hi"', "cr\rlf\r\n", "lf\nonly", ",", '"', "Z7", " padded "]
    records = [
        explorer.SearchRecord(label, elements, 3, 5, 7, False, 1)
        for label in labels
        for elements in [(), (4,), (-2,), (-1, 0, 9)]
    ]
    buf = io.StringIO()
    write_csv(records, buf)
    assert buf.getvalue() == csv_writer_text(records)


def test_scan_partitioning_and_threads():
    c = Campaign(group=GroupSpec((12,)))
    full, s_full = scan(c)
    a, _ = scan(c, mask_range=(1, 2048))
    b, _ = scan(c, mask_range=(2048, 1 << 12))
    assert a + b == full
    par, s_par = scan(c, threads=2)
    assert par == full and s_par == s_full


@pytest.mark.parametrize(
    "campaign", [Campaign(group=GroupSpec((6,))), Campaign(group=GroupSpec((2, 3))), Campaign(ints=(0, 5))],
    ids=lambda c: c.describe(),
)
def test_mask_range_must_start_below_the_last_mask(campaign):
    assert scan(campaign, mask_range=(0, 1 << 20)) == scan(campaign)  # an HI past the end is clamped
    assert scan(campaign, mask_range=(63, 63))[1].representatives == 0  # an empty window is no error
    with pytest.raises(ValueError, match="^mask range 5:2 ends before it starts$"):
        scan(campaign, mask_range=(5, 2))
    for lo in (64, 99999):
        past = rf"^mask range {lo}:{2 * lo} starts past the last mask: LO must be below 2\^6 = 64$"
        with pytest.raises(ValueError, match=past):
            scan(campaign, mask_range=(lo, 2 * lo))


BURNSIDE_GROUPS = [(n,) for n in range(1, 13)] + [(2, 4), (2, 6), (3, 3), (2, 2, 2), (2, 8)]


@pytest.mark.parametrize("mode", explorer.MODES)
@pytest.mark.parametrize("moduli", BURNSIDE_GROUPS, ids=lambda m: "x".join(f"Z{n}" for n in m))
def test_scan_matches_burnside(moduli, mode):
    g = GroupSpec(moduli)
    n = g.order
    windows = [(1, None)] + ([(3, 5)] if n >= 5 else [])
    for lo, hi in windows:
        records, summary = scan(Campaign(group=g, mode=mode, min_size=lo, max_size=hi))
        assert summary.representatives == burnside_orbit_count(moduli, mode, lo, hi)
        subsets = sum(math.comb(n, k) for k in range(lo, (n if hi is None else hi) + 1))
        assert sum(r.orbit_size for r in records) == summary.universe == subsets


NECKLACE_MODES = [MODE_TRANSLATION, MODE_TRANSLATION_NEGATION, MODE_FULL_AFFINE]


@pytest.mark.parametrize("mode", NECKLACE_MODES)
@pytest.mark.parametrize("n", range(1, 19))
def test_necklaces_match_the_visited_walk(n, mode):
    g = GroupSpec((n,))
    cuts = [(1, 1 << n), (1 << n // 2, (1 << n) - (1 << n // 3)), (3, 1 << n - 1)]
    for min_size, max_size in [(1, None), (2, max(2, n // 2)), (n // 2 + 1, n)]:
        campaign = Campaign(group=g, mode=mode, min_size=min_size, max_size=max_size)
        for lo, hi in cuts:
            keep = explorer._sizes(campaign)
            want = list(explorer._orbit_walk(campaign, keep, lo, hi))
            assert list(explorer._necklaces(campaign, keep, lo, hi)) == want


@pytest.mark.parametrize("mode", NECKLACE_MODES)
@pytest.mark.parametrize("n", range(13, 23))
def test_necklaces_count_every_orbit_once(n, mode):
    campaign = Campaign(group=GroupSpec((n,)), mode=mode)
    sizes = [size for _, size in explorer._canonical_masks(campaign, 1, 1 << n)]
    assert len(sizes) == burnside_orbit_count((n,), mode)
    assert sum(sizes) == (1 << n) - 1


def _label(moduli):
    return "x".join(f"Z{n}" for n in moduli)


BLOCK_GROUPS = [
    *((p, q) for p in range(2, 9) for q in range(2, 9) if p * q <= 16),
    *((p, q, r) for p in range(2, 5) for q in range(2, 5) for r in range(2, 5) if p * q * r <= 16),
    (3, 6), (6, 3), (2, 3, 3), (4, 1), (1, 4), (2, 1, 3),
]


@pytest.mark.parametrize("mode", [MODE_TRANSLATION, MODE_TRANSLATION_NEGATION])
@pytest.mark.parametrize("moduli", BLOCK_GROUPS, ids=_label)
def test_block_necklaces_match_the_visited_walk(moduli, mode):
    # the walk's windows concatenate (test_windows_and_chunks_concatenate), so on each window and size
    # table it yields the pairs of one whole walk that lie in the window and have a size in the table
    g = GroupSpec(moduli)
    n = g.order
    walk = list(explorer._orbit_walk(Campaign(group=g, mode=mode), bytes([0] + [1] * n), 1, 1 << n))
    cuts = [(1, 1 << n), (1 << n // 2, (1 << n) - (1 << n // 3)), (3, 1 << n - 1)]
    for min_size, max_size in [(1, None), (2, max(2, n // 2)), (n // 2 + 1, n)]:
        campaign = Campaign(group=g, mode=mode, min_size=min_size, max_size=max_size)
        keep = explorer._sizes(campaign)
        for lo, hi in cuts:
            want = [(mask, size) for mask, size in walk if lo <= mask < hi and keep[mask.bit_count()]]
            assert list(explorer._block_necklaces(campaign, keep, lo, hi)) == want


@pytest.mark.parametrize("mode", [MODE_TRANSLATION, MODE_TRANSLATION_NEGATION])
@pytest.mark.parametrize("moduli", [(8, 8), (2, 4, 8), (4, 4, 4), (8, 2, 4), (2, 32)], ids=_label)
def test_block_necklaces_match_the_walk_on_windows_of_order_64(moduli, mode):
    rng, campaign = random.Random(30), Campaign(group=GroupSpec(moduli), mode=mode, group_cap=64)
    keep, found = explorer._sizes(campaign), 0
    for _ in range(4):  # windows of 512 masks from the least translate of a random set
        lo = min(campaign.group.translates(rng.getrandbits(64) | 1))
        hi = min(lo + 512, 1 << 64)
        want = list(explorer._orbit_walk(campaign, keep, lo, hi))
        assert list(explorer._block_necklaces(campaign, keep, lo, hi)) == want
        found += len(want)
    assert found


@pytest.mark.parametrize("mode", [MODE_TRANSLATION, MODE_TRANSLATION_NEGATION])
@pytest.mark.parametrize("moduli", [(2, 10), (5, 4), (2, 2, 5), (3, 7), (11, 2)], ids=_label)
def test_block_necklaces_count_every_orbit_once(moduli, mode):
    n = math.prod(moduli)
    sizes = [size for _, size in explorer._canonical_masks(Campaign(group=GroupSpec(moduli), mode=mode), 1, 1 << n)]
    assert len(sizes) == burnside_orbit_count(moduli, mode)
    assert sum(sizes) == (1 << n) - 1


def _products(order_cap, factors=()):
    """Every tuple of two or more moduli of at least 2 that extends ``factors``, of product at most ``order_cap``."""
    for n in range(2, order_cap // math.prod(factors) + 1):
        if factors:
            yield (*factors, n)
        yield from _products(order_cap, (*factors, n))


# the products of order <= 16 whose only units are +-1 (exponent 2, 3, 4 or 6), and three with a factor of 1
UNIT_PM1_PRODUCTS = [m for m in _products(16) if math.lcm(*m) in (2, 3, 4, 6)] + [(4, 1), (1, 4), (2, 1, 3)]


@pytest.mark.parametrize("moduli", UNIT_PM1_PRODUCTS, ids=_label)
def test_unit_pm1_full_affine_masks_match_the_walk(moduli):
    # scalings by +-1 only: the full-affine orbits are translation+negation classes, from the block generator
    g = GroupSpec(moduli)
    n = g.order
    assert set(g.units()) <= {1, g.exponent - 1}
    assert not explorer._walks(Campaign(group=g, mode=MODE_FULL_AFFINE), 1, 1 << n)
    for min_size, max_size in [(1, None), (2, max(2, n // 2))]:
        campaign = Campaign(group=g, mode=MODE_FULL_AFFINE, min_size=min_size, max_size=max_size)
        keep = explorer._sizes(campaign)
        for lo, hi in [(1, 1 << n), (300, min(2900, 1 << n))]:
            want = list(explorer._orbit_walk(campaign, keep, lo, hi))
            assert list(explorer._canonical_masks(campaign, lo, hi)) == want


@pytest.mark.parametrize(
    "moduli, mode",
    [
        ((20,), MODE_TRANSLATION_NEGATION),
        ((20,), MODE_FULL_AFFINE),
        ((2, 10), MODE_TRANSLATION),
        ((2, 10), MODE_TRANSLATION_NEGATION),
        ((4, 5), MODE_FULL_AFFINE),  # a walk: units 1, 3, 7, 9, 11, 13, 17 and 19
        ((3, 6), MODE_FULL_AFFINE),  # block necklaces: units +-1
    ],
    ids=lambda v: v if isinstance(v, str) else _label(v),
)
def test_scans_of_order_18_and_20_match_burnside(moduli, mode):
    records, summary = scan(Campaign(group=GroupSpec(moduli), mode=mode), threads=2)
    assert len(records) == summary.representatives == burnside_orbit_count(moduli, mode)
    assert summary.universe == (1 << math.prod(moduli)) - 1


WINDOW_CUTS = (1, 7, 300, 1500, 2900, 1 << 12)  # five uneven windows


def _int_orbit(campaign, elements):
    """The masks of the class of an integer-window set: its translates and, outside
    mode translation, its mirror's."""
    lo, hi = campaign.ints
    images = [elements] if campaign.mode == MODE_TRANSLATION else [elements, [max(elements) - x for x in elements]]
    return {sum(1 << x - min(A) + k for x in A) for A in images for k in range(hi - lo + 1 - max(A) + min(A))}


@pytest.mark.parametrize("mode", explorer.MODES)
@pytest.mark.parametrize(
    "universe", [{"group": GroupSpec((12,))}, {"group": GroupSpec((2, 6))}, {"ints": (-3, 8)}],
    ids=["Z12", "Z2xZ6", "ints-3..8"],
)
def test_windows_and_chunks_concatenate(universe, mode):
    campaign = Campaign(mode=mode, **universe)
    full, summary = scan(campaign)
    windows = list(zip(WINDOW_CUTS, WINDOW_CUTS[1:]))
    parts = [scan(campaign, mask_range=w)[0] for w in windows]
    assert [r for part in parts for r in part] == full
    if mode != MODE_NONE:
        # every cut splits some orbit: its least member lies in an earlier window
        g = campaign.group
        orbits = [
            explorer._group_orbit(g, sum(1 << e for e in r.elements), mode) if g else _int_orbit(campaign, r.elements)
            for r in full
        ]
        for cut in WINDOW_CUTS[1:-1]:
            assert any(min(orbit) < cut <= max(orbit) for orbit in orbits)
    assert scan(campaign, threads=2) == (full, summary)


@pytest.mark.parametrize("mode", explorer.MODES)
def test_int_window_source_matches_the_per_mask_rule(mode):
    rng = random.Random(31)
    for width in range(1, 13):
        for _ in range(6):
            min_size = rng.randint(1, width)
            max_size = rng.choice([None, rng.randint(min_size, width)])
            lo = rng.choice([0, 1, rng.randrange(1 << width)])
            hi = rng.choice([1 << width, rng.randrange(lo, (1 << width) + 2), (1 << width) + rng.randrange(1, 99)])
            campaign = Campaign(ints=(-2, width - 3), mode=mode, min_size=min_size, max_size=max_size)
            sizes = range(min_size, (max_size or width) + 1)
            want = int_window_representatives(width, mode, sizes, lo, hi)
            assert list(explorer._canonical_masks(campaign, lo, min(hi, 1 << width))) == want
            records, _ = scan(campaign, mask_range=(lo, hi))  # which clamps an HI past 2^W
            assert [(sum(1 << x + 2 for x in r.elements), r.orbit_size) for r in records] == want


@pytest.mark.parametrize("mode", explorer.MODES[1:])
def test_int_window_source_reads_only_its_range_of_a_wide_window(mode):
    # a table over every inner mask of a 40-wide window, 2^38 of them, would not fit in memory
    rng = random.Random(32)
    for width in (20, 40):
        for _ in range(3):
            lo = rng.randrange(1 << width - 1, (1 << width) - 3000)
            campaign = Campaign(ints=(0, width - 1), mode=mode, width_cap=width)
            want = int_window_representatives(width, mode, range(1, width + 1), lo, lo + 3000)
            assert want and list(explorer._canonical_masks(campaign, lo, lo + 3000)) == want


def test_int_records_match_oracles():
    lo = -4
    campaign = Campaign(ints=(lo, lo + 9), mode=MODE_NONE)
    masks = explorer._canonical_masks(campaign, 1, 1 << 10)
    for want, (mask, orbit_size) in enumerate(masks, 1):
        assert (mask, orbit_size) == (want, 1)
        r = explorer._recorder(campaign)(mask, orbit_size)
        pts = [b + lo for b in range(10) if mask >> b & 1]
        assert r.elements == tuple(pts)
        assert r.sum_card == len(int_sumset(pts, pts))
        assert r.diff_card == len(int_iterated(pts, 1, 1))
        assert r.coset == (len(pts) == 1)


@pytest.mark.parametrize("moduli", [(9,), (2, 4), (3, 3)], ids=["Z9", "Z2xZ4", "Z3xZ3"])
def test_records_match_naive_oracles_on_every_mask(moduli):
    # mode none records every mask; the records of the orbit modes, whose scans
    # reach only representatives, are checked on every mask too
    g = GroupSpec(moduli)
    cosets = naive_coset_masks(moduli)
    want = {}
    for mask in range(1, 1 << g.order):
        A = [x for x in g.elements() if mask >> x & 1]
        sizes = len(naive_sumset(moduli, A, A)), len(naive_diffset(moduli, A, A))
        want[mask] = (g.label(), tuple(A), len(A), *sizes, mask in cosets)
    for mode in explorer.MODES:
        campaign = Campaign(group=g, mode=mode)
        records, _ = scan(campaign)
        for r in records:
            mask = sum(1 << x for x in r.elements)
            assert (r.group, r.elements, r.card, r.sum_card, r.diff_card, r.coset) == want[mask]
        if mode == MODE_NONE:
            assert len(records) == len(want)
            continue
        for mask, expected in want.items():
            r = explorer._recorder(campaign)(mask, 1)
            assert (r.group, r.elements, r.card, r.sum_card, r.diff_card, r.coset) == expected


KERNEL_GROUPS = [(n,) for n in range(1, 13)] + [(2, 4), (3, 3), (2, 2, 2), (2, 2, 3)]


@pytest.mark.parametrize("moduli", KERNEL_GROUPS, ids=lambda m: "x".join(f"Z{n}" for n in m))
def test_size_kernel_matches_oracles_on_every_mask(moduli):
    g = GroupSpec(moduli)
    sizes = explorer._size_kernel(moduli, g.order)
    for mask in range(1, 1 << g.order):
        A = [x for x in g.elements() if mask >> x & 1]
        assert sizes(mask) == (len(naive_sumset(moduli, A, A)), len(naive_diffset(moduli, A, A))), mask


@pytest.mark.parametrize("lo", [0, -5])
def test_size_kernel_matches_oracles_on_integer_windows(lo):
    # a window of width W lives in Z_{2W-1}: its sums and differences do not wrap there
    for width in range(1, 13):
        record = explorer._recorder(Campaign(ints=(lo, lo + width - 1), mode=MODE_NONE))
        for mask in range(1, 1 << width):
            pts = [b + lo for b in range(width) if mask >> b & 1]
            r = record(mask, 1)
            want = tuple(pts), len(int_sumset(pts, pts)), len(int_iterated(pts, 1, 1))
            assert (r.elements, r.sum_card, r.diff_card) == want, (width, mask)


@pytest.mark.parametrize("universe", [(2, 4), (2, 2, 3), (24,), (2, 12), (2, 2, 6), (2, 2, 2, 3), 1, 13, 16])
def test_size_kernel_counts_the_full_set(universe):
    # every field of A+A and A+rev(A) then counts the most pairs it can
    if isinstance(universe, int):
        r = explorer._recorder(Campaign(ints=(0, universe - 1), mode=MODE_NONE))((1 << universe) - 1, 1)
        assert (r.sum_card, r.diff_card) == (2 * universe - 1, 2 * universe - 1)
    else:
        g = GroupSpec(universe)
        assert explorer._size_kernel(universe, g.order)(g.full_mask) == (g.order, g.order)


def test_integer_windows_build_no_translates(monkeypatch):
    def refuse(*args):
        raise AssertionError("a scan built a translate table")

    monkeypatch.setattr(GroupSpec, "translates", refuse)
    for mode in explorer.MODES:
        _, summary = scan(Campaign(ints=(-3, 8), mode=mode))
        assert summary.universe == 4095


def test_scans_never_call_the_sumset_kernels(monkeypatch):
    def refuse(*args):
        raise AssertionError("a scan called a sumset kernel")

    monkeypatch.setattr(sets, "sumset", refuse)
    monkeypatch.setattr(sets, "diffset", refuse)
    # explorer holds no name of its own that would dodge the patch
    assert not hasattr(explorer, "sumset") and not hasattr(explorer, "diffset")
    with pytest.raises(AssertionError):
        GSet(GroupSpec((4,)), [1]) + GSet(GroupSpec((4,)), [2])
    for mode in explorer.MODES:
        _, summary = scan(Campaign(group=GroupSpec((12,)), mode=mode))
        assert summary.universe == 4095 and summary.counts["coset"] == 28
        _, summary = scan(Campaign(ints=(0, 9), mode=mode))
        assert summary.universe == 1023 and summary.counts["coset"] == 10


# -- one stream per scan, whatever the worker count ------------------------------


def _mask(r):
    return sum(1 << x for x in r.elements)


def _walk_campaign(campaign):
    """Whether a scan's orbits come from the visited walk: a product group's full-affine orbits when
    it has units other than +-1. The necklace generators (every mode of a cyclic group but none, a
    product's translation and translation+negation modes, and its full-affine mode when its exponent
    is 1, 2, 3, 4 or 6), mode none and integer windows build no orbit."""
    g = campaign.group
    product = g is not None and len(g.moduli) > 1
    return product and campaign.mode == MODE_FULL_AFFINE and g.exponent not in (1, 2, 3, 4, 6)


@pytest.mark.parametrize("mode", explorer.MODES)
@pytest.mark.parametrize("moduli", [(12,), (2, 6), (3, 4)], ids=_label)
def test_a_walk_builds_each_orbit_once(monkeypatch, moduli, mode):
    calls = {"orbit": 0, "translates": 0}
    orbit, translates = explorer._group_orbit, GroupSpec.translates

    def counted_orbit(*args):
        calls["orbit"] += 1
        return orbit(*args)

    def counted_translates(g, mask):  # the group's own: the block generator maps blocks by its first factors'
        calls["translates"] += g.moduli == moduli
        return translates(g, mask)

    monkeypatch.setattr(explorer, "_group_orbit", counted_orbit)
    monkeypatch.setattr(GroupSpec, "translates", counted_translates)
    campaign = Campaign(group=GroupSpec(moduli), mode=mode)
    _, summary = scan(campaign)
    if _walk_campaign(campaign):  # Z3xZ4 full-affine: one orbit per representative
        assert calls["orbit"] == summary.representatives
        assert summary.representatives <= calls["translates"]
    else:  # records read their sizes from the kernel, not from translate tables
        assert calls == {"orbit": 0, "translates": 0}


WALK_AND_BLOCK_MODES = (MODE_TRANSLATION_NEGATION, MODE_FULL_AFFINE)
THREADS_CAMPAIGNS = [
    *(Campaign(group=GroupSpec(m), mode=mode) for m in [(12,), (2, 6), (3, 4)] for mode in explorer.MODES),
    *(Campaign(ints=(0, 11), mode=mode) for mode in explorer.MODES),
    *(Campaign(group=GroupSpec(m), mode=mode, min_size=3, max_size=7) for m in [(2, 6), (3, 4)]
      for mode in WALK_AND_BLOCK_MODES),
    *(Campaign(group=GroupSpec((3, 4)), mode=mode, min_size=4, max_size=5) for mode in WALK_AND_BLOCK_MODES),
    Campaign(ints=(0, 11), min_size=5, max_size=6),
    Campaign(group=GroupSpec((12,)), mstd_only=True),
]


@pytest.mark.parametrize("mask_range", [None, (300, 2900)], ids=["full", "window"])
@pytest.mark.parametrize("campaign", THREADS_CAMPAIGNS, ids=lambda c: c.describe())
def test_threads_do_not_change_a_scan(campaign, mask_range):
    serial = scan(campaign, mask_range=mask_range)
    masks = [_mask(r) for r in serial[0]]
    assert masks == sorted(masks)
    n = campaign.width()
    lo, hi = mask_range or (1, 1 << n)
    assert all(lo <= m < hi for m in masks)
    for threads in (2, 3, 64):
        assert scan(campaign, threads=threads, mask_range=mask_range) == serial


def test_find_mstd_takes_any_worker_count():
    fields = dict(group=GroupSpec((3, 4)), mode=MODE_FULL_AFFINE, max_size=8)  # a walk: full-affine orbits
    mstd = find_mstd(**fields)
    assert mstd and all(r.mstd for r in mstd)
    for threads in (2, 64):
        assert find_mstd(threads=threads, **fields) == mstd


@pytest.mark.parametrize(
    "moduli, mode",
    [
        ((12,), MODE_TRANSLATION_NEGATION),
        ((3, 4), MODE_FULL_AFFINE),
        ((2, 6), MODE_FULL_AFFINE),
        ((2, 6), MODE_TRANSLATION_NEGATION),
    ],
    ids=["Z12-necklaces", "Z3xZ4-walk", "Z2xZ6-full-affine-blocks", "Z2xZ6-blocks"],
)
def test_a_full_scan_that_misses_an_orbit_raises(monkeypatch, moduli, mode):
    # a source that drops its first pair, the singletons
    campaign = Campaign(group=GroupSpec(moduli), mode=mode)
    window = scan(campaign, mask_range=(1, 300))
    source = explorer._canonical_masks
    monkeypatch.setattr(explorer, "_canonical_masks", lambda *a: islice(source(*a), 1, None))
    full = f"^full scan of {re.escape(campaign.describe())} weighed {4095 - 12} subsets, not 4095$"
    with pytest.raises(RuntimeError, match=full):
        scan(campaign)
    with pytest.raises(RuntimeError, match=full):
        scan(campaign, threads=2, mask_range=(0, 1 << 20))  # clamped to the full range
    assert scan(campaign, mask_range=(1, 300))[0] == window[0][1:]  # a window is not checked


@pytest.mark.parametrize("threads", [1, 2])
def test_exponent_ties_come_in_mask_order(threads):
    # above half the group A+A = A-A = Z2xZ8, so every non-coset ties at exponent 1; Z2xZ8's
    # full-affine orbits come from the walk
    records, summary = scan(Campaign(group=GroupSpec((2, 8)), mode=MODE_FULL_AFFINE, min_size=9), threads=threads)
    non_coset = [r for r in records if not r.coset]
    assert len(non_coset) == summary.representatives - 1  # Z2xZ8 itself is the one coset
    assert summary.max_exponent_up == summary.max_exponent_down == 1.0
    literals = tuple(r.set_literal() for r in non_coset)
    assert summary.argmax_up == summary.argmax_down == literals
    assert [_mask(r) for r in non_coset] == sorted(map(_mask, non_coset))
    assert exponent_report(records).argmax == tuple(non_coset)


def test_search_record_has_slots_and_pickles():
    records, _ = scan(Campaign(group=GroupSpec((2, 6)), mode=MODE_NONE))
    for r in records[::97]:
        assert not hasattr(r, "__dict__")
        assert pickle.loads(pickle.dumps(r)) == r


def test_scan_records_keep_the_frozen_dataclass_contract():
    import dataclasses

    records, _ = scan(Campaign(ints=(-2, 7), mode=MODE_NONE))
    for r in records[::37]:
        built = explorer.SearchRecord(*(getattr(r, f.name) for f in dataclasses.fields(r)))
        assert type(r) is explorer.SearchRecord and r == built and hash(r) == hash(built) and repr(r) == repr(built)
        assert not hasattr(r, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.card = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.orbit_size
        assert dataclasses.asdict(r) == dataclasses.asdict(built)
        other = dataclasses.replace(r, orbit_size=r.orbit_size + 1)
        assert other != r and other.elements == r.elements and other.orbit_size == r.orbit_size + 1


def test_ratios_reduce_as_fractions():
    # sigma's columns read only s and delta's only d, so pairing each s with two d's
    # (itself and its mirror in the range) covers every (card, s) and every (card, d)
    for card in range(1, 25):
        span = range(card, 24 * card + 1)
        for s, d in [*zip(span, span), *zip(span, reversed(span))]:
            r = explorer.SearchRecord("Z", (), card, s, d, False, 1)
            want = [Fraction(s, card).as_integer_ratio(), Fraction(d, card).as_integer_ratio()]
            assert [r.csv_row()[5:7], r.csv_row()[7:9]] == want
            got = r.to_json_dict()
            assert [tuple(got["sigma"]), tuple(got["delta"])] == want


def test_csv_columns_are_the_record_properties():
    # eq_upper and eq_lower differ off the cosets, e.g. |A| = 2, |A+A| = 4, |A-A| = 8
    for card in range(1, 9):
        for s in range(card, 4 * card + 1):
            for d in range(card, 4 * card + 1):
                for coset in (False, True):
                    r = explorer.SearchRecord("Z", (0, card), card, s, d, coset, 1)
                    flags = r.coset, r.mstd, r.eq_upper, r.eq_lower
                    want = ("Z", f"0,{card}", card, s, d, *r.sigma.as_integer_ratio(), *r.delta.as_integer_ratio())
                    assert r.csv_row() == (*want, *(str(f).lower() for f in flags))
    for cache in (explorer._csv_tail, explorer._csv_field):  # the caches write_csv reads
        assert cache.cache_info().currsize <= cache.cache_info().maxsize <= 4096


@pytest.mark.parametrize(
    "campaign", [Campaign(group=GroupSpec((14,)), min_size=8), Campaign(ints=(0, 13))], ids=["Z14-ties", "ints0..13"]
)
def test_summary_exponents_fold_the_record_properties(campaign):
    records, summary = scan(campaign)
    for prop, top, argmax in (
        ("exponent_up", summary.max_exponent_up, summary.argmax_up),
        ("exponent_down", summary.max_exponent_down, summary.argmax_down),
    ):
        values = [(getattr(r, prop), r) for r in records if not r.coset]
        best = max(v for v, _ in values if v is not None)
        assert top.hex() == best.hex()
        assert argmax == tuple(r.set_literal() for v, r in values if v == best)
    for r in records:  # each record alone: the tally's logs give the properties' floats
        one = explorer._Stats()
        one.absorb(r)
        assert (one.up[0], one.down[0]) == (r.exponent_up, r.exponent_down)


def _recount(records):
    """counts and rep_counts straight from each record's flag properties."""
    counts, rep_counts = {}, {}
    for r in records:
        flags = {
            "coset": r.coset,
            "sum_dominant": r.mstd,
            "diff_dominant": not r.mstd and not r.balanced,
            "balanced": r.balanced,
            "eq_upper": r.eq_upper,
            "eq_lower": r.eq_lower,
        }
        for category, flag in flags.items():
            counts[category] = counts.get(category, 0) + flag * r.orbit_size
            rep_counts[category] = rep_counts.get(category, 0) + flag
    return counts, rep_counts


TALLY_CAMPAIGNS = [
    *(Campaign(group=GroupSpec(m), mode=mode) for m in [(12,), (2, 6), (3, 4)] for mode in explorer.MODES),
    *(Campaign(ints=(0, 11), mode=mode) for mode in explorer.MODES),
]


@pytest.mark.parametrize("campaign", TALLY_CAMPAIGNS, ids=lambda c: c.describe())
def test_key_tally_matches_a_recount_of_the_records(campaign):
    for threads in (1, 3):
        records, summary = scan(campaign, threads=threads)
        counts, rep_counts = _recount(records)
        assert (summary.counts, summary.rep_counts) == (counts, rep_counts)
        assert list(summary.counts) == list(counts)  # the json keys keep their order
        assert summary.universe == sum(r.orbit_size for r in records) == (1 << 12) - 1
        assert summary.representatives == len(records)
