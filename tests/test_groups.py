import itertools
import random
import re
import tracemalloc
from math import gcd, prod

import pytest

from sumdiff import (
    CapExceededError,
    EmptySetError,
    GroupSpec,
    GSet,
    InvalidElementError,
    enumerate_subgroups,
    is_coset,
    sigma,
    subsets,
)
from sumdiff import groups
from sumdiff.groups import iter_bits

from oracles import add_idx, automorphism_perms, naive_subgroup_masks, neg_idx, scale_idx

SMALL_GROUPS = [
    GroupSpec((1,)),
    GroupSpec((5,)),
    GroupSpec((6,)),
    GroupSpec((8,)),
    GroupSpec((2, 3)),
    GroupSpec((2, 2, 2)),
    GroupSpec((3, 4)),
]


def test_add_examples():
    assert GroupSpec((5,)).add(3, 4) == 2
    g = GroupSpec((2, 3))
    e = g.encode((1, 2))
    assert g.add(e, e) == g.encode((0, 1))
    g6 = GroupSpec((6,))
    for x in g6.elements():
        assert g6.add(0, x) == x


def test_neg_examples():
    assert GroupSpec((5,)).neg(2) == 3
    assert GroupSpec((6,)).neg(0) == 0
    g = GroupSpec((2, 3))
    assert g.neg(g.encode((1, 1))) == g.encode((1, 2))


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.label())
def test_group_axioms(g):
    for a, b in itertools.product(g.elements(), repeat=2):
        assert g.add(a, b) == g.add(b, a) == add_idx(g.moduli, a, b)
    for a in g.elements():
        assert g.add(a, 0) == a
        assert g.add(a, g.neg(a)) == 0
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (rng.randrange(g.order) for _ in range(3))
        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.label())
def test_scale_agrees_with_scale_mask_for_every_integer(g):
    for u in range(-2 * g.exponent - 1, 2 * g.exponent + 2):  # units and non-units, negative too
        for a in g.elements():
            assert g.scale(a, u) == scale_idx(g.moduli, a, u)
            assert 1 << g.scale(a, u) == g.scale_mask(1 << a, u)


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.label())
def test_encode_decode_bijection(g):
    seen = set()
    for a in g.elements():
        digits = g.decode(a)
        assert g.encode(digits) == a
        seen.add(digits)
    assert len(seen) == g.order


def test_invalid_elements():
    g = GroupSpec((6,))
    with pytest.raises(InvalidElementError):
        g.add(0, 6)
    with pytest.raises(InvalidElementError):
        g.neg(-1)
    with pytest.raises(InvalidElementError):
        GSet(g, [7])
    for g in (GroupSpec((6,)), GroupSpec((2, 3))):
        for bad in (6, -1, 1.0):
            with pytest.raises(InvalidElementError):
                g.shift_mask(0b101, bad)


@pytest.mark.parametrize(
    "moduli, digits, message",
    [
        ((6,), (1, 2), "expected 1 residues for Z6, got 2"),
        ((2, 3), (1,), "expected 2 residues for Z2xZ3, got 1"),
        ((6,), (6,), "residue 6 out of range for modulus 6"),
        ((2, 3), (1, 3), "residue 3 out of range for modulus 3"),
        ((2, 3), (-1, 0), "residue -1 out of range for modulus 2"),
        ((6,), (1.5,), "residue 1.5 out of range for modulus 6"),
        ((2, 3), (1, 0.5), "residue 0.5 out of range for modulus 3"),
    ],
)
def test_encode_rejects_bad_residues(moduli, digits, message):
    with pytest.raises(InvalidElementError, match=f"^{re.escape(message)}$"):
        GroupSpec(moduli).encode(digits)


def test_groupspec_equality_is_elementwise():
    assert GroupSpec((2, 3)) != GroupSpec((3, 2))
    assert GroupSpec((2, 3)) != GroupSpec((6,))
    assert GroupSpec((2, 3)) == GroupSpec((2, 3))
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((0, 3))


@pytest.mark.parametrize("modulus", [2.5, "12"])
def test_a_modulus_that_is_not_an_integer_is_refused(modulus):
    # int() would read these as Z2 and Z12
    with pytest.raises(TypeError, match=f"^modulus {re.escape(repr(modulus))} is not an integer$"):
        GroupSpec((modulus,))
    with pytest.raises(TypeError):
        GroupSpec((3, modulus))


def test_subgroups_z12():
    subs = enumerate_subgroups(GroupSpec((12,)))
    assert [len(s) for s in subs] == [1, 2, 3, 4, 6, 12]


def test_subgroups_trivial_group():
    subs = enumerate_subgroups(GroupSpec((1,)))
    assert len(subs) == 1 and subs[0].elements() == (0,)


def test_subgroups_klein():
    assert len(enumerate_subgroups(GroupSpec((2, 2)))) == 5


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_subgroup_count_prime(p):
    assert len(enumerate_subgroups(GroupSpec((p,)))) == 2


@pytest.mark.parametrize("moduli", [(12,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (10,)])
def test_subgroups_match_closure_oracle(moduli):
    g = GroupSpec(moduli)
    got = [s.mask for s in enumerate_subgroups(g)]
    assert sorted(got) == naive_subgroup_masks(moduli)
    # deterministic order: by cardinality then bitmask
    assert got == sorted(got, key=lambda m: (m.bit_count(), m))


def test_subgroup_cap():
    with pytest.raises(CapExceededError):
        enumerate_subgroups(GroupSpec((300,)), cap=256)


def test_is_coset_examples():
    g6 = GroupSpec((6,))
    h, rep = is_coset(GSet(g6, [1, 4]))
    assert h.elements() == (0, 3) and rep == 1
    assert is_coset(GSet(GroupSpec((5,)), [0, 1])) is None
    g4 = GroupSpec((4,))
    h, rep = is_coset(GSet(g4, [0, 1, 2, 3]))
    assert h.elements() == (0, 1, 2, 3) and rep == 0


def test_is_coset_rejects_empty():
    with pytest.raises(EmptySetError):
        is_coset(GSet(GroupSpec((4,)), []))


def test_subgroups_pass_is_coset_with_rep_zero():
    for g in SMALL_GROUPS:
        for h in enumerate_subgroups(g):
            sub, rep = is_coset(h)
            assert rep == 0 and sub == h


def test_coset_detection_order_independent():
    # every translate of a subgroup decomposes back to the same subgroup
    g = GroupSpec((2, 3))
    for h in enumerate_subgroups(g):
        for t in g.elements():
            got = is_coset(h.translate(t))
            assert got is not None and got[0] == h


@pytest.mark.parametrize("g", [GroupSpec((8,)), GroupSpec((2, 3))], ids=lambda g: g.label())
def test_coset_iff_sigma_one(g):
    for A in subsets(g):
        assert (is_coset(A) is not None) == (sigma(A) == 1)


def test_shift_mask_adds_no_instance_attribute():
    # a key added to the instance dict after construction slows every later attribute read
    g = GroupSpec((2, 6))
    before = set(vars(g))
    assert g.shift_mask(0b1011, 7) == g.shift_mask(0b1011, 7)
    assert set(vars(g)) == before



# every product of two or more cyclic factors of order <= 24, up to Z2xZ2xZ6, and two
# with their factors out of order
AUT_PRODUCTS = [
    GroupSpec(m)
    for k in (2, 3, 4)
    for m in itertools.combinations_with_replacement(range(2, 13), k)
    if prod(m) <= 24
] + [GroupSpec((4, 2)), GroupSpec((6, 2, 2))]


@pytest.mark.parametrize("g", AUT_PRODUCTS, ids=GroupSpec.label)
def test_automorphism_tables_are_automorphisms(g):
    fresh = GroupSpec(g.moduli)
    assert fresh._automorphisms is None  # built on first use, not with the group
    before = set(vars(fresh))
    tables = fresh.automorphisms()
    assert fresh.automorphisms() is tables and set(vars(fresh)) == before
    # with coprime factors the group is cyclic and every automorphism is a unit scalar
    assert bool(tables) == any(gcd(a, b) > 1 for a, b in itertools.combinations(g.moduli, 2))
    scalars = {fresh.scale_table(u) for u in fresh.units()}
    add = [[add_idx(g.moduli, a, b) for b in range(g.order)] for a in range(g.order)]
    for t in tables:
        assert sorted(t) == list(range(g.order)) and t not in scalars
        assert all(t[add[a][b]] == add[t[a]][t[b]] for a in range(g.order) for b in range(g.order))
    aut = automorphism_perms(g.moduli)
    if len(aut) <= 400:  # with the unit scalars the tables generate Aut(G): close them up
        group, frontier = set(scalars), list(scalars)
        while frontier:
            f = frontier.pop()
            for t in tables:
                h = tuple(t[i] for i in f)
                if h not in group:
                    group.add(h)
                    frontier.append(h)
        assert group == set(aut)


@pytest.mark.parametrize("n", [1, 2, 6, 12, 24])
def test_a_cyclic_group_has_no_automorphism_beyond_its_unit_scalars(n):
    assert GroupSpec((n,)).automorphisms() == ()


def _shift_and_test(mask):
    """Set bit positions by shifting the mask down one bit at a time."""
    out, i = [], 0
    while mask >> i:
        if mask >> i & 1:
            out.append(i)
        i += 1
    return tuple(out)


ITER_BITS_MASKS = (
    [0]
    + [1 << b for b in (0, 7, 8, 15, 16, 63, 64, 255)]
    + [0b11 << 7, 0b11 << 15, 0x1FF << 4, 0x8001 << 7, ((1 << 40) - 1) << 3, (1 << 64) - 1, 0xFF << 56]
    + [1 << 256, (1 << 256) - 1, (1 << 2047) | 1 << 255]  # read past the last byte table
)


def test_iter_bits_matches_shift_and_test(monkeypatch):
    monkeypatch.setattr(groups, "_BYTE_BITS", [])  # grown from nothing, first by mask 0
    rng = random.Random(8)
    masks = ITER_BITS_MASKS + [rng.getrandbits(rng.randint(1, 2048)) for _ in range(400)]
    for mask in masks:
        bits = iter_bits(mask)
        assert type(bits) is tuple and bits == _shift_and_test(mask), hex(mask)


def test_iter_bits_builds_no_table_past_bit_255(monkeypatch):
    monkeypatch.setattr(groups, "_BYTE_BITS", [])
    tracemalloc.start()
    try:
        assert iter_bits((1 << 20000) | 1) == (0, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(groups._BYTE_BITS) <= 32 and peak < 2 << 20


def test_one_scale_table_per_residue():
    g = GroupSpec((6,))
    assert g.scale(1, 1) == g.scale(1, 7) == g.scale(1, -5) == 1
    assert len(g._scale_tables) == 1
    assert g.neg(2) == g.scale(2, 5) == 4 and len(g._scale_tables) == 2


def test_negation_table_is_linear_in_the_order():
    g = GroupSpec((20001,))
    iter_bits(1 << 300)  # the byte tables are shared and built once; keep them out of the peak
    tracemalloc.start()
    try:
        assert g.neg_mask(1 | 1 << 10000) == 1 | 1 << 10001
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_gset_iteration_is_unchanged():
    g = GroupSpec((4, 20))
    A = GSet(g, [71, 3, 8, 16])
    assert next(iter(A)) == 3
    it = iter(A)
    assert iter(it) is it and list(it) == [3, 8, 16, 71] and list(it) == []
    assert A.elements() == (3, 8, 16, 71) == tuple(A)
    assert GSet(g, []).elements() == ()
    assert GSet.from_mask(g, g.full_mask).elements() == tuple(range(80))
