import itertools
import random
import re
from fractions import Fraction

import pytest

from sumdiff import (
    EmptySetError,
    GroupSpec,
    GSet,
    GroupMismatchError,
    InvalidElementError,
    delta,
    diffset,
    embed_integer_set,
    independent,
    iterated,
    sigma,
    subsets,
    sumset,
)

from oracles import int_iterated, naive_diffset, naive_iterated, naive_sumset


def gs(moduli, members):
    return GSet(GroupSpec(moduli), members)


def test_sumset_examples():
    assert sumset(gs((5,), [0, 1]), gs((5,), [0, 1])).elements() == (0, 1, 2)
    a = gs((8,), [0, 1, 3])
    assert sumset(a, a).elements() == (0, 1, 2, 3, 4, 6)
    b = gs((6,), [1, 4])
    assert sumset(b, b).elements() == (2, 5)


def test_diffset_examples():
    assert diffset(gs((5,), [0, 1]), gs((5,), [0, 1])).elements() == (0, 1, 4)
    a = gs((8,), [0, 1, 3])
    assert diffset(a, a).elements() == (0, 1, 2, 3, 5, 6, 7)


@pytest.mark.parametrize("moduli", [(6,), (7,), (2, 3)])
def test_kernels_match_naive_oracle(moduli):
    g = GroupSpec(moduli)
    for am in range(1, 1 << g.order):
        A = GSet.from_mask(g, am)
        B = GSet.from_mask(g, (am * 5 + 3) % (1 << g.order) or 1)
        assert list(sumset(A, B)) == naive_sumset(moduli, list(A), list(B))
        assert list(diffset(A, B)) == naive_diffset(moduli, list(A), list(B))


def test_sumset_size_bounds_and_empty():
    g = GroupSpec((9,))
    empty = GSet(g, [])
    a = GSet(g, [1, 5])
    assert sumset(a, empty).card == 0
    assert sumset(empty, empty).card == 0
    for am, bm in itertools.product(range(1, 64, 7), repeat=2):
        A, B = GSet.from_mask(g, am), GSet.from_mask(g, bm)
        assert sumset(A, B).card >= max(A.card, B.card)


def test_group_mismatch():
    with pytest.raises(GroupMismatchError):
        sumset(gs((5,), [0]), gs((6,), [0]))
    with pytest.raises(GroupMismatchError):
        diffset(gs((2, 3), [0]), gs((6,), [0]))


def test_diffset_symmetry_contains_zero():
    g = GroupSpec((8,))
    for A in subsets(g):
        d = diffset(A, A)
        assert 0 in d
        assert d.negate() == d


def test_iterated_examples():
    assert iterated(gs((8,), [0, 1]), 3, 0).elements() == (0, 1, 2, 3)
    a5 = gs((5,), [0, 1])
    assert iterated(a5, 1, 1) == diffset(a5, a5)
    a8 = gs((8,), [0, 1, 3])
    assert iterated(a8, 2, 0) == sumset(a8, a8)
    assert list(iterated(a8, 2, 1)) == naive_iterated((8,), [0, 1, 3], 2, 1)


def test_iterated_arity_errors():
    a = gs((5,), [0, 1])
    with pytest.raises(ValueError):
        iterated(a, 0, 0)
    with pytest.raises(EmptySetError):
        iterated(gs((5,), []), 1, 0)


def test_iterated_matches_deep_loop_oracle():
    # all sets of size <= 5, cyclic orders <= 12, arity (2,1); deeper arities sampled
    for n in range(1, 13):
        g = GroupSpec((n,))
        for members in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(1, min(5, n) + 1)
        ):
            A = GSet(g, members)
            assert list(iterated(A, 2, 1)) == naive_iterated((n,), members, 2, 1)
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 13)
        g = GroupSpec((n,))
        members = rng.sample(range(n), rng.randrange(1, min(5, n) + 1))
        for nn, mm in [(3, 0), (0, 3), (2, 2), (1, 2)]:
            A = GSet(g, members)
            assert list(iterated(A, nn, mm)) == naive_iterated((n,), members, nn, mm)
    for moduli in [(2, 3), (2, 2, 3), (3, 4)]:
        g = GroupSpec(moduli)
        for _ in range(20):
            members = rng.sample(range(g.order), rng.randrange(1, 6))
            A = GSet(g, members)
            assert list(iterated(A, 2, 1)) == naive_iterated(moduli, members, 2, 1)


def test_constants_examples():
    assert sigma(gs((6,), [1, 4])) == 1 and delta(gs((6,), [1, 4])) == 1
    a = gs((8,), [0, 1, 3])
    assert sigma(a) == 2 and delta(a) == Fraction(7, 3)
    b = gs((5,), [0, 1])
    assert sigma(b) == Fraction(3, 2) and delta(b) == Fraction(3, 2)


@pytest.mark.parametrize("mask", [-1, 1 << 6, 1 << 40], ids=["negative", "2^N", "wide"])
def test_from_mask_rejects_masks_outside_the_group(mask):
    for g in (GroupSpec((6,)), GroupSpec((2, 3))):
        with pytest.raises(InvalidElementError, match=f"^mask {mask:#x} out of range for {g.label()}$"):
            GSet.from_mask(g, mask)


def test_constants_reject_empty():
    with pytest.raises(EmptySetError):
        sigma(gs((5,), []))
    with pytest.raises(EmptySetError):
        delta(gs((5,), []))


def test_constants_at_least_one_and_reduced():
    g = GroupSpec((10,))
    for A in subsets(g):
        s, d = sigma(A), delta(A)
        assert s >= 1 and d >= 1
        assert isinstance(s, Fraction)  # Fraction stores reduced by construction


def test_translation_negation_invariance():
    g = GroupSpec((8,))
    for A in subsets(g):
        s, d = sigma(A), delta(A)
        assert sigma(A.negate()) == s and delta(A.negate()) == d
        for t in g.elements():
            at = A.translate(t)
            assert sigma(at) == s and delta(at) == d
    gp = GroupSpec((2, 5))
    rng = random.Random(3)
    for _ in range(40):
        A = GSet.from_mask(gp, rng.randrange(1, 1 << gp.order))
        t = rng.randrange(gp.order)
        assert sigma(A.translate(t)) == sigma(A)
        assert delta(A.negate()) == delta(A)


def test_independent_examples():
    g6 = GroupSpec((6,))
    assert independent(GSet(g6, [0, 3]), GSet(g6, [0, 1, 2]))
    g5 = GroupSpec((5,))
    assert not independent(GSet(g5, [0, 1]), GSet(g5, [0, 1]))
    for b in range(6):
        assert independent(GSet(g6, [0, 2, 5]), GSet(g6, [b]))
    with pytest.raises(EmptySetError):
        independent(GSet(g6, [0]), GSet(g6, []))


def test_embed_examples():
    g, a = embed_integer_set({0, 1}, 2, 2)
    assert g.order == 5 and a.elements() == (0, 1)
    g, a = embed_integer_set({0, 2, 3, 4, 7, 11, 12, 14}, 1, 1)
    assert g.order == 29 and a.elements() == (0, 2, 3, 4, 7, 11, 12, 14)
    g, a = embed_integer_set({5, 6}, 2, 0)
    assert g.order == 3 and a.elements() == (0, 1)
    g, a = embed_integer_set({42}, 1, 1)
    assert g.order == 1 and a.elements() == (0,)


def test_embed_errors():
    with pytest.raises(EmptySetError):
        embed_integer_set([], 1, 1)
    with pytest.raises(ValueError):
        embed_integer_set([1], 0, 0)
    for bad in ("3", 1.5, 2.0, None):  # int() would read "3" as 3 and 1.5 as 1
        with pytest.raises(TypeError, match=f"^integer set element {re.escape(repr(bad))} is not an integer$"):
            embed_integer_set([bad, 1], 1, 1)


def test_embed_fidelity_random():
    rng = random.Random(29)
    for _ in range(200):
        lo = rng.randrange(-20, 20)
        width = rng.randrange(1, 13)
        size = rng.randrange(1, 9)
        pts = sorted(set(rng.randrange(lo, lo + width + 1) for _ in range(size)))
        for n, m in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
            g, A = embed_integer_set(pts, n, m)
            want = int_iterated(pts, n, m)
            got = iterated(A, n, m)
            assert got.card == len(want)
            shift = (n - m) * min(pts)
            assert set(got) == {(v - shift) % g.order for v in want}


def test_embed_guarantee_covers_smaller_arities():
    # one (2,2) embedding stays faithful for every n' <= 2, m' <= 2
    rng = random.Random(31)
    for _ in range(50):
        pts = sorted(set(rng.randrange(0, 12) for _ in range(rng.randrange(1, 7))))
        _, A = embed_integer_set(pts, 2, 2)
        for n in range(3):
            for m in range(3):
                if n + m == 0:
                    continue
                assert iterated(A, n, m).card == len(int_iterated(pts, n, m))


def test_gset_basics():
    g = GroupSpec((8,))
    a = GSet(g, [3, 0, 1])
    assert str(a) == "0,1,3@Z8"
    assert list(a) == [0, 1, 3] and len(a) == 3 and 3 in a and 5 not in a
    assert not any(x in a for x in (-1, 8, 1.0, 1.5, "a", None))  # a GSet holds only ints 0..N-1
    assert a == GSet.from_mask(g, 0b1011) and hash(a) == hash(GSet(g, [0, 1, 3]))
    assert (a + a).elements() == (0, 1, 2, 3, 4, 6)
    assert (-a).elements() == (0, 5, 7)
    assert (a - a).card == 7
    assert GSet(g, []).card == 0 and not GSet(g, [])
    assert GroupSpec((2, 3)).label() == "Z2xZ3"
