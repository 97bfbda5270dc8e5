import random

import pytest

from sumdiff import (
    EmptySetError,
    GroupSpec,
    GSet,
    InjectionTable,
    build_injection,
    build_witness_table,
    check_surjective,
    diffset,
    is_coset,
    subsets,
    sumset,
    verify_injective,
)


def gs(moduli, members):
    return GSet(GroupSpec(moduli), members)


def test_witness_examples():
    t = build_witness_table(gs((5,), [0, 1]))
    assert t.pairs == {0: (0, 0), 1: (1, 0), 4: (0, 1)}
    t8 = build_witness_table(gs((8,), [0, 1, 3]))
    assert t8.pairs[2] == (3, 1)


def test_witness_zero_maps_to_least_member():
    g = GroupSpec((9,))
    for A in subsets(g, max_size=4):
        t = build_witness_table(A)
        a0 = min(A)
        assert t.pairs[0] == (a0, a0)
        for w, (u, v) in t.pairs.items():
            assert u in A and v in A and g.add(u, g.neg(v)) == w
            assert u == min(x for x in A if g.add(x, g.neg(w)) in A)  # lexicographically least
        assert sorted(t.pairs) == list(diffset(A, A))


def test_witness_rejects_empty():
    with pytest.raises(EmptySetError):
        build_witness_table(gs((5,), []))


def test_injection_examples():
    A = gs((5,), [0, 1])
    inj = build_injection(A)
    assert inj.pairs[(0, 1)] == (1, 0)
    assert inj.pairs[(1, 4)] == (1, 2)
    g = GroupSpec((7,))
    for A in subsets(g, max_size=3):
        inj = build_injection(A)
        a0 = min(A)
        two_a0 = g.add(a0, a0)
        assert inj.pairs[(a0, 0)] == (two_a0, two_a0)
        assert len(inj.pairs) == A.card * diffset(A, A).card


def test_injection_table_mismatch():
    t = build_witness_table(gs((5,), [0, 1]))
    with pytest.raises(ValueError):
        build_injection(gs((5,), [0, 2]), t)


def test_injection_counts_its_image_once():
    A = gs((5,), [0, 1])
    inj = build_injection(A)
    assert inj.image == len(set(inj.pairs.values())) == 6
    again = InjectionTable(A, inj.witness, inj.pairs)  # image is computed, not passed
    assert again == inj and again.image == 6
    collided = InjectionTable(A, inj.witness, dict.fromkeys(inj.pairs, (0, 0)))
    assert collided.image == 1 and not verify_injective(collided) and not check_surjective(collided)


def test_injective_examples():
    assert verify_injective(build_injection(gs((5,), [0, 1])))
    assert verify_injective(build_injection(gs((6,), [0, 3])))
    assert verify_injective(build_injection(gs((8,), [0, 1, 3])))


def test_surjective_examples():
    assert check_surjective(build_injection(gs((6,), [1, 4])))
    assert not check_surjective(build_injection(gs((5,), [0, 1])))
    assert not check_surjective(build_injection(gs((8,), [0, 1, 3])))


@pytest.mark.parametrize("moduli", [(5,), (6,), (7,), (8,), (2, 3)])
def test_injective_always_surjective_iff_coset(moduli):
    g = GroupSpec(moduli)
    for A in subsets(g):
        inj = build_injection(A)
        assert verify_injective(inj)
        assert check_surjective(inj) == (is_coset(A) is not None)
        # corollary: |A| |A-A| <= |A+A|^2
        assert A.card * diffset(A, A).card <= sumset(A, A).card ** 2


def test_random_products():
    rng = random.Random(17)
    pool = [GroupSpec((2, 2, 3)), GroupSpec((3, 5)), GroupSpec((4, 4))]
    for _ in range(60):
        g = rng.choice(pool)
        A = GSet.from_mask(g, rng.randrange(1, 1 << g.order))
        inj = build_injection(A)
        assert verify_injective(inj)
        assert check_surjective(inj) == (is_coset(A) is not None)
