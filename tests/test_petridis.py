import gc
import itertools
import random
import re
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from sumdiff import (
    CapExceededError,
    EmptySetError,
    GroupSpec,
    GSet,
    HypothesisViolationError,
    brute_force_certificate,
    delta,
    enumerate_subgroups,
    extract_certificate,
    find_minimizer,
    independent,
    petridis_inequality,
    replay_trace,
    subsets,
    sumset,
    petridis,
    verify_hypothesis,
)

from oracles import (
    ascending_minimizer,
    ascending_violating_subset,
    naive_minimizer,
    naive_sumset,
    naive_violating_subset,
)


def gs(moduli, members):
    return GSet(GroupSpec(moduli), members)


def test_minimizer_examples():
    A = gs((5,), [0, 1])
    mn = find_minimizer(A, A.negate())
    assert mn.x.elements() == (0, 4) and mn.k == Fraction(3, 2)
    assert mn.strict_on_proper_subsets

    A = gs((6,), [0, 3])
    mn = find_minimizer(A, A.negate())
    assert mn.x.elements() == (0, 3) and mn.k == 1

    g = GroupSpec((7,))
    mn = find_minimizer(GSet(g, [4]), GSet(g, [2]))
    assert mn.x.elements() == (2,) and mn.k == 1


def test_minimizer_tie_break():
    # singleton A makes every subset ratio-1; ties resolve to smallest set, then mask
    g = GroupSpec((7,))
    mn = find_minimizer(GSet(g, [3]), GSet(g, [1, 4, 6]))
    assert mn.x.elements() == (1,) and mn.k == 1


def test_minimizer_errors():
    A = gs((5,), [0, 1])
    with pytest.raises(EmptySetError):
        find_minimizer(A, gs((5,), []))
    with pytest.raises(CapExceededError):
        find_minimizer(gs((25,), [0, 1]), GSet(GroupSpec((25,)), range(25)), cap=20)


Z5, Z6 = GroupSpec((5,)), GroupSpec((6,))
EMPTY, A6 = GSet(Z6, []), GSet(Z6, [0, 3])
NO_CERTIFICATE = "brute_force_certificate needs non-empty A, X, C"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: find_minimizer(GSet(Z5, []), GSet(Z5, [0])), EmptySetError, "find_minimizer needs a non-empty A"),
        (
            lambda: verify_hypothesis(GSet(Z5, [0, 1]), GSet(Z5, [0, 1, 2]), 1, cap=2),
            CapExceededError,
            "hypothesis check over 3 elements exceeds cap 2",
        ),
        (lambda: petridis_inequality(A6, A6, 1, EMPTY), EmptySetError, "petridis_inequality needs a non-empty C"),
        (lambda: replay_trace(EMPTY, A6, A6), EmptySetError, "replay_trace needs non-empty A and X"),
        (lambda: replay_trace(A6, EMPTY, A6), EmptySetError, "replay_trace needs non-empty A and X"),
        (lambda: replay_trace(A6, A6, EMPTY), EmptySetError, "replay_trace needs a non-empty C"),
        (lambda: brute_force_certificate(EMPTY, A6, A6), EmptySetError, NO_CERTIFICATE),
        (lambda: brute_force_certificate(A6, EMPTY, A6), EmptySetError, NO_CERTIFICATE),
        (lambda: brute_force_certificate(A6, A6, EMPTY), EmptySetError, NO_CERTIFICATE),
    ],
    ids=[
        "minimizer-empty-A", "hypothesis-cap", "inequality-empty-C", "trace-empty-A", "trace-empty-X",
        "trace-empty-C", "certificate-empty-A", "certificate-empty-X", "certificate-empty-C",
    ],
)
def test_empty_and_oversized_inputs_raise(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_verify_hypothesis_examples():
    A5 = gs((5,), [0, 1])
    assert verify_hypothesis(A5, gs((5,), [0, 4]), Fraction(3, 2))
    assert verify_hypothesis(A5, gs((5,), [0]), 2)  # no proper non-empty subsets
    A6 = gs((6,), [0, 3])
    assert verify_hypothesis(A6, gs((6,), [0, 3]), 1)
    # wrong K: |A+X| != K|X|
    assert not verify_hypothesis(A5, gs((5,), [0, 4]), 2)
    # tight proper subset: A={0,3}, X={0,1} has K=2 but singletons are also ratio 2
    assert not verify_hypothesis(A6, gs((6,), [0, 1]), 2)


def test_inequality_examples():
    A = gs((5,), [0, 1])
    rec = petridis_inequality(A, gs((5,), [0, 4]), Fraction(3, 2), gs((5,), [0, 1]))
    assert rec.lhs == 4 and rec.rhs == Fraction(9, 2) and rec.holds and not rec.equality

    # singleton C is always an equality
    A6 = gs((6,), [0, 3])
    rec = petridis_inequality(A6, A6, 1, gs((6,), [1]))
    assert rec.lhs == 2 and rec.rhs == 2 and rec.equality


def test_inequality_rejects_bad_hypothesis():
    A6 = gs((6,), [0, 3])
    with pytest.raises(HypothesisViolationError) as err:
        petridis_inequality(A6, gs((6,), [0, 1]), 2, gs((6,), [0]))
    assert err.value.violating.elements() == (0,)
    with pytest.raises(EmptySetError):
        petridis_inequality(A6, gs((6,), []), 1, gs((6,), [0]))


def test_trace_strict_example():
    A = gs((5,), [0, 1])
    tr = replay_trace(A, gs((5,), [0, 4]), gs((5,), [0, 1]))
    assert tr.k == Fraction(3, 2)
    assert tr.steps[0].x_k.card == 0 and tr.steps[0].y_k.card == 0
    assert tr.steps[1].x_k.elements() == (4,)  # neither empty nor all of X
    assert not tr.steps[1].conditions[1]
    assert not tr.equality
    assert extract_certificate(tr) is None
    assert brute_force_certificate(A, gs((5,), [0, 4]), gs((5,), [0, 1])) is None


def test_trace_singleton():
    A6 = gs((6,), [0, 3])
    tr = replay_trace(A6, A6, gs((6,), [1]))
    assert len(tr.steps) == 1 and tr.steps[0].x_k.card == 0
    assert tr.equality
    assert extract_certificate(tr).q.elements() == (1,)
    assert brute_force_certificate(A6, A6, gs((6,), [1])).q.elements() == (1,)


def test_trace_coset_equality():
    # translate by 1 lands outside the subgroup, so both steps contribute
    # disjoint fresh blocks: every step has x_k empty and Q = {0, 1}
    A6 = gs((6,), [0, 3])
    tr = replay_trace(A6, A6, gs((6,), [0, 1]))
    assert tr.equality
    assert all(all(st.conditions) for st in tr.steps)
    assert all(st.x_k.card == 0 for st in tr.steps)
    cert = extract_certificate(tr)
    assert cert.q.elements() == (0, 1)
    assert sumset(A6, cert.q).card == 4
    bf = brute_force_certificate(A6, A6, gs((6,), [0, 1]))
    assert bf.q.elements() == (0, 1)


def test_trace_order_is_explicit():
    A = gs((5,), [0, 1])
    X = gs((5,), [0, 4])
    C = gs((5,), [0, 1])
    asc = replay_trace(A, X, C)
    desc = replay_trace(A, X, C, order=(1, 0))
    assert asc.order == (0, 1) and desc.order == (1, 0)
    assert asc.equality == desc.equality  # the verdict is order-free
    with pytest.raises(ValueError):
        replay_trace(A, X, C, order=(0, 2))


def test_trace_invariants():
    g = GroupSpec((6,))
    for A in subsets(g, max_size=3):
        mn = find_minimizer(A, A.negate())
        for C in subsets(g, max_size=2):
            tr = replay_trace(A, mn.x, C)
            for st in tr.steps:
                assert st.y_k.issubset(st.x_k)
                assert st.slack >= 0
            rec = petridis_inequality(A, mn.x, mn.k, C)
            assert rec.lhs == tr.steps[-1].lhs_size
            assert rec.equality == tr.equality


def test_certificate_cap():
    g = GroupSpec((20,))
    A = GSet(g, [0])
    with pytest.raises(CapExceededError):
        brute_force_certificate(A, A, GSet(g, range(18)), cap=16)


def test_equivalence_sweep_z6():
    # equality in the comparison <=> a certificate exists; extraction matches
    g = GroupSpec((6,))
    for A in subsets(g):
        mn = find_minimizer(A, A.negate())
        assert verify_hypothesis(A, mn.x, mn.k)
        for C in subsets(g, max_size=3):
            rec = petridis_inequality(A, mn.x, mn.k, C)
            assert rec.holds
            bf = brute_force_certificate(A, mn.x, C)
            assert rec.equality == (bf is not None)
            tr = replay_trace(A, mn.x, C)
            cert = extract_certificate(tr)
            assert (cert is not None) == rec.equality
            if cert is not None:
                assert sumset(mn.x, cert.q) == sumset(mn.x, C)
                assert independent(sumset(A, mn.x), cert.q)


def test_forward_direction_standalone():
    # any Q with X+C = X+Q and A+X independent of Q forces equality
    g = GroupSpec((8,))
    A = GSet(g, [0, 4])
    mn = find_minimizer(A, A.negate())
    for C in subsets(g, max_size=3):
        xc = sumset(mn.x, C)
        ax = sumset(A, mn.x)
        for qm in range(1, 1 << g.order):
            if qm & ~C.mask:
                continue
            q = GSet.from_mask(g, qm)
            if sumset(mn.x, q) == xc and independent(ax, q):
                assert petridis_inequality(A, mn.x, mn.k, C).equality
                break


def test_k_bounded_by_delta():
    g = GroupSpec((8,))
    for A in subsets(g):
        mn = find_minimizer(A, A.negate())
        assert mn.k <= delta(A)


def test_subset_searches_match_brute_force():
    # cyclic and product groups of order <= 64, every base size 1..12
    rng = random.Random(2024)
    pool = [(13,), (24,), (37,), (64,), (2, 8), (3, 6), (2, 3, 5), (2, 2, 4), (4, 4, 4)]
    for size in range(1, 13):
        for moduli in rng.sample(pool, 2):
            g = GroupSpec(moduli)
            A = GSet(g, rng.sample(range(g.order), rng.randint(1, 5)))
            base = GSet(g, rng.sample(range(g.order), size))
            mn = find_minimizer(A, base)
            want_x, want_k = naive_minimizer(moduli, A.elements(), base.elements())
            assert (list(mn.x), mn.k) == (want_x, want_k)
            k_base = Fraction(len(naive_sumset(moduli, A.elements(), base.elements())), size)
            for X, K in ((base, k_base), (base, want_k), (mn.x, want_k), (base, k_base + 1)):
                want = naive_violating_subset(moduli, A.elements(), X.elements(), K)
                try:
                    petridis_inequality(A, X, K, A)
                except HypothesisViolationError as err:
                    got = list(err.violating)
                else:
                    got = None
                assert got == want


def _violating(A, X, K):
    """The witness ``petridis_inequality`` reports against (X, K), or None."""
    try:
        petridis_inequality(A, X, K, A, cap=X.card)
    except HypothesisViolationError as err:
        return err.violating.elements()
    return None


def _kinds(g, rng):
    """One A of each kind: random, arithmetic progression, a coset plus one
    point, a subgroup, and a singleton (every ratio |A+X|/|X| is then 1)."""
    H = rng.choice([H for H in enumerate_subgroups(g) if 1 < H.card <= 16])
    coset = H.translate(rng.randrange(g.order))
    extra = rng.choice([x for x in g.elements() if x not in coset])
    ap, x, d = [], rng.randrange(g.order), rng.randrange(1, g.order)
    for _ in range(rng.randint(2, 5)):
        ap.append(x)
        x = g.add(x, d)
    return {
        "random": GSet(g, rng.sample(range(g.order), rng.randint(2, 6))),
        "ap": GSet(g, set(ap)),
        "coset+x": GSet.from_mask(g, coset.mask | 1 << extra),
        "subgroup": H,
        "singleton": GSet(g, [rng.randrange(g.order)]),
    }


@pytest.mark.parametrize("size", range(1, 19))
def test_block_walk_matches_ascending_walk(size):
    # |base| 1-18 straddles the switch to a 10-wide low table (11) and the
    # uneven high halves (13, 17); the reference visits every candidate
    rng = random.Random(700 + size)
    groups = [(64,), (4, 4, 4)] if size > 12 else [(40,), (64,), (2, 2, 8), (3, 6, 2)]
    near = Fraction(1, 997)  # below the gap between two ratios with |X| <= 18
    for moduli in groups:
        g = GroupSpec(moduli)
        kinds = list(_kinds(g, rng).items())
        if size > 12:
            kinds = [kinds[size % 5], kinds[(size + 2) % 5]]
        for kind, A in kinds:
            base = GSet(g, rng.sample(range(g.order), size))
            mn = find_minimizer(A, base)
            want_x, want_k = ascending_minimizer(A, base)
            assert (mn.x.elements(), mn.k) == (want_x, want_k), (kind, A, base)
            assert mn.strict_on_proper_subsets
            assert ascending_violating_subset(A, mn.x, mn.k) is None
            k_rand = Fraction(rng.randint(1, 3 * A.card), rng.randint(1, 4))
            for X, K in (
                (base, want_k),
                (base, want_k + near),
                (base, want_k - near),
                (base, k_rand),
                (mn.x, want_k + near),
                (mn.x, want_k - near),
            ):
                assert _violating(A, X, K) == ascending_violating_subset(A, X, K), (kind, A, X, K)


@pytest.mark.parametrize("moduli", [(64,), (4, 4, 4), (2, 2, 8)], ids=["Z64", "Z4^3", "Z2xZ2xZ8"])
def test_singleton_and_coset_searches_match_ascending_walk(moduli):
    # every ratio |A+X|/|X| is at least 1 and, for these A, often exactly 1:
    # the |A+X| >= |X| floor prunes the most here
    rng = random.Random(sum(moduli))
    g = GroupSpec(moduli)
    subgroups = [H for H in enumerate_subgroups(g) if 1 < H.card <= 8]
    for size in (1, 2, 5, 10, 11, 14, 16):
        singleton = GSet(g, [rng.randrange(g.order)])
        coset = rng.choice(subgroups).translate(rng.randrange(g.order))
        for A in (singleton, coset):
            base = GSet(g, rng.sample(range(g.order), size))
            mn = find_minimizer(A, base)
            want_x, want_k = ascending_minimizer(A, base)
            assert (mn.x.elements(), mn.k) == (want_x, want_k), (A, base)
            assert mn.strict_on_proper_subsets
            for X, K in ((base, want_k), (base, want_k + 1), (mn.x, want_k)):
                assert _violating(A, X, K) == ascending_violating_subset(A, X, K), (A, X, K)


def test_singleton_minimizer_counts_one_block(monkeypatch):
    # for a singleton A, |A+X| = |X|: once X = {first element} gives K = 1,
    # the floor |X| exceeds every later block's limit, so no other block is counted
    counted = []

    class Counting(tuple):
        def __iter__(self):
            counted.append(len(self))
            return super().__iter__()

    classes = petridis._classes
    monkeypatch.setattr(petridis, "_classes", lambda w: tuple(map(Counting, classes(w))))
    g = GroupSpec((64,))
    A, base = GSet(g, [5]), GSet(g, range(0, 40, 2))
    mn = find_minimizer(A, base)
    assert (mn.x.elements(), mn.k) == ascending_minimizer(A, base) == ((0,), 1)
    assert counted == [10]  # row 0's singletons: the one counted block


def test_minimizer_memory_is_sub_exponential():
    # the search keeps a low table of at most 2^10 unions and a high table
    # of 2^(size-10), never one of 2^size
    g = GroupSpec((64,))
    A = GSet(g, [0, 5, 9, 17, 30, 33])
    for size in (14, 20):
        base = GSet(g, range(1, 64, 3)[:size])
        tracemalloc.start()
        try:
            find_minimizer(A, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000, size


def test_searches_keep_no_group_alive():
    # nothing caches a request's sets, so its group (with a product group's
    # shift tables) is freed once the caller lets go of it
    g = GroupSpec((2, 4, 8))
    ref = weakref.ref(g)
    A = GSet(g, [0, 3, 9, 17, 40, 41])
    mn = find_minimizer(A, A)
    assert verify_hypothesis(A, mn.x, mn.k)
    assert not verify_hypothesis(A, A, mn.k + 1)
    del g, A, mn
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("size", range(6, 15))
def test_whole_base_minimizer_rechecks_on_its_search_tables(monkeypatch, size):
    # when X is the whole base (A's own subsets, as in thm5, or -A's, as in thm3), the recheck
    # walks the search's own prefix-union tables, in a walk of its own, once per call
    moduli = [(64,), (2, 32), (4, 4, 4), (3, 16)][size % 4]
    g, rng = GroupSpec(moduli), random.Random(900 + size)
    while True:
        A = GSet(g, rng.sample(range(g.order), size))
        base = A if size % 2 else A.negate()
        if find_minimizer(A, base).x == base:
            break
    built, rechecks = [], []
    tables, violation = petridis._tables, petridis._violation
    monkeypatch.setattr(petridis, "_tables", lambda shifts: built.append(shifts) or tables(shifts))
    monkeypatch.setattr(petridis, "_violation", lambda *args: rechecks.append(args) or violation(*args))
    mn = find_minimizer(A, base)
    assert len(built) == len(rechecks) == 1
    want = naive_violating_subset(moduli, A.elements(), base.elements(), mn.k)
    assert mn.strict_on_proper_subsets == (want is None)
    # planted: one step below the minimum ratio, the full mask is the witness against
    # |A+X| = K |X|, read from the shared tables' top entries
    below = mn.k - Fraction(1, size)
    assert violation(A.card, rechecks[0][1], below) == (1 << size) - 1
    assert naive_violating_subset(moduli, A.elements(), base.elements(), below) == list(base.elements())


def test_a_proper_minimizer_builds_its_own_tables(monkeypatch):
    # X below the base: the recheck builds the tables of X's shifts, not the base's
    g = GroupSpec((64,))
    A, base = GSet(g, [0, 1, 2]), GSet(g, [0, 1, 2, 3, 20, 40])
    built = []
    tables = petridis._tables
    monkeypatch.setattr(petridis, "_tables", lambda shifts: built.append(len(shifts)) or tables(shifts))
    mn = find_minimizer(A, base)
    assert mn.x == GSet(g, [0, 1, 2, 3]) and mn.strict_on_proper_subsets
    assert built == [6, 4]
