"""Independent brute-force reference implementations for the tests.

Everything here computes from first principles with its own modular
arithmetic over residue tuples (no bitmasks, no kernel code), so the
production paths are checked against a genuinely separate route. The one
exception is the pair of ascending walks, the plain per-candidate form of the
pruned Petridis subset searches: they share only the shift kernel, which the
residue oracles check on its own, and reach sizes far past what
``naive_minimizer`` can enumerate. The other is ``per_subset_sweep``, the
plain form of the orbit-weighted claim sweep: it takes its verdicts from the
production verifiers, one subset at a time, so it checks the orbit weighting
and the violation list rather than the verdicts. ``int_window_representatives``
judges each mask of an integer window on its own, where the scan's source
yields only representatives. ``csv_writer_text`` writes
scan records through the standard library's csv module, the writer the
preformatted scan csv lines must match byte for byte.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from fractions import Fraction


def decode(moduli, idx):
    digits = []
    for n in moduli:
        idx, r = divmod(idx, n)
        digits.append(r)
    return tuple(digits)


def encode(moduli, digits):
    idx = 0
    for n, c in zip(reversed(moduli), reversed(digits)):
        idx = idx * n + (c % n)
    return idx


def add_idx(moduli, a, b):
    da, db = decode(moduli, a), decode(moduli, b)
    return encode(moduli, tuple(x + y for x, y in zip(da, db)))


def neg_idx(moduli, a):
    return encode(moduli, tuple(-x for x in decode(moduli, a)))


def naive_sumset(moduli, A, B):
    return sorted({add_idx(moduli, a, b) for a in A for b in B})


def naive_diffset(moduli, A, B):
    return sorted({add_idx(moduli, a, neg_idx(moduli, b)) for a in A for b in B})


def naive_iterated(moduli, A, n, m):
    """nA - mA by an (n+m)-deep product loop."""
    out = set()
    for plus in itertools.product(A, repeat=n):
        for minus in itertools.product(A, repeat=m):
            v = 0
            for a in plus:
                v = add_idx(moduli, v, a)
            for b in minus:
                v = add_idx(moduli, v, neg_idx(moduli, b))
            out.add(v)
    return sorted(out)


def int_sumset(A, B):
    return {a + b for a in A for b in B}


def int_iterated(pts, n, m):
    """nA - mA over the integers, by set folding (exact in Z)."""
    acc = None
    pts = set(pts)
    for _ in range(n):
        acc = set(pts) if acc is None else int_sumset(acc, pts)
    neg = {-p for p in pts}
    for _ in range(m):
        acc = set(neg) if acc is None else int_sumset(acc, neg)
    return acc


def naive_subgroup_masks(moduli):
    """All subgroups by checking closure of every subset containing zero."""
    order = 1
    for n in moduli:
        order *= n
    out = []
    for mask in range(1, 1 << order):
        if mask & 1 == 0:
            continue
        members = [i for i in range(order) if (mask >> i) & 1]
        if all(
            (mask >> add_idx(moduli, a, b)) & 1 for a in members for b in members
        ) and all((mask >> neg_idx(moduli, a)) & 1 for a in members):
            out.append(mask)
    return sorted(out)


def naive_coset_masks(moduli):
    """Every coset of every subgroup, as a set of masks."""
    order = 1
    for n in moduli:
        order *= n
    cosets = set()
    for h in naive_subgroup_masks(moduli):
        members = [i for i in range(order) if (h >> i) & 1]
        for t in range(order):
            m = 0
            for a in members:
                m |= 1 << add_idx(moduli, a, t)
            cosets.add(m)
    return cosets


def naive_is_coset(moduli, A):
    """A non-empty A is a coset when A - a0 is closed under addition, for its
    least member a0 (a finite non-empty set closed under addition is a subgroup)."""
    H = {add_idx(moduli, x, neg_idx(moduli, min(A))) for x in A}
    return all(add_idx(moduli, x, y) in H for x in H for y in H)


def divisor_coset_count(n):
    """Number of cosets in a cyclic group: one subgroup per divisor d, n/d translates."""
    return sum(n // d for d in range(1, n + 1) if n % d == 0)


def scale_idx(moduli, a, u):
    return encode(moduli, tuple(u * x for x in decode(moduli, a)))


@functools.lru_cache(maxsize=64)
def _ratio_subsets(moduli, A, base):
    """(|A+X|, |X|, bitmask of X, X) for every non-empty X inside base, by size.

    Arguments are tuples, so repeated searches over one base share the work."""
    return tuple(
        (len(naive_sumset(moduli, A, X)), size, sum(1 << x for x in X), X)
        for size in range(1, len(base) + 1)
        for X in itertools.combinations(sorted(base), size)
    )


def naive_minimizer(moduli, A, base):
    """(X, K) minimizing |A+X| / |X|; ties go to smaller |X|, then the smaller mask."""
    num, size, _, X = min(
        _ratio_subsets(moduli, A, base), key=lambda t: (Fraction(t[0], t[1]), t[1], t[2])
    )
    return sorted(X), Fraction(num, size)


def naive_violating_subset(moduli, A, X, K):
    """First proper non-empty X' (ascending mask) with |A+X'| <= K |X'|, else
    X itself when |A+X| != K |X|, else None."""
    by_mask = sorted((mask, num, size, Y) for num, size, mask, Y in _ratio_subsets(moduli, A, X))
    for _, num, size, Y in by_mask[:-1]:
        if num <= K * size:
            return sorted(Y)
    _, num, size, _ = by_mask[-1]  # the largest mask is X itself
    return None if num == K * size else sorted(X)


def _ascending_union_sizes(A, elems):
    """|A+X| for every subset X of ``elems``, the empty one first, in ascending mask order."""
    unions = [0]
    for x in elems:
        s = A.group.shift_mask(A.mask, x)
        unions += [u | s for u in unions]
    return [u.bit_count() for u in unions]


def ascending_minimizer(A, base):
    """(X, K) minimizing |A+X| / |X| over non-empty X inside ``base``, one
    candidate at a time in ascending mask order; ties go to smaller |X|, then
    the first mask. A and base are sumdiff GSets; X is a sorted tuple."""
    elems = base.elements()
    sizes = _ascending_union_sizes(A, elems)
    best_num, best_card, best_pos = sizes[1], 1, 1
    for cmask in range(2, len(sizes)):
        num, card = sizes[cmask], cmask.bit_count()
        d = num * best_card - best_num * card
        if d < 0 or (d == 0 and card < best_card):
            best_num, best_card, best_pos = num, card, cmask
    x = tuple(e for i, e in enumerate(elems) if best_pos >> i & 1)
    return x, Fraction(best_num, best_card)


def ascending_violating_subset(A, X, K):
    """First proper non-empty X' of X (ascending mask) with |A+X'| <= K |X'|,
    else X itself when |A+X| != K |X|, else None, one candidate at a time."""
    elems = X.elements()
    sizes = _ascending_union_sizes(A, elems)
    kn, kd = K.numerator, K.denominator
    full = len(sizes) - 1
    for cmask in range(1, full):
        if sizes[cmask] * kd <= kn * cmask.bit_count():
            return tuple(e for i, e in enumerate(elems) if cmask >> i & 1)
    return None if sizes[full] * kd == kn * len(elems) else elems


def _affine_perms(moduli, mode):
    """Every map x -> u*x + t of ``mode`` as a tuple over the element indices."""
    order = math.prod(moduli)
    if mode == "none":
        return {tuple(range(order))}
    exponent = math.lcm(*moduli)
    scalars = {
        "translation": [1],
        "translation+negation": [1, -1],
        "full-affine": [u for u in range(1, exponent + 1) if math.gcd(u, exponent) == 1],
    }[mode]
    return {
        tuple(add_idx(moduli, scale_idx(moduli, x, u), t) for x in range(order))
        for u in scalars
        for t in range(order)
    }


def _fixed_by_size(perm):
    """Coefficients of prod over cycles of (1 + x^len): fixed subsets by size."""
    seen = [False] * len(perm)
    poly = [1]
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            grown = poly + [0] * length
            for k, c in enumerate(poly):
                grown[k + length] += c
            poly = grown
    return poly


def burnside_orbit_count(moduli, mode, min_size=1, max_size=None):
    """Orbits of subsets with min_size <= |A| <= max_size under the maps of
    ``mode`` (Cauchy-Frobenius: the mean number of fixed subsets)."""
    perms = _affine_perms(tuple(moduli), mode)
    order = len(next(iter(perms)))
    hi = order if max_size is None else max_size
    total = 0
    for perm in perms:
        poly = _fixed_by_size(perm)
        total += sum(poly[min_size : hi + 1])
    assert total % len(perms) == 0, "the maps do not form a group"
    return total // len(perms)


@functools.lru_cache(maxsize=None)
def automorphism_perms(moduli):
    """Every automorphism of the group as a tuple over the element indices, by brute
    force over the images x_i of the factor generators: n_i x_i = 0, and the map
    from residues (d_i) to d_1 x_1 + ... + d_k x_k must be one-to-one."""
    order = math.prod(moduli)
    add = [[add_idx(moduli, a, b) for b in range(order)] for a in range(order)]
    perms = []

    def extend(k, values):  # values[a]: the image of a, for a in the first k factors
        if k == len(moduli):
            perms.append(tuple(values))
            return
        n = moduli[k]
        for x in range(order):
            if scale_idx(moduli, x, n) == 0:
                multiples = [scale_idx(moduli, x, d) for d in range(n)]
                grown = [add[v][m] for m in multiples for v in values]
                if len(set(grown)) == len(grown):
                    extend(k + 1, grown)

    extend(0, [0])
    return tuple(perms)


@functools.lru_cache(maxsize=None)
def aut_orbit_count(moduli):
    """Orbits of the non-empty subsets under G x| Aut(G), the maps x -> f(x) + t
    (Cauchy-Frobenius: the mean over the maps of 2^cycles - 1 fixed subsets)."""
    order = math.prod(moduli)
    rows = [[add_idx(moduli, x, t) for x in range(order)] for t in range(order)]
    total = maps = 0
    for f in automorphism_perms(moduli):
        for row in rows:
            perm = [row[y] for y in f]
            cycles = 0
            for start in range(order):
                if perm[start] >= 0:
                    cycles += 1
                    i = start
                    while perm[i] >= 0:
                        perm[i], i = -1, perm[i]
            total += (1 << cycles) - 1
            maps += 1
    assert total % maps == 0, "the maps do not form a group"
    return total // maps


def per_subset_sweep(claim, g, *, n=2, cap=20, equal=None):
    """The SweepSummary of ``claim`` on every non-empty subset of the group g,
    one verdict per subset in ascending mask order; the first 32 violating
    sets are listed. Given a set ``equal``, the masks of the equality cases
    are added to it."""
    from sumdiff.sets import GSet
    from sumdiff.theorems import SweepSummary, run_claim

    counts = {"holds": 0, "equality-case": 0, "violated": 0}
    violations = []
    for mask in range(1, 1 << g.order):
        A = GSet.from_mask(g, mask)
        outcome = run_claim(claim, A, n=n, cap=cap).outcome
        counts[outcome] += 1
        if outcome == "equality-case" and equal is not None:
            equal.add(mask)
        if outcome == "violated" and len(violations) < 32:
            violations.append(str(A))
    return SweepSummary(claim, g, (1 << g.order) - 1, counts, tuple(violations))


def int_window_representatives(width, mode, sizes, lo, hi):
    """The (mask, orbit size) pairs of an integer-window scan of 0..width-1 with
    masks in [lo, hi) and set sizes in ``sizes``, judged mask by mask. In mode
    none every set is its own class. Otherwise a representative holds 0, the
    least element of its translates, and under negation (every other mode) its
    mirror max(A) - A is not below it as a mask. Its class holds its
    width - max(A) translates, twice as many when the mirror differs."""
    pairs = []
    for mask in range(max(lo, 1), min(hi, 1 << width)):
        A = [i for i in range(width) if mask >> i & 1]
        if len(A) not in sizes:
            continue
        if mode == "none":
            pairs.append((mask, 1))
            continue
        mirror = sum(1 << (A[-1] - a) for a in A)
        if A[0] != 0 or (mode != "translation" and mirror < mask):
            continue
        pairs.append((mask, (width - A[-1]) * (1 if mode == "translation" or mirror == mask else 2)))
    return pairs


def csv_writer_text(records, campaign=None):
    """The scan csv of ``records`` as csv.writer writes each ``csv_row``, after
    the tool/campaign header comment."""
    from sumdiff._version import VERSION
    from sumdiff.explorer import CSV_COLUMNS, SearchRecord

    buf = io.StringIO()
    buf.write(f"# sumdiff {VERSION}" + ("" if campaign is None else " | " + campaign.describe()) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(SearchRecord.csv_row, records))
    return buf.getvalue()
