"""Minimizing subsets, the element-by-element induction replay, and equality
certificates.

For a fixed A, the key quantity is the ratio K = |A+X| / |X| minimized over
non-empty X inside a chosen base set. A minimizer of least cardinality makes
|A+X'| > K |X'| strict on every proper non-empty X' (a tight proper subset
would itself be a smaller minimizer), and then |A+X+C| <= K |X+C| holds for
every C. The replay walks C one element at a time and logs which of the three
equality conditions hold at each step; the equality case is certified by the
subset Q of C whose translates contribute disjoint fresh blocks.

Subset searches are exact over all 2^n subsets of an n-element base, but
decide most candidates a block at a time. The base is split into a low part
of w = max(ceil(n/2), min(n, 10)) elements and a high part of the rest, each
with a table of the prefix unions of A's translates over its own subsets, so
a candidate's A+X is one word-OR of a high entry with a low entry and the
search holds at most 2^10 masks for n <= 20 (2^ceil(n/2) above), never 2^n.
A block is one high entry paired with one popcount class of the low part;
every |A+X| in it is at least the largest of the high entry's size, that
class's least low-entry size and |X|, so a block whose bound cannot matter is
skipped whole, and a block that is counted costs one OR and one popcount per
candidate in a plain loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from .errors import (
    CapExceededError,
    CertificateError,
    EmptySetError,
    HypothesisViolationError,
)
from .groups import GroupSpec, _prefix_unions
from .sets import GSet, _require_same_group, independent, sumset

__all__ = [
    "MINIMIZER_CAP",
    "MinimizerResult",
    "ComparisonRecord",
    "TraceStep",
    "InductionTrace",
    "EqualityCertificate",
    "find_minimizer",
    "verify_hypothesis",
    "petridis_inequality",
    "replay_trace",
    "extract_certificate",
    "brute_force_certificate",
]

MINIMIZER_CAP = 20  # default cap on |base| or |X| for the exhaustive subset searches below


@dataclass(frozen=True)
class MinimizerResult:
    x: GSet
    k: Fraction
    strict_on_proper_subsets: bool


@dataclass(frozen=True)
class ComparisonRecord:
    """One exact comparison |A+X+C| vs K |X+C|."""

    lhs: int
    rhs: Fraction
    equality: bool
    holds: bool


@dataclass(frozen=True)
class TraceStep:
    index: int  # k, 1-based
    element: int  # c_k
    x_k: GSet  # members x with x + A + c_k already covered
    y_k: GSet  # members x with x + c_k already covered
    lhs_size: int  # |X + A + C_k|
    xc_size: int  # |X + C_k|
    slack: Fraction  # K |X + C_k| - |X + A + C_k|
    conditions: tuple[bool, bool, bool]  # disjoint union; x_k in {empty, X}; y_k == x_k


@dataclass(frozen=True)
class InductionTrace:
    a: GSet
    x: GSet
    c: GSet
    order: tuple[int, ...]
    k: Fraction
    steps: tuple[TraceStep, ...]
    equality: bool


@dataclass(frozen=True)
class EqualityCertificate:
    """A subset Q of C with X+C = X+Q and A+X independent of Q."""

    q: GSet


_LOW_WIDTH = 10  # the low table covers min(n, 10) elements, or ceil(n/2) if more


@cache
def _classes(w: int) -> tuple[tuple[int, ...], ...]:
    """The masks 0 .. 2^w - 1 grouped by popcount, ascending within each group."""
    groups = [[] for _ in range(w + 1)]
    for i in range(1 << w):
        groups[i.bit_count()].append(i)
    return tuple(map(tuple, groups))


def _tables(shifts: list[int]) -> tuple[list[int], list[int]]:
    """The walk's low and high prefix-union tables over ``shifts``: the low part is the first
    w = max(ceil(n/2), min(n, 10)) of the n shifts, the high part the rest."""
    n = len(shifts)
    w = n if n <= _LOW_WIDTH else max((n + 1) // 2, _LOW_WIDTH)
    return _prefix_unions(shifts[:w]), _prefix_unions(shifts[w:])


def _blocks(a_card: int, tables: tuple[list[int], list[int]], limit: Callable[[int], int]):
    """The subset walk over the prefix-union tables of ``_tables``, row by row in ascending mask order.

    A candidate X is a high-part mask j above a low-part mask i; its union
    A+X is ``high[j] | low[i]``. Row j holds one block per popcount class c
    of the low part, so all candidates of a block have |X| = |j| + c. The
    walk yields ``(card, least, first, scan)`` for each block, in ascending
    c, whose least |A+X| is at most ``limit(card)``: ``first`` is the first
    mask reaching ``least`` and ``scan`` is what ``_first_at_most`` needs.
    It yields None at the end of every row. ``limit`` is read afresh at
    every block. Before a block is counted, its lower bound
    max(|high[j]|, floor[c], |X|) is checked against the limit: floor[c] is
    |A| (every non-empty X has |A+X| >= |A|) until row 0 has counted class
    c, and then that class's least |low[i]|, since high[0] is empty; and
    |A+X| >= |X| in every group.
    """
    low, high = tables
    w = len(low).bit_length() - 1
    classes = _classes(w)
    floors = [0] + [a_card] * w
    for j, h in enumerate(high):
        hc, hs, hi = j.bit_count(), h.bit_count(), j << w
        for c in range(not j, w + 1):
            card = hc + c
            t = limit(card)
            if hs > t or floors[c] > t or card > t:
                continue
            least = a_card * card + 1  # |A+X| <= |A| |X|
            for i in classes[c]:
                size = (h | low[i] if j else low[i]).bit_count()
                if size < least:
                    least, first = size, i
            if not j:
                floors[c] = least
            if least <= t:
                yield card, least, hi | first, (hi, classes[c], h, low)
        yield None


def _first_at_most(scan: tuple, size: int) -> int:
    """The first candidate mask of a block with |A+X| <= size; there is one."""
    hi, cls, h, low = scan
    return hi | next(i for i in cls if (h | low[i]).bit_count() <= size)


def _subset_of(g: GroupSpec, elems: tuple[int, ...], cmask: int) -> GSet:
    mask = 0
    for i, x in enumerate(elems):
        if cmask >> i & 1:
            mask |= 1 << x
    return GSet.from_mask(g, mask)


def find_minimizer(A: GSet, base: GSet, cap: int = MINIMIZER_CAP) -> MinimizerResult:
    """Global minimum of |A+X| / |X| over non-empty X inside ``base``.

    Exact over all 2^|base| - 1 candidates. Ties go to the smaller
    cardinality, then the smaller bitmask, so the result is reproducible.

    The search starts from the whole base as the best so far and walks the
    blocks of ``_blocks`` in ascending mask order. A block is counted only
    when its lower bound could still beat the best, on ratio or on |X| at an
    equal ratio, and the best then moves to the block's least |A+X| at the
    first mask that reaches it. All candidates of a block share |X|, and a
    later block of the same |X| holds only larger masks, so a tie on ratio
    and |X| keeps the earlier mask: the result is that of a walk over every
    candidate in mask order. The strictness flag rechecks the result with
    an independent walk over the subsets of X, under its own limit. When X
    is the whole base, its prefix-union tables are the search's own, so the
    recheck walks those tables instead of building the same ones again.
    """
    _require_same_group(A, base, "find_minimizer")
    if not A.card:
        raise EmptySetError("find_minimizer needs a non-empty A")
    if not base.card:
        raise EmptySetError("find_minimizer needs a non-empty base")
    if base.card > cap:
        raise CapExceededError(f"minimizer base size {base.card} exceeds cap {cap}")
    elems = base.elements()
    shifts = [A.group.shift_mask(A.mask, x) for x in elems]
    tables = _tables(shifts)
    best_num, best_card = (tables[0][-1] | tables[1][-1]).bit_count(), len(elems)
    best_pos = (1 << best_card) - 1

    def limit(card: int) -> int:
        # the largest |A+X| with which a candidate of this |X| would beat the best
        return (best_num * card - (card >= best_card)) // best_card

    for block in _blocks(A.card, tables, limit):
        if block:
            best_card, best_num, best_pos, _ = block
    k = Fraction(best_num, best_card)
    if best_card < len(elems):  # else X is the base, whose tables the recheck walks again
        tables = _tables([s for i, s in enumerate(shifts) if best_pos >> i & 1])
    return MinimizerResult(_subset_of(A.group, elems, best_pos), k, _violation(A.card, tables, k) is None)


def _violation(a_card: int, tables: tuple[list[int], list[int]], K: Fraction) -> int | None:
    """The mask of the first witness against the equality hypothesis, or None.

    The hypothesis: |A+X| = K |X| exactly, and |A+X'| > K |X'| for every
    proper non-empty X' of X, where ``tables`` are the ``_tables`` of X's
    shifts. Proper subsets are searched in ascending-mask order, a block at
    a time: a block is counted only when its lower bound is at most
    floor(K |X'|), and the first row with a hit gives the witness, the least
    of its blocks' first hits. The full mask is reported last if its
    equality fails. All comparisons are on integers.
    """
    low, high = tables
    n = (len(low) * len(high)).bit_length() - 1
    kn, kd = K.numerator, K.denominator

    def limit(card: int) -> int:
        return -1 if card == n else kn * card // kd  # the full set is no proper subset

    hits = []
    for block in _blocks(a_card, tables, limit):
        if block:
            hits.append(_first_at_most(block[3], limit(block[0])))
        elif hits:  # the end of the first row with a hit
            return min(hits)
    return None if (low[-1] | high[-1]).bit_count() * kd == kn * n else (1 << n) - 1


def _checked_violation(A: GSet, X: GSet, K: Fraction, cap: int) -> GSet | None:
    """First witness against the equality hypothesis for X, or None."""
    if not X.card:
        raise EmptySetError("hypothesis check needs a non-empty X")
    if X.card > cap:
        raise CapExceededError(f"hypothesis check over {X.card} elements exceeds cap {cap}")
    elems = X.elements()
    bad = _violation(A.card, _tables([A.group.shift_mask(A.mask, x) for x in elems]), K)
    return None if bad is None else _subset_of(A.group, elems, bad)


def verify_hypothesis(A: GSet, X: GSet, K, cap: int = MINIMIZER_CAP) -> bool:
    """Exhaustive exact check of |A+X| = K|X| plus strictness on proper subsets."""
    return _checked_violation(A, X, Fraction(K), cap) is None


def petridis_inequality(
    A: GSet, X: GSet, K, C: GSet, *, check_hypothesis: bool = True, cap: int = MINIMIZER_CAP
) -> ComparisonRecord:
    """Exact comparison of |A+X+C| against K |X+C|.

    Under the verified hypothesis the verdict is always <=; the record says
    whether it is an equality.
    """
    K = Fraction(K)
    if check_hypothesis:
        bad = _checked_violation(A, X, K, cap)
        if bad is not None:
            raise HypothesisViolationError(
                f"hypothesis fails for X' = {bad}: |A+X'| <= K|X'|"
                if bad != X
                else f"|A+X| != K|X| for X = {bad}",
                violating=bad,
            )
    if not C.card:
        raise EmptySetError("petridis_inequality needs a non-empty C")
    lhs = sumset(sumset(A, X), C).card
    rhs = K * sumset(X, C).card
    return ComparisonRecord(lhs, rhs, lhs == rhs, lhs <= rhs)


def replay_trace(A: GSet, X: GSet, C: GSet, order=None) -> InductionTrace:
    """Replay the induction over C's elements, logging equality conditions.

    Step k adjoins c_k to the growing prefix C_k. x_k collects the members x
    whose translate x+A+c_k is already covered by X+A+C_{k-1} (empty at k=1,
    where the previous prefix is empty); y_k the x with x+c_k already in
    X+C_{k-1}. The three recorded conditions are: the fresh part of X+A+c_k
    is disjoint from the previous union; x_k is empty or all of X; y_k equals
    x_k. They hold at every step exactly when the final comparison is an
    equality.

    The extracted certificate depends on the processing order, which is an
    explicit parameter (default: ascending element index) and is recorded.
    """
    _require_same_group(A, X, "replay_trace")
    _require_same_group(A, C, "replay_trace")
    if not A.card or not X.card:
        raise EmptySetError("replay_trace needs non-empty A and X")
    if not C.card:
        raise EmptySetError("replay_trace needs a non-empty C")
    order = tuple(order) if order is not None else C.elements()
    if sorted(order) != list(C.elements()):
        raise ValueError("order must be a permutation of C's elements")
    g = A.group
    ax_mask = sumset(A, X).mask
    k_ratio = Fraction(ax_mask.bit_count(), X.card)
    a_mask = A.mask
    x_elems = X.elements()
    axc_prev = 0
    xc_prev = 0
    steps = []
    for k, ck in enumerate(order, 1):
        xk = 0
        yk = 0
        covered = 0  # union of x + A + c_k over x in x_k
        for x in x_elems:
            t = g.add(x, ck)
            xa_t = g.shift_mask(a_mask, t)
            if xa_t & ~axc_prev == 0:
                xk |= 1 << x
                covered |= xa_t
            if (xc_prev >> t) & 1:
                yk |= 1 << x
        ax_ck = g.shift_mask(ax_mask, ck)
        x_ck = g.shift_mask(X.mask, ck)
        cond_disjoint = axc_prev & (ax_ck & ~covered) == 0
        cond_all_or_none = xk == 0 or xk == X.mask
        cond_y_eq_x = yk == xk
        axc = axc_prev | ax_ck
        xc = xc_prev | x_ck
        lhs = axc.bit_count()
        xcs = xc.bit_count()
        steps.append(
            TraceStep(
                k,
                ck,
                GSet.from_mask(g, xk),
                GSet.from_mask(g, yk),
                lhs,
                xcs,
                k_ratio * xcs - lhs,
                (cond_disjoint, cond_all_or_none, cond_y_eq_x),
            )
        )
        axc_prev, xc_prev = axc, xc
    return InductionTrace(A, X, C, order, k_ratio, tuple(steps), steps[-1].slack == 0)


def extract_certificate(trace: InductionTrace) -> EqualityCertificate | None:
    """Q = the c_k whose translate contributed a fresh disjoint block (x_k empty).

    Returns None on a strict trace. On an equality trace the certificate is
    validated against both defining conditions; a validation failure raises,
    since it can only come from an implementation bug.
    """
    if not trace.equality:
        return None
    g = trace.a.group
    qmask = 0
    for st in trace.steps:
        if st.x_k.card == 0:
            qmask |= 1 << st.element
    q = GSet.from_mask(g, qmask)
    if sumset(trace.x, q) != sumset(trace.x, trace.c) or not independent(
        sumset(trace.a, trace.x), q
    ):
        raise CertificateError(
            f"equality trace produced an invalid certificate Q = {q}"
        )
    return EqualityCertificate(q)


def brute_force_certificate(A: GSet, X: GSet, C: GSet, cap: int = 16) -> EqualityCertificate | None:
    """Independent oracle: search every non-empty Q inside C for the certificate.

    Candidates are tried in (cardinality, bitmask) order and the first one
    satisfying both conditions wins, so the chosen Q is reproducible.
    """
    _require_same_group(A, X, "brute_force_certificate")
    _require_same_group(A, C, "brute_force_certificate")
    if not A.card or not X.card or not C.card:
        raise EmptySetError("brute_force_certificate needs non-empty A, X, C")
    if C.card > cap:
        raise CapExceededError(f"certificate search over {C.card} elements exceeds cap {cap}")
    g = A.group
    xc = sumset(X, C)
    ax = sumset(A, X)
    cands = []
    sub = C.mask
    while sub:
        cands.append(sub)
        sub = (sub - 1) & C.mask
    cands.sort(key=lambda m: (m.bit_count(), m))
    for qmask in cands:
        q = GSet.from_mask(g, qmask)
        if sumset(X, q) == xc and independent(ax, q):
            return EqualityCertificate(q)
    return None
