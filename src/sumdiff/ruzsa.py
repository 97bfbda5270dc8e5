"""Witness tables for the injection A x (A-A) -> (A+A) x (A+A).

Every difference w gets one canonical representation w = u - v with u, v in
A; the injection then sends (a, w) to (a + u', a + v') for that witness pair.
Injectivity of this map is the constructive content of the size bound
|A| |A-A| <= |A+A|^2, and surjectivity characterizes cosets exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptySetError
from .sets import GSet, diffset, sumset

__all__ = [
    "WitnessTable",
    "InjectionTable",
    "build_witness_table",
    "build_injection",
    "verify_injective",
    "check_surjective",
]


@dataclass
class WitnessTable:
    """For each difference w, a pair (u, v) of members with u - v = w."""

    base: GSet
    pairs: dict  # w -> (u, v)


@dataclass
class InjectionTable:
    """Total map on A x (A-A); value at (a, w) is (a + u, a + v)."""

    base: GSet
    witness: WitnessTable
    pairs: dict  # (a, w) -> (out1, out2)
    image: int = field(init=False)  # how many distinct values the map takes

    def __post_init__(self):
        self.image = len(set(self.pairs.values()))


def build_witness_table(A: GSet) -> WitnessTable:
    """Canonical witnesses: the lexicographically least (u, v) per difference.

    Since v = u - w is forced once u is chosen, the least member u of
    A & (A + w) gives the lexicographic minimum; in particular the difference
    0 is always witnessed by (a0, a0) with a0 the least member.
    """
    if not A.card:
        raise EmptySetError("witness table needs a non-empty set")
    g = A.group
    pairs, add, neg = {}, g.add, g.scale_table(-1)
    for w in diffset(A, A):
        both = A.mask & g.shift_mask(A.mask, w)
        u = (both & -both).bit_length() - 1
        pairs[w] = (u, add(u, neg[w]))
    return WitnessTable(A, pairs)


def build_injection(A: GSet, witness: WitnessTable | None = None) -> InjectionTable:
    """Materialize the map on all of A x (A-A)."""
    if witness is None:
        witness = build_witness_table(A)
    elif witness.base != A:
        raise ValueError("witness table was built from a different set")
    # Both members of every witness pair lie in A, so a table of a + u over
    # pairs of members holds every output: |A|^2 sums, not 2 |A| |A-A|.
    add = A.group.add
    members = A.elements()
    sums = {a: {u: add(a, u) for u in members} for a in members}
    items = witness.pairs.items()
    out = {(a, w): (row[u], row[v]) for a, row in sums.items() for w, (u, v) in items}
    return InjectionTable(A, witness, out)


def verify_injective(inj: InjectionTable) -> bool:
    """True iff no two domain points share a value.

    Expected to hold for every non-empty set; a False return means the
    construction itself is broken.
    """
    return inj.image == len(inj.pairs)


def check_surjective(inj: InjectionTable, sum_card: int | None = None) -> bool:
    """True iff every pair in (A+A) x (A+A) is attained; ``sum_card`` is |A+A| if known."""
    if sum_card is None:
        sum_card = sumset(inj.base, inj.base).card
    return inj.image == sum_card**2
