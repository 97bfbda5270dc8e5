"""Subsets of a finite abelian group and the sumset/difference-set kernels.

GSet is the universal set object: an immutable dense bitmask over element
indices with a cached cardinality. The sumset kernel unions one shifted copy
of the larger operand's mask per element of the smaller operand, so A+B costs
O(min(|A|,|B|) * N / wordsize). The doubling constant sigma = |A+A|/|A| and
difference constant delta = |A-A|/|A| are exact `fractions.Fraction` values;
nothing on a decision path ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import index
from typing import Iterable, Iterator

from .errors import EmptySetError, GroupMismatchError, InvalidElementError
from .groups import GroupSpec, iter_bits

__all__ = [
    "GSet",
    "sumset",
    "diffset",
    "iterated",
    "sigma",
    "delta",
    "independent",
    "embed_integer_set",
    "subsets",
]

class GSet:
    """An immutable subset of a finite abelian group, stored as a bitmask."""

    __slots__ = ("group", "mask", "card")

    def __init__(self, group: GroupSpec, members: Iterable[int] = ()):
        mask = 0
        for a in members:
            group.check_element(a)
            mask |= 1 << a
        self.group = group
        self.mask = mask
        self.card = mask.bit_count()

    @classmethod
    def from_mask(cls, group: GroupSpec, mask: int) -> "GSet":
        if not 0 <= mask <= group.full_mask:
            raise InvalidElementError(f"mask {mask:#x} out of range for {group.label()}")
        inst = cls.__new__(cls)
        inst.group = group
        inst.mask = mask
        inst.card = mask.bit_count()
        return inst

    def __len__(self) -> int:
        return self.card

    def __bool__(self) -> bool:
        return self.card > 0

    def __iter__(self) -> Iterator[int]:
        return iter(iter_bits(self.mask))

    def __contains__(self, a: int) -> bool:
        return isinstance(a, int) and 0 <= a < self.group.order and (self.mask >> a) & 1 == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group == other.group and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.group, self.mask))

    def __str__(self) -> str:
        return ",".join(map(str, self)) + "@" + self.group.label()

    def __repr__(self) -> str:
        return f"GSet({str(self)!r})"

    def elements(self) -> tuple[int, ...]:
        return iter_bits(self.mask)

    def issubset(self, other: "GSet") -> bool:
        _require_same_group(self, other, "issubset")
        return self.mask & ~other.mask == 0

    def translate(self, t: int) -> "GSet":
        return GSet.from_mask(self.group, self.group.shift_mask(self.mask, t))

    def negate(self) -> "GSet":
        return GSet.from_mask(self.group, self.group.neg_mask(self.mask))

    def __add__(self, other):
        if not isinstance(other, GSet):
            return NotImplemented
        return sumset(self, other)

    def __sub__(self, other):
        if not isinstance(other, GSet):
            return NotImplemented
        return diffset(self, other)

    def __neg__(self) -> "GSet":
        return self.negate()


def _require_same_group(A: GSet, B: GSet, op: str) -> None:
    if A.group != B.group:
        raise GroupMismatchError(
            f"{op}: operands live in {A.group.label()} vs {B.group.label()}"
        )


def sumset(A: GSet, B: GSet) -> GSet:
    """Pairwise-sum set {a + b : a in A, b in B}."""
    _require_same_group(A, B, "sumset")
    if not A.card or not B.card:
        return GSet.from_mask(A.group, 0)
    small, big = (A, B) if A.card <= B.card else (B, A)
    g = A.group
    bm = big.mask
    acc = 0
    for a in iter_bits(small.mask):
        acc |= g.shift_mask(bm, a)
    return GSet.from_mask(g, acc)


def diffset(A: GSet, B: GSet) -> GSet:
    """Pairwise-difference set {a - b : a in A, b in B}."""
    _require_same_group(A, B, "diffset")
    return sumset(A, B.negate())


def iterated(A: GSet, n: int, m: int) -> GSet:
    """The n-fold sum minus m-fold sum nA - mA, by repeated kernel folding."""
    if n < 0 or m < 0 or n + m == 0:
        raise ValueError(f"need n, m >= 0 with n + m >= 1, got n={n}, m={m}")
    if not A.card:
        raise EmptySetError("iterated sumset needs a non-empty set")
    return reduce(sumset, [A] * n + ([A.negate()] * m if m else []))


def sigma(A: GSet) -> Fraction:
    """Doubling constant |A+A| / |A|, exact."""
    if not A.card:
        raise EmptySetError("sigma is undefined for the empty set")
    return Fraction(sumset(A, A).card, A.card)


def delta(A: GSet) -> Fraction:
    """Difference constant |A-A| / |A|, exact."""
    if not A.card:
        raise EmptySetError("delta is undefined for the empty set")
    return Fraction(diffset(A, A).card, A.card)


def independent(A: GSet, B: GSet) -> bool:
    """True iff all sums a + b are distinct, i.e. |A+B| = |A| |B|."""
    _require_same_group(A, B, "independent")
    if not A.card or not B.card:
        raise EmptySetError("independence needs two non-empty sets")
    return sumset(A, B).card == A.card * B.card


def embed_integer_set(s: Iterable[int], n: int, m: int) -> tuple[GroupSpec, GSet]:
    """Wraparound-safe modular image of a finite integer set.

    Translates so min(S) = 0 and picks modulus M = (n+m) * (max-min) + 1.
    Every iterated set n'A - m'A with n' + m' <= n + m then lives in an
    integer interval of length (n'+m') * (max-min) < M, so reduction mod M is
    injective on it and all cardinalities match the integer computation.
    """
    s = tuple(s)
    if bad := [v for v in s if not hasattr(type(v), "__index__")]:  # int() would read "3" as 3 and 1.5 as 1
        raise TypeError(f"integer set element {bad[0]!r} is not an integer")
    pts = sorted(set(map(index, s)))
    if not pts:
        raise EmptySetError("cannot embed an empty integer set")
    if n < 0 or m < 0 or n + m == 0:
        raise ValueError(f"need n, m >= 0 with n + m >= 1, got n={n}, m={m}")
    lo, hi = pts[0], pts[-1]
    g = GroupSpec(((n + m) * (hi - lo) + 1,))
    return g, GSet(g, (v - lo for v in pts))


def subsets(g: GroupSpec, min_size: int = 1, max_size: int | None = None) -> Iterator[GSet]:
    """All subsets of the full group in ascending bitmask order."""
    hi = g.order if max_size is None else max_size
    start = 0 if min_size <= 0 else 1
    for mask in range(start, 1 << g.order):
        if min_size <= mask.bit_count() <= hi:
            yield GSet.from_mask(g, mask)
