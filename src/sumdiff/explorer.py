"""Exhaustive enumeration of subsets of small groups and bounded integer sets.

Campaigns walk a universe (one group, or integer sets drawn from a window),
deduplicate by symmetry orbits, and emit one SearchRecord per canonical
representative: exact sizes of A, A+A, A-A, the constants sigma and delta,
structural flags, and float exponents for reporting only. Aggregate counts
are orbit-weighted, i.e. they describe the raw universe before dedup.

Canonical representative = the lexicographically least bitmask in the orbit.
Enumeration is in ascending representative order, one stream in one process. Z_N's orbits in
every mode but none come from a necklace generator; a product group's in modes translation and
translation+negation from a block-necklace generator, which also gives the full-affine ones
when its only units are +-1; its other full-affine ones (also under automorphisms) come from a
walk over the masks; an integer window's are read off by top bit. All cut into mask ranges
whose results concatenate (resumable output).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

from ._version import VERSION
from .errors import CapExceededError
from .groups import GroupSpec, _prefix_unions, iter_bits, is_coset
from .sets import GSet

__all__ = [
    "MODE_NONE",
    "MODE_TRANSLATION",
    "MODE_TRANSLATION_NEGATION",
    "MODE_FULL_AFFINE",
    "MODES",
    "PENMAN_WELLS_EXPONENT",
    "SearchRecord",
    "Campaign",
    "ScanSummary",
    "ExponentReport",
    "enumerate_canonical",
    "scan",
    "find_mstd",
    "exponent_report",
    "write_csv",
    "CSV_COLUMNS",
]

MODE_NONE = "none"
MODE_TRANSLATION = "translation"
MODE_TRANSLATION_NEGATION = "translation+negation"
MODE_FULL_AFFINE = "full-affine"
MODES = (MODE_NONE, MODE_TRANSLATION, MODE_TRANSLATION_NEGATION, MODE_FULL_AFFINE)

# Best known lower bound for the exponent C in sigma <= delta^C.
PENMAN_WELLS_EXPONENT = math.log(32 / 5) / math.log(26 / 5)  # = 1.12594...

CSV_COLUMNS = (
    "group",
    "set",
    "card",
    "sum_card",
    "diff_card",
    "sigma_num",
    "sigma_den",
    "delta_num",
    "delta_den",
    "coset",
    "mstd",
    "eq_upper",
    "eq_lower",
)


@dataclass(frozen=True, slots=True)
class SearchRecord:
    group: str  # group label, or "Z" for integer mode
    elements: tuple[int, ...]
    card: int
    sum_card: int
    diff_card: int
    coset: bool
    orbit_size: int

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.sum_card, self.card)

    @property
    def delta(self) -> Fraction:
        return Fraction(self.diff_card, self.card)

    @property
    def mstd(self) -> bool:
        """More sums than differences."""
        return self.sum_card > self.diff_card

    @property
    def balanced(self) -> bool:
        return self.sum_card == self.diff_card

    @property
    def eq_upper(self) -> bool:
        """delta = sigma^2."""
        return self.diff_card * self.card == self.sum_card**2

    @property
    def eq_lower(self) -> bool:
        """sigma = delta^2."""
        return self.sum_card * self.card == self.diff_card**2

    @property
    def exponent_up(self) -> float | None:
        """log sigma / log delta, report-only; None when sigma or delta is 1."""
        if self.sum_card == self.card or self.diff_card == self.card:
            return None
        return math.log(self.sum_card / self.card) / math.log(self.diff_card / self.card)

    @property
    def exponent_down(self) -> float | None:
        """log delta / log sigma, report-only; None when sigma or delta is 1."""
        if self.sum_card == self.card or self.diff_card == self.card:
            return None
        return math.log(self.diff_card / self.card) / math.log(self.sum_card / self.card)

    def set_literal(self) -> str:
        return ",".join(map(str, self.elements)) + "@" + self.group

    def csv_row(self) -> tuple:
        card, s, d = self.card, self.sum_card, self.diff_card
        flags = [str(f).lower() for f in (self.coset, self.mstd, self.eq_upper, self.eq_lower)]
        ratios = *_reduced(s, card), *_reduced(d, card)
        return self.group, ",".join(map(str, self.elements)), card, s, d, *ratios, *flags

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "set": ",".join(map(str, self.elements)),
            "card": self.card,
            "sum_card": self.sum_card,
            "diff_card": self.diff_card,
            "sigma": list(_reduced(self.sum_card, self.card)),
            "delta": list(_reduced(self.diff_card, self.card)),
            "coset": self.coset,
            "mstd": self.mstd,
            "balanced": self.balanced,
            "eq_upper": self.eq_upper,
            "eq_lower": self.eq_lower,
            "exponent_up": self.exponent_up,
            "exponent_down": self.exponent_down,
            "orbit_size": self.orbit_size,
        }


def _reduced(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms, the numerator and denominator of Fraction(p, q) for q >= 1."""
    g = math.gcd(p, q)
    return p // g, q // g


@lru_cache(maxsize=1024)  # bounded: a Z20 scan has 154 distinct keys, ints 0..15 has 251
def _csv_tail(card: int, s: int, d: int, coset: bool) -> str:
    """The csv line after the set, newline included: its ints and bools need no quotes."""
    return ",".join(map(str, SearchRecord("", (), card, s, d, coset, 1).csv_row()[2:])) + "\n"


@lru_cache(maxsize=64)  # bounded: one scan has one label
def _csv_field(text: str) -> str:
    """``text`` as csv.writer(fh, lineterminator="\\n") writes it in a row of several fields."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n') else text


@dataclass(frozen=True)
class Campaign:
    """One enumeration: universe, symmetry mode, size bounds, filters."""

    group: GroupSpec | None = None
    ints: tuple[int, int] | None = None  # inclusive integer window
    min_size: int = 1
    max_size: int | None = None
    mode: str = MODE_TRANSLATION_NEGATION
    mstd_only: bool = False
    group_cap: int = 24
    width_cap: int = 16

    def validate(self) -> None:
        if (self.group is None) == (self.ints is None):
            raise ValueError("campaign needs exactly one of group= or ints=")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        ends = dict(zip(("ints[0]", "ints[1]"), self.ints or ()))
        bounds = {"min_size": self.min_size, "max_size": self.max_size, **ends, "group_cap": self.group_cap,
                  "width_cap": self.width_cap}
        if bad := [k for k, v in bounds.items() if not hasattr(type(v), "__index__") and (k, v) != ("max_size", None)]:
            raise TypeError(f"{bad[0]} must be an integer, got {bounds[bad[0]]!r}")
        if self.min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {self.min_size}")
        if self.max_size is not None and self.max_size < self.min_size:
            raise ValueError(f"empty size window {self.min_size}..{self.max_size}")
        if self.group is not None and self.group.order > self.group_cap:
            raise CapExceededError(
                f"group order {self.group.order} exceeds scan cap {self.group_cap}"
            )
        if self.ints is not None:
            lo, hi = self.ints
            if hi < lo:
                raise ValueError(f"empty integer window {lo}..{hi}")
            if hi - lo + 1 > self.width_cap:
                raise CapExceededError(
                    f"integer window width {hi - lo + 1} exceeds cap {self.width_cap}"
                )
        if self.min_size > self.width():
            raise ValueError(f"min_size {self.min_size} exceeds the universe's {self.width()} elements")

    def width(self) -> int:
        if self.group is not None:
            return self.group.order
        lo, hi = self.ints
        return hi - lo + 1

    def describe(self) -> str:
        universe = self.group.label() if self.group else f"ints {self.ints[0]}..{self.ints[1]}"
        hi = self.max_size if self.max_size is not None else self.width()
        parts = [
            f"universe={universe}",
            f"sizes={self.min_size}..{hi}",
            f"mode={self.mode}",
        ]
        if self.mstd_only:
            parts.append("filter=mstd")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.label() if self.group else None,
            "ints": list(self.ints) if self.ints else None,
            "min_size": self.min_size,
            "max_size": self.max_size,
            "mode": self.mode,
            "mstd_only": self.mstd_only,
        }


# -- orbit machinery ---------------------------------------------------------


@lru_cache(maxsize=32)
def _byte_images(table: tuple) -> tuple:
    """For each of the four bytes of a mask below 2^32 (a walk covers at most 2^30 masks), the image
    under the index table ``table`` of each value of that byte: at most 4 x 256 masks."""
    return tuple(tuple(_prefix_unions([1 << i for i in table[k : k + 8]])) for k in range(0, 32, 8))


def _group_orbit(g: GroupSpec, mask: int, mode: str, maps: tuple = ()) -> set:
    """Every image of ``mask`` under the symmetries of ``mode`` (not ``none``) and the
    automorphism index tables ``maps`` of a group of at most 32 elements. A map is applied by
    one read of its ``_byte_images`` per mask byte; those are cached per index table, so a
    walk builds them once, not once per orbit."""
    orbit, classes = set(g.translates(mask)), [mask]
    if mode != MODE_TRANSLATION:
        units = (-1,) if mode == MODE_TRANSLATION_NEGATION else g.units()
        for s in {g.scale_mask(mask, u) for u in units}:
            if s not in orbit:  # else its translates are already in
                orbit.update(g.translates(s))
                classes.append(s)
    byte_maps = [_byte_images(table) for table in maps]
    for b in classes if maps else ():  # a BFS over translation classes, as f(A + t) = f(A) + f(t)
        for t0, t1, t2, t3 in byte_maps:
            s = t0[b & 255] | t1[b >> 8 & 255] | t2[b >> 16 & 255] | t3[b >> 24]
            if s not in orbit:
                orbit.update(g.translates(s))
                classes.append(s)
    return orbit


def _walks(campaign: Campaign, lo: int, hi_mask: int, maps: tuple = ()) -> bool:
    """Whether the orbits in [lo, hi) come from the visited walk: a product group's full-affine ones
    under automorphism tables ``maps`` (a sweep's) or units other than +-1. A group of exponent 1, 2,
    3, 4 or 6 has only those, so with no ``maps`` its full-affine orbits are its translation+negation
    classes. A walk refuses more than 2^30 masks, a byte each in its visited array."""
    g = campaign.group
    walks = g is not None and len(g.moduli) > 1 and campaign.mode == MODE_FULL_AFFINE and (maps or len(g.units()) > 2)
    if walks and hi_mask - lo > 1 << 30:
        raise CapExceededError(f"full-affine orbits of {g.label()} walk {hi_mask - lo} masks, above 2^30")
    return bool(walks)


def _sizes(campaign: Campaign) -> bytes:
    """``keep[k]`` for k = 0..N, whether a scan takes the sets of size k: those in the campaign's size window."""
    n = campaign.width()
    return bytes(campaign.min_size <= k <= (campaign.max_size or n) for k in range(n + 1))


_BYTE_REVERSED = tuple(int(f"{y:08b}"[::-1], 2) for y in range(256))


def _canonical_masks(campaign: Campaign, lo_mask: int, hi_mask: int, maps: tuple = ()) -> Iterator[tuple]:
    """Yield (representative mask, orbit size) with masks ascending in [lo, hi): Z_N's orbits in every
    mode but none from the necklace generator, a product group's from the visited walk where ``_walks``
    says so, whose orbits also take the automorphism tables ``maps`` (Z_N has none past its unit
    scalars), and otherwise from the block-necklace generator. An integer window's class is a set's
    translates and, outside mode translation, its mirror's: per top bit t the masks 2^t + 2m + 1, under
    negation only those whose inner bits m are at most their reversal."""
    lo, keep, g = max(lo_mask, 1), _sizes(campaign), campaign.group
    if _walks(campaign, lo, hi_mask, maps):
        yield from _orbit_walk(campaign, keep, lo, hi_mask, maps)
    elif campaign.mode == MODE_NONE:  # every set is its own class
        yield from ((mask, 1) for mask in range(lo, hi_mask) if keep[mask.bit_count()])
    elif g is not None:
        yield from (_necklaces if len(g.moduli) == 1 else _block_necklaces)(campaign, keep, lo, hi_mask)
    else:  # an integer window: a class's least mask 2^t + 2m + 1 holds bit 0, with inner bits m below top bit t
        n, neg = campaign.width(), campaign.mode != MODE_TRANSLATION
        for t in range(min(n, hi_mask.bit_length())):
            base, k = (1 << t) | 1, max(t - 1, 0)  # n - t translates, twice as many when the mirror differs
            a, b = max(lo - base + 1 >> 1, 0), min(hi_mask - base + 1 >> 1, (1 << t) + 1 >> 1)
            low = [r << k >> 8 for r in _BYTE_REVERSED]  # the k-bit reversal of m, the mirror's inner bits, is
            for x in range(a >> 8, (b - 1 >> 8) + 1):  # its low byte's, k - 8 bits up, and its high bits'
                high = int(f"{x:0{k - 8}b}"[::-1], 2) if k > 8 else 0
                for m in range(max(a, x << 8), min(b, x + 1 << 8)):
                    if keep[(mask := base + 2 * m).bit_count()] and (r := low[m & 255] | high if neg else m) >= m:
                        yield mask, n - t << (r != m)


def _orbit_walk(campaign: Campaign, keep: bytes, lo: int, hi_mask: int, maps: tuple = ()) -> Iterator[tuple]:
    """``_canonical_masks`` for any group, the size table ``keep`` and the automorphism tables ``maps``: an
    orbit is built at its least member in the window, and its other members there are marked visited.
    Members below ``lo`` only decide whether that one is the representative, so windows concatenate."""
    visited, mask = bytearray(max(hi_mask - lo, 0) + 1), lo  # the last byte, at hi_mask, stays 0
    while mask < hi_mask:
        if keep[mask.bit_count()]:
            orbit = _group_orbit(campaign.group, mask, campaign.mode, maps)
            for m in orbit:
                if mask < m < hi_mask:
                    visited[m - lo] = 1
            if mask == min(orbit):
                yield mask, len(orbit)
        mask = lo + visited.find(0, mask - lo + 1)  # the next unvisited mask, once this orbit is marked


def _necklaces(campaign: Campaign, keep: bytes, lo: int, hi_mask: int) -> Iterator[tuple]:
    """``_canonical_masks`` for Z_N and the size table ``keep``: a translate rotates the N-bit string
    read from the top bit, so a class's least mask is a necklace. The FKM walk (Ruskey, Savage and Wang,
    1992) sets the lowest 0, at place i, and repeats places 1..i down to bit 0: a necklace of period i
    if i | N. A full-affine orbit joins the bracelets (classes under negation too) of uA over the units u."""
    n, g, affine = campaign.width(), campaign.group, campaign.mode == MODE_FULL_AFFINE
    scalings = tuple(itemgetter(*g.scale_table(u)) for u in g.units() if 1 < u < n - u) if affine else ()
    rep = [0] + [sum(1 << p for p in range(0, n, i)) for i in range(1, n + 1)]  # ones every i bits
    cut = [0] + [-n % i for i in range(1, n + 1)]  # the bits that the last copy runs past bit 0
    mask, i = 0, 1
    while mask < hi_mask:
        if n % i == 0 and lo <= mask and keep[mask.bit_count()]:
            if size := i if campaign.mode == MODE_TRANSLATION else _bracelet_size(mask, n, i, scalings):
                yield mask, size
        if (b := (~mask & (mask + 1)).bit_length() - 1) == n:  # the lowest 0 is bit b, place n - b
            return
        i = n - b
        mask = (((mask >> b) | 1) * rep[i]) >> cut[i]


def _bracelet_size(mask: int, n: int, period: int, scalings: tuple) -> int:
    """The orbit size of the necklace ``mask`` under negation, which reverses and rotates, and the unit
    ``scalings``; 0 if an image has a smaller rotation. ``scalings`` holds one index map per pair +-u
    with 1 < u < n - u: read off the reversed string (bit j at place j) it gives u^-1 A's, and u^-1
    runs over the pairs as u does. A least rotation opens with a longest run of 0s: an image with a
    longer run is smaller, and one with a run as long is compared at the rotations, and those of its
    reverse, that open with ``mask``'s run. The pairs whose image is in ``mask``'s class fix that
    class, and each other pair adds a class of its size."""
    s = bin(mask)[2:].zfill(n)
    r, run = s[::-1], "0" * (n - mask.bit_length()) + "1"
    if (order := _rotation_order(s, run, r + r)) < 0:
        return 0
    size, fixed = period if order == 0 else 2 * period, 1
    for scale in scalings:
        tt = "".join(scale(r)) * 2
        if run[:-1] + "0" in tt or (order := _rotation_order(s, run, tt, tt[::-1])) < 0:
            return 0
        fixed += order == 0
    return size * (1 + len(scalings)) // fixed


def _rotation_order(s: str, run: str, *doubled: str) -> int:
    """-1 if a rotation of a string, given doubled, that opens with ``run`` is below ``s``, 0 if one
    equals ``s`` (then the strings lie in ``s``'s class and none is below), else 1."""
    n = len(s)
    for tt in doubled:
        k = tt.find(run)
        while 0 <= k < n:
            if (rotation := tt[k : k + n]) <= s:
                return -(rotation < s)
            k = tt.find(run, k + 1)
    return 1


def _block_necklaces(campaign: Campaign, keep: bytes, lo: int, hi_mask: int) -> Iterator[tuple]:
    """``_canonical_masks`` for G = H x Z_m (m the last modulus) in modes translation and translation+negation,
    which full-affine is when +-1 are G's only units. A mask is m blocks of b = |H| bits, a word a_0 .. a_{m-1}
    from the top block down: translation by (h, s) rotates it by s and maps each block by tau_h, H's shift_mask,
    and negation reverses it and maps each block by x -> h - x. A 2^b-ary FKM walk (as ``_necklaces``) keeps
    the starts s where tau_h(a_s ..), h != 0, and the backward readings h - a_t, .., h - a_0 still equal the
    head, drops a prefix once one reads lower, and at a necklace settles the wrap-around of the readings left:
    each equal one fixes the word."""
    g, neg = campaign.group, campaign.mode != MODE_TRANSLATION
    sub, m = GroupSpec(g.moduli[:-1]), g.moduli[-1]
    b, top, orbit, shifts = sub.order, keep.rfind(1), g.order << neg, range(1, sub.order)
    a, fore, back = [0] * m, [()] * m, [()] * m  # the word, and its symbols' images by h

    @lru_cache(maxsize=None)  # bounded by the symbols the walk meets
    def symbol(x: int) -> tuple:  # x's images by h and by x -> h - x, the least of each, and |x|
        row, flip = sub.translates(x), sub.translates(sub.neg_mask(x)) if neg else ()
        return row, flip, min(row), min(flip, default=1 << b), x.bit_count()

    def order(images: list, h: int, picks: range, at: int) -> int:  # -1, 0 or 1: images[j][h] over picks
        for i, j in enumerate(picks, at):  # read below, equal to or above a[at:]
            if (y := images[j][h]) != a[i]:
                return -1 if y < a[i] else 1
        return 0

    # A reading is (images, h, picks, at): its wrap-around, images[j][h] over picks, meets a[at:].
    def extend(t: int, p: int, prefix: int, ones: int, starts: list, reads: list) -> Iterator[tuple]:
        shift, base = b * (m - 1 - t), prefix << b  # from FKM's least symbol, or the first subtree to reach lo,
        first, stop = max(a[t - p] if t else 0, (lo >> shift) - base), ((hi_mask - 1) >> shift) - base + 1
        for x in range(first, min(1 << b, stop)):  # to the last to start below hi
            row, flip, least, nleast, bits = symbol(x)
            a[t], fore[t], back[t] = x, row, flip
            if ones + bits > top or least < (a0 := a[0]) or nleast < a0:
                continue
            kept = []
            for start in starts:  # tau_h(a_t) is place t - s of the start s, whose wrap meets a[m - s:]
                if (y := row[start[1]]) != (c := a[t + start[3] - m]):
                    if y < c:
                        break
                else:
                    kept.append(start)
            else:
                if least == a0:
                    kept += [(fore, h, range(t), m - t) for h in shifts if row[h] == a0]
                now = reads
                if nleast == a0:
                    orders = [(order(back, h, range(t - 1, -1, -1), 1), h) for h in range(b) if flip[h] == a0]
                    if min(orders)[0] < 0:
                        continue
                    now = reads + [(back, h, range(m - 1, t, -1), t + 1) for o, h in orders if not o]
                q = p if t and x == a[t - p] else t + 1  # FKM's period
                if t + 1 < m:
                    yield from extend(t + 1, q, base + x, ones + bits, kept, now)
                elif m % q == 0 and keep[ones + bits]:
                    fixed = m // q
                    for images, h, picks, at in kept + now:
                        if picks and images[picks[0]][h] > a[at]:
                            continue
                        if (o := order(images, h, picks, at)) < 0:
                            break
                        fixed += not o
                    else:
                        yield base + x, orbit // fixed

    yield from extend(0, 1, 0, 0, [], [])


def enumerate_canonical(campaign: Campaign):
    """Stream one representative per orbit, in ascending-mask order.

    Group campaigns yield GSets; integer campaigns yield tuples of integers.
    """
    campaign.validate()
    g = campaign.group
    lo = campaign.ints[0] if g is None else 0
    for mask, _ in _canonical_masks(campaign, 1, 1 << campaign.width()):
        yield GSet.from_mask(g, mask) if g else tuple(b + lo for b in iter_bits(mask))


# -- records -----------------------------------------------------------------


@lru_cache(maxsize=8)  # bounded: a scan binds one kernel
def _size_kernel(moduli: tuple, width: int):
    """``sizes(mask) -> (|A+A|, |A-A|)`` for the set A with this mask in Z_{n_1} x ... x Z_{n_k};
    only the table rows of masks below bit ``width`` are built. Element i, with digits d_j, goes
    to the w-bit field at place sum d_j S_j, S_j = prod_{l<j} (2 n_l - 1), so no digit sum carries.
    rev(A) = (N-1) - A is a translate of -A, at mirrored places, so one product of A's spread with
    A's plus rev(A)'s (placed G = 2 n_k S_k fields up) counts the pairs of A+A below G and of A-A
    above. Folding each digit mod n_j merges an element's places (the top digit needs no mask: the
    field past each half is empty); a field holds at most N < 2^(w-1) pairs, so adding 2^(w-1) - 1
    sets its top bit iff it is not empty."""
    w = math.prod(moduli).bit_length() + 1
    *strides, span = (math.prod(2 * m - 1 for m in moduli[:j]) for j in range(len(moduli) + 1))
    gap, place = span + strides[-1], [0]
    for m, stride in zip(moduli, strides):
        place = [p + d * stride for d in range(m) for p in place]
    spread = [1 << place[i] * w | 1 << (gap + place[-1] - place[i]) * w for i in range(width)]  # A's and rev(A)'s
    tables = [_prefix_unions(spread[k : k + 8]) for k in range(0, width, 8)]  # per mask byte: byte -> its spread
    folds = [  # digit j's places at n_j and above, and how far down they move
        (sum(((1 << w) - 1) << p * w for p in range(2 * gap) if p // s % (2 * m - 1) >= m), m * s * w)
        for m, s in zip(moduli[:-1], strides) if m > 1]
    low, top = (1 << gap * w) - 1, moduli[-1] * strides[-1] * w  # A's spread and A+A; the top digit's move
    tops = sum(1 << p * w + w - 1 for p in place) * ((1 << gap * w) + 1)  # each element's place, in both halves
    ones = (tops >> w - 1) * ((1 << w - 1) - 1)

    def sizes(mask: int) -> tuple[int, int]:
        y = 0
        for table in tables:
            y += table[mask & 255]
            mask >>= 8
        z = (y & low) * y
        for wrap, down in folds:
            z += (z & wrap) >> down
        z = (z + (z >> top) + ones) & tops
        return (z & low).bit_count(), (z >> gap * w).bit_count()

    return sizes


# SearchRecord's slot setters in field order: a scan's records skip the frozen __init__'s object.__setattr__.
_RECORD_SLOTS = tuple(SearchRecord.__dict__[f.name].__set__ for f in fields(SearchRecord))


def _recorder(campaign: Campaign):
    """``record(mask, orbit_size)``, the set's SearchRecord, with the size kernel, label and window
    offset bound once. A window of width W lives in Z_{2W-1}, where no sum or difference wraps."""
    g, n = campaign.group, campaign.width()
    sizes = _size_kernel(g.moduli if g else (2 * n - 1,), n)
    label, lo = (g.label(), 0) if g else ("Z", campaign.ints[0])
    new, (set_group, set_elements, set_card, set_sum, set_diff, set_coset, set_orbit) = object.__new__, _RECORD_SLOTS

    def record(mask: int, orbit_size: int) -> SearchRecord:
        bits = iter_bits(mask)
        card = len(bits)
        s, d = sizes(mask)
        r = new(SearchRecord)
        set_group(r, label)
        set_elements(r, tuple([b + lo for b in bits]) if lo else bits)
        set_card(r, card)
        set_sum(r, s)
        set_diff(r, d)
        # a coset a+H has |A+A| = |H| = |A|, so no other set needs the test; in Z only a singleton
        set_coset(r, s == card and (g is None or is_coset(GSet.from_mask(g, mask)) is not None))
        set_orbit(r, orbit_size)
        return r

    return record


# -- scanning ----------------------------------------------------------------


@dataclass(frozen=True)
class ScanSummary:
    representatives: int
    universe: int
    counts: dict  # orbit-weighted, i.e. pre-dedup universe counts
    rep_counts: dict
    max_exponent_up: float | None
    argmax_up: tuple[str, ...]
    max_exponent_down: float | None
    argmax_down: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)  # cli._json writes the argmax tuples as arrays


_CATEGORIES = ("coset", "sum_dominant", "diff_dominant", "balanced", "eq_upper", "eq_lower")


def _categories(r: SearchRecord) -> Iterator[str]:
    if r.coset:
        yield "coset"
    yield "sum_dominant" if r.mstd else "balanced" if r.balanced else "diff_dominant"
    if r.eq_upper:
        yield "eq_upper"
    if r.eq_lower:
        yield "eq_lower"


def _fold_max(best: tuple, value: float, r: SearchRecord) -> tuple:
    """Fold record ``r`` with exponent ``value`` into best = (max, argmax list); ties append."""
    top, argmax = best
    if top is None or value > top:
        return value, [r]
    if value == top:
        argmax.append(r)  # in place, so n ties cost O(n)
    return best


@dataclass
class _Stats:
    """Scan tallies: per (card, |A+A|, |A-A|, coset) key its orbit-weighted and
    representative counts and its exponents, and the exponent maxima with their
    non-coset argmax records in the order absorbed (a scan's: ascending mask)."""

    keys: dict = field(default_factory=dict)  # key -> [weight, reps, exponent_up, exponent_down]
    up: tuple = (None, ())
    down: tuple = (None, ())

    def absorb(self, r: SearchRecord) -> None:
        key = r.card, r.sum_card, r.diff_card, r.coset
        entry = self.keys.get(key)
        if entry is None:  # the properties themselves, so the floats are theirs
            entry = self.keys[key] = [0, 0, r.exponent_up, r.exponent_down]
        entry[0] += r.orbit_size
        entry[1] += 1
        up, down = entry[2], entry[3]
        if up is None:  # sigma or delta 1: no exponent
            return
        if self.up[0] is None or up >= self.up[0]:  # a call only at the max
            self.up = _fold_max(self.up, up, r)
        if self.down[0] is None or down >= self.down[0]:
            self.down = _fold_max(self.down, down, r)

    def summary(self) -> ScanSummary:
        counts, rep_counts = dict.fromkeys(_CATEGORIES, 0), dict.fromkeys(_CATEGORIES, 0)
        for key, (weight, reps, _, _) in self.keys.items():
            for category in _categories(SearchRecord("", (), *key, 1)):
                counts[category] += weight
                rep_counts[category] += reps
        return ScanSummary(
            representatives=sum(entry[1] for entry in self.keys.values()),
            universe=sum(entry[0] for entry in self.keys.values()),
            counts=counts,
            rep_counts=rep_counts,
            max_exponent_up=self.up[0],
            argmax_up=tuple(r.set_literal() for r in self.up[1]),
            max_exponent_down=self.down[0],
            argmax_down=tuple(r.set_literal() for r in self.down[1]),
        )


def scan(
    campaign: Campaign,
    *,
    threads: int = 1,
    mask_range: tuple[int, int] | None = None,
) -> tuple[list, ScanSummary]:
    """Run a campaign; returns (records, summary).

    Records are canonical representatives in ascending-mask order (filtered
    when the campaign asks for it); summary counts are orbit-weighted so they
    describe the raw universe. ``mask_range`` restricts to a half-open window
    of representative masks for resumable partitioning (HI is clamped to 2^N;
    LO past HI or at 2^N and up is a ValueError). Every scan is one stream from
    ``_canonical_masks`` in this process; ``threads`` is accepted and does not
    change it. A full-range scan checks that its orbits cover its sizes.
    """
    campaign.validate()
    n = campaign.width()
    lo, hi = mask_range or (1, 1 << n)
    if hi < lo:
        raise ValueError(f"mask range {lo}:{hi} ends before it starts")
    if lo >= 1 << n:
        raise ValueError(f"mask range {lo}:{hi} starts past the last mask: LO must be below 2^{n} = {1 << n}")
    lo, hi = max(lo, 1), min(hi, 1 << n)
    records, stats, record = [], _Stats(), _recorder(campaign)
    for mask, orbit_size in _canonical_masks(campaign, lo, hi):
        rec = record(mask, orbit_size)
        stats.absorb(rec)
        if not campaign.mstd_only or rec.mstd:
            records.append(rec)
    summary, window = stats.summary(), sum(math.comb(n, k) for k, on in enumerate(_sizes(campaign)) if on)
    if (lo, hi) == (1, 1 << n) and summary.universe != window:  # the orbits must cover every subset once
        raise RuntimeError(f"full scan of {campaign.describe()} weighed {summary.universe} subsets, not {window}")
    return records, summary


def find_mstd(*, threads: int = 1, **fields) -> list:
    """The sum-dominant representatives of ``Campaign(mstd_only=True, **fields)``,
    largest surplus |A+A| - |A-A| first."""
    records, _ = scan(Campaign(mstd_only=True, **fields), threads=threads)
    return sorted(records, key=lambda r: r.diff_card - r.sum_card)  # stable: canonical order kept


# -- exponent reporting -------------------------------------------------------


@dataclass(frozen=True)
class ExponentReport:
    non_coset: int
    max_exponent_up: float | None
    argmax: tuple[SearchRecord, ...]
    reference: float

    def render(self) -> str:
        lines = ["exponent report"]
        if self.max_exponent_up is None:
            lines.append("  no non-coset sets; exponent undefined")
        else:
            lines.append(f"  non-coset records: {self.non_coset}")
            lines.append(f"  max log(sigma)/log(delta) = {self.max_exponent_up:.5f}")
            for r in self.argmax[:8]:
                lines.append(
                    f"    achieved by {r.set_literal()}  "
                    f"(|A|={r.card}, |A+A|={r.sum_card}, |A-A|={r.diff_card}, "
                    f"sigma={r.sigma}, delta={r.delta})"
                )
            if len(self.argmax) > 8:
                lines.append(f"    ... and {len(self.argmax) - 8} more with the same exponent")
        lines.append(
            f"  reference lower bound for the exponent (Penman-Wells): "
            f"{self.reference:.5f} = log(32/5)/log(26/5)"
        )
        lines.append("  note: desk-scale maxima are not expected to reach the reference bound")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "non_coset": self.non_coset,
            "max_exponent_up": self.max_exponent_up,
            "argmax": [r.to_json_dict() for r in self.argmax],
            "reference": round(self.reference, 5),
        }


def exponent_report(records) -> ExponentReport:
    """Maximum of log(sigma)/log(delta) over non-coset records, with context.
    Only a coset has sigma or delta 1, so every other scan record has one."""
    stats = _Stats()
    for r in records:
        stats.absorb(r)
    summary = stats.summary()
    if not summary.representatives:
        raise ValueError("exponent_report needs at least one record")
    non_coset = summary.representatives - summary.rep_counts["coset"]
    return ExponentReport(non_coset, summary.max_exponent_up, tuple(stats.up[1]), PENMAN_WELLS_EXPONENT)


# -- output ------------------------------------------------------------------


_NAMES = {i: str(i) for i in range(256)}  # bounded: the strings of 0..255, the elements of most csv lines


def _csv_lines(records) -> Iterator[str]:
    name = _NAMES.__getitem__
    for r in records:
        try:
            s = ",".join(map(name, r.elements))  # ints: only a comma needs quotes
        except KeyError:  # a negative or wider element
            s = ",".join(map(str, r.elements))
        q = '"' if "," in s else ""
        yield f"{_csv_field(r.group)},{q}{s}{q},{_csv_tail(r.card, r.sum_card, r.diff_card, r.coset)}"


def write_csv(records, fh, campaign: Campaign | None = None) -> None:
    """Write records as CSV preceded by a tool/campaign header comment, streaming one line per
    record with the bytes csv.writer(fh, lineterminator="\\n") writes for its ``csv_row``."""
    describe = "" if campaign is None else " | " + campaign.describe()
    fh.write(f"# sumdiff {VERSION}{describe}\n{','.join(CSV_COLUMNS)}\n")
    fh.writelines(_csv_lines(records))
