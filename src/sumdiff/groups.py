"""Exact arithmetic and subgroup structure for finite abelian groups.

A group is a product of cyclic factors Z_{n_1} x ... x Z_{n_k}. Elements are
canonical integer indices in [0, N), N = n_1 * ... * n_k, encoding the residue
tuple in mixed radix with the first modulus least significant. Subsets are
dense bitmasks (plain Python ints) indexed by element; every helper iterates
bits in ascending order, which keeps all downstream constructions
deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd, lcm, prod
from operator import index

from .errors import CapExceededError, EmptySetError, InvalidElementError

__all__ = ["GroupSpec", "iter_bits", "enumerate_subgroups", "is_coset"]


# _BYTE_BITS[k][b]: the set bit positions of b << 8k, ascending; grown on first use, to bit 255.
_BYTE_BITS: list = []


def iter_bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in ascending order, one table read per byte."""
    tables = _BYTE_BITS
    while len(tables) << 3 <= mask.bit_length():  # `<=`: tables[0] too, which mask 0 reads
        if len(tables) == 32:  # 256 bits or wider: scan the binary string, linear in the width
            return tuple(m.start() for m in re.finditer("1", bin(mask)[:1:-1]))
        pos = [*range(len(tables) << 3, len(tables) + 1 << 3)]  # one int per bit, shared
        tables.append(tuple(tuple(p for i, p in enumerate(pos) if b >> i & 1) for b in range(256)))
    bits = tables[0][mask & 255]
    mask >>= 8
    k = 1
    while mask:
        bits += tables[k][mask & 255]
        mask >>= 8
        k += 1
    return bits


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given by its cyclic factor sizes."""

    moduli: tuple[int, ...]
    order: int = field(init=False, repr=False, compare=False)
    _label: str = field(init=False, repr=False, compare=False)
    # Filled on first use, freed with the group: u % order -> the index of u*i per i, the moves of
    # shift_mask and translates, the automorphisms and the units. Set in __post_init__: a later key slows reads.
    _scale_tables: dict = field(init=False, repr=False, compare=False)
    _shift_layout: list = field(init=False, repr=False, compare=False)
    _automorphisms: tuple | None = field(init=False, repr=False, compare=False)
    _units: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mods = tuple(self.moduli)
        if bad := [n for n in mods if not hasattr(type(n), "__index__")]:  # int() would read 2.5 as 2
            raise TypeError(f"modulus {bad[0]!r} is not an integer")
        mods = tuple(map(index, mods))
        if not mods:
            raise ValueError("a group needs at least one cyclic factor")
        if any(n < 1 for n in mods):
            raise ValueError(f"moduli must all be >= 1, got {mods}")
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "order", prod(mods))
        object.__setattr__(self, "_label", "x".join(f"Z{n}" for n in mods))
        object.__setattr__(self, "_scale_tables", {})
        object.__setattr__(self, "_shift_layout", [])
        object.__setattr__(self, "_automorphisms", None)
        object.__setattr__(self, "_units", None)

    def label(self) -> str:
        return self._label

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @property
    def exponent(self) -> int:
        return lcm(*self.moduli)

    def elements(self) -> range:
        return range(self.order)

    def check_element(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise InvalidElementError(f"element {a!r} out of range for {self.label()}")
        return a

    def decode(self, a: int) -> tuple[int, ...]:
        """Residue tuple of an element index, first modulus least significant."""
        self.check_element(a)
        digits = []
        for n in self.moduli:
            a, r = divmod(a, n)
            digits.append(r)
        return tuple(digits)

    def encode(self, digits) -> int:
        digits = tuple(digits)
        if len(digits) != len(self.moduli):
            raise InvalidElementError(
                f"expected {len(self.moduli)} residues for {self.label()}, got {len(digits)}"
            )
        idx = 0
        for n, c in zip(reversed(self.moduli), reversed(digits)):
            if not isinstance(c, int) or not 0 <= c < n:
                raise InvalidElementError(f"residue {c!r} out of range for modulus {n}")
            idx = idx * n + c
        return idx

    def add(self, a: int, b: int) -> int:
        n = self.order
        if type(a) is not int or not 0 <= a < n:  # only then can check_element raise
            self.check_element(a)
        if type(b) is not int or not 0 <= b < n:
            self.check_element(b)
        if len(self.moduli) == 1:
            s = a + b
            return s - n if s >= n else s
        idx, stride = 0, 1
        for n in self.moduli:
            a, ra = divmod(a, n)
            b, rb = divmod(b, n)
            idx += ((ra + rb) % n) * stride
            stride *= n
        return idx

    def neg(self, a: int) -> int:
        return self.scale_table(-1)[self.check_element(a)]

    def scale(self, a: int, u: int) -> int:
        """Scalar multiple u*a, read from ``scale_table(u)``."""
        return self.scale_table(u)[self.check_element(a)]

    def units(self) -> tuple[int, ...]:
        """Scalars acting bijectively on the group (coprime to the exponent). Built on first use."""
        if self._units is None:
            e = self.exponent
            object.__setattr__(self, "_units", tuple(u for u in range(1, e) if gcd(u, e) == 1) or (1,))
        return self._units

    # -- mask-level operations ------------------------------------------------

    def shift_mask(self, mask: int, a: int) -> int:
        """Image of a dense subset mask under translation by element ``a``."""
        n = self.order
        if type(a) is not int or not 0 <= a < n:  # only then can check_element raise
            self.check_element(a)
        if a == 0 or mask == 0:
            return mask
        if len(self.moduli) == 1:
            return ((mask << a) | (mask >> (n - a))) & ((1 << n) - 1)
        for nj, moves in self._shift_layout or self._fill_shift_layout():
            a, aj = divmod(a, nj)
            if aj:
                keep, up, wrap, down = moves[aj]
                mask = ((mask & keep) << up) | ((mask & wrap) >> down)
        return mask

    def translates(self, mask: int) -> list:
        """``[A + t for t in elements()]`` for the set A with this mask. Each entry
        is one keep/wrap move of one factor applied to an earlier entry, so a
        product translate costs what a cyclic one costs."""
        out = [mask]
        for _, moves in self._shift_layout or self._fill_shift_layout():
            out += [((m & keep) << up) | ((m & wrap) >> down) for keep, up, wrap, down in moves[1:] for m in out]
        return out

    def _fill_shift_layout(self) -> list:
        """Per factor j, (n_j, moves) with moves[a_j] = (keep, up, wrap, down).

        Adding a_j to digit j moves the elements whose digit stays below n_j
        (``keep``) up by a_j strides, and wraps the rest (``wrap``) down by
        n_j - a_j strides.
        """
        layout = self._shift_layout
        stride = 1
        for nj in self.moduli:
            rep = ((1 << self.order) - 1) // ((1 << stride * nj) - 1)  # bit 0 of each period of digit j
            low = [((1 << (r + 1) * stride) - 1) * rep for r in range(nj)]  # low[r]: digit j <= r
            moves = [None] + [
                (low[nj - aj - 1], aj * stride, low[-1] ^ low[nj - aj - 1], (nj - aj) * stride)
                for aj in range(1, nj)
            ]
            layout.append((nj, tuple(moves)))
            stride *= nj
        return layout

    # neg_mask maps through the table itself: calling scale_mask would count
    # one negation twice wherever both methods are instrumented.
    def neg_mask(self, mask: int) -> int:
        return _map_bits(self.scale_table(-1), mask)

    def scale_mask(self, mask: int, u: int) -> int:
        return _map_bits(self.scale_table(u), mask)

    def scale_table(self, u: int) -> tuple[int, ...]:
        """The index of u*i for each element i: one table per residue of u mod the order."""
        u %= self.order
        return self._scale_tables.get(u) or self._fill_scale_table(u)

    def _fill_scale_table(self, u: int) -> tuple[int, ...]:
        images, stride = [0], 1  # u*i residue-wise, built one cyclic factor at a time
        for n in self.moduli:
            images = [x + (r * u % n) * stride for r in range(n) for x in images]
            stride *= n
        return self._scale_tables.setdefault(u, tuple(images))

    def automorphisms(self) -> tuple:
        """Index tables of the elementary automorphisms that are not unit scalars: each
        factor's unit scalings and the transvections x_i += (n_i / gcd(n_i, n_j)) x_j.
        With the unit scalars they generate Aut(G); a cyclic group has none. Built on first use."""
        if self._automorphisms is None:
            mods, digits = self.moduli, [self.decode(a) for a in range(self.order)]
            maps = [(i, u, i, 0) for i, n in enumerate(mods) for u in range(2, n) if gcd(u, n) == 1]
            maps += [(i, 1, j, n // gcd(n, m)) for i, n in enumerate(mods) for j, m in enumerate(mods) if j != i]
            tables = (  # digit i -> u d_i + c d_j
                tuple(self.encode((*d[:i], (u * d[i] + c * d[j]) % mods[i], *d[i + 1 :])) for d in digits)
                for i, u, j, c in maps
            )
            scalars = {self.scale_table(u) for u in self.units()}  # the identity among them
            object.__setattr__(self, "_automorphisms", tuple(t for t in tables if t not in scalars))
        return self._automorphisms


def _prefix_unions(masks: list[int]) -> list[int]:
    """Union of the chosen ``masks`` for every subset mask, indexed by the mask."""
    unions = [0]
    for s in masks:
        unions += [u | s for u in unions]
    return unions


def _map_bits(table: tuple[int, ...], mask: int) -> int:
    """The mask of the indices ``table[i]`` over the set bits i of ``mask``."""
    acc = 0
    for i in iter_bits(mask):
        acc |= 1 << table[i]
    return acc


def _close_under_addition(g: GroupSpec, mask: int) -> int:
    """Smallest addition-closed superset containing zero.

    In a finite group closure under addition suffices: each element's
    additive order supplies its inverse.
    """
    cur = mask | 1
    while True:
        nxt = cur
        for a in iter_bits(cur):
            nxt |= g.shift_mask(cur, a)
        if nxt == cur:
            return cur
        cur = nxt


def enumerate_subgroups(g: GroupSpec, cap: int = 256) -> list:
    """All subgroups of ``g`` as GSets, ordered by (cardinality, bitmask).

    Closure-lattice search: start at {0}, adjoin one outside element at a
    time and close under addition, which reaches every subgroup exactly once
    after dedup. Uniform over products of cyclic factors.
    """
    if g.order > cap:
        raise CapExceededError(
            f"subgroup enumeration needs group order <= {cap}, got {g.order}"
        )
    from .sets import GSet

    found = {1}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        for x in iter_bits(g.full_mask & ~h):
            s = _close_under_addition(g, h | (1 << x))
            if s not in found:
                found.add(s)
                frontier.append(s)
    return [GSet.from_mask(g, m) for m in sorted(found, key=lambda m: (m.bit_count(), m))]


def is_coset(A) -> tuple | None:
    """Decompose A as (subgroup H, representative a0), or None.

    Uses a0 = least element of A; A is a coset exactly when H = A - a0 is
    closed under addition, since H holds 0 and is finite. The answer does not
    depend on which member is used as the representative.
    """
    if A.card == 0:
        raise EmptySetError("the empty set is not a coset of anything")
    from .sets import GSet

    g = A.group
    a0 = (A.mask & -A.mask).bit_length() - 1
    h = g.shift_mask(A.mask, g.neg(a0))
    for b in iter_bits(h):
        if g.shift_mask(h, b) & ~h:
            return None
    return GSet.from_mask(g, h), a0
