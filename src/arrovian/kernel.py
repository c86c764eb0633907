"""Integer-coded view of a finite profile domain.

Every quantified axiom check walks the same facts: the profiles of an
(m, n, domain) in enumeration order, and each voter's stance on every
pair of alternatives.  The `DomainKernel(m, n, domain)` constructor
computes those facts as small integers, and `domain_kernel(m, n, domain)`
caches one kernel per (m, n, domain), built when first asked for;
nothing is built at import.  The checks in `swf` and `ks_bridge` then
run as lookups over it, and turn a failing index back into `Profile`
objects only to report a witness.

Codes:

* a stance is its index in `STANCES`: 0 FIRST, 1 SECOND, 2 INDIFFERENT;
  `MISSING` (3) marks a verdict that the rule under audit leaves
  undefined;
* a profile is its position in `enumerate_profiles` order (odometer
  order, voter n-1 fastest);
* a voter split on a pair is its position among the domain's splits,
  `sum(d_v * b**v)` over the voters' stance codes d_v with b = `domain.split_base`;
  `splits[j]` is the `TriPartition.code()` there, `first_seen[q][j]` its first profile on pair q;
* a verdict is its index in `enumerate_weak_orders(m)`, on either
  domain, since a verdict may tie where no ballot does; a verdict row
  holds one per profile, `ABSENT` (-1) where there is none.

Tables are stored per pair, one entry per profile, because the checks
scan pairs outer and profiles inner.  A stance column is `bytes`, one
code per profile, read through a lut padded with MISSING by `gather`;
`split_columns` gathers it from a pair's stance codes laid out by split
position.  `triangles(m)` places each triangle a < b < c among the
canonical pairs, for a2 and for the search's constraints.  `verdict_codes(m)`
is the one table between weak orders and stance rows; `verdict_keys(m)`,
its inverse on code tuples, turns a row into its verdict or finds it is
none, and `first_absent` finds the first row that is none, reading one
triangle at a time.
What the checks read of one column alone is its `ColumnFacts`, computed
once per distinct (pair, column) that a memo meets; one search's survivors share one.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache, reduce
from itertools import combinations, repeat
from operator import and_
from typing import NamedTuple, Sequence

from .profiles import Domain, Profile, check_profile_space, split_codes
from .relations import (
    BinaryRelation,
    PairStance,
    ValidationResult,
    WeakOrder,
    enumerate_weak_orders,
    ordered_pairs,
    pair_stance,
    to_canonical,
    unordered_pairs,
    validate_weak_order,
)

STANCES = (
    PairStance.FIRST_PREFERRED,
    PairStance.SECOND_PREFERRED,
    PairStance.INDIFFERENT,
)
STANCE_CODE = {s: i for i, s in enumerate(STANCES)}
STANCE_AT = {s.value: i for i, s in enumerate(STANCES)}  # a stance's JSON name to its code
FIRST, SECOND, TIE, MISSING = 0, 1, 2, 3
ABSENT = -1
_PAD = bytes([MISSING])


class DomainKernel:
    """Stance facts of every profile of one (m, n, domain), as integers.

    `pairs` lists the ordered pairs lexicographically and `canonical`
    the pairs x < y; `slot[p]` is (q, r): q the position of `pairs[p]`,
    either way round, in `canonical`, and r 0 when x < y and 1 when it is
    reversed, x > y.  `order_codes[q][d]` is the stance code of
    `orders[d]` on `canonical[q]` and `tri[q][i]` the split position of profile i
    there (`bytes`, or an `array` above 256 splits); the rest is built on first use.
    Stance codes and stance columns cover `canonical` only: the stance
    on (y, x) is the one on (x, y) flipped, so a check on `pairs[p]`
    reads column q against FIRST when r is 0 and SECOND when it is 1.
    The constructor raises as `enumerate_profiles` would.  A kernel equals only itself.
    """

    def __init__(self, m: int, n: int, domain: Domain) -> None:
        check_profile_space(m, n, domain)
        self.m, self.n, self.domain, self.orders = m, n, domain, tuple(domain.orders(m))
        self.pairs, self.canonical = tuple(ordered_pairs(m)), tuple(unordered_pairs(m))
        self.slot = tuple((self.canonical.index((min(x, y), max(x, y))), int(x > y)) for x, y in self.pairs)
        index = verdict_index(m)
        self.order_codes = tuple(tuple(codes[index[w]] for w in self.orders) for codes in verdict_codes(m))
        b, k = domain.split_base, len(self.orders)
        typecode = "B" if b**n <= 1 << 8 else "H" if b**n <= 1 << 16 else "I"
        width = array(typecode).itemsize
        tri = []
        for per_order in self.order_codes:  # voter v adds its stance code times b**v; positions stay below b**n
            col = sum(_voter_lanes([(s * b**v).to_bytes(width, "little") for s in per_order], v, n) for v in range(n))
            positions = array(typecode, col.to_bytes(k**n * width, "little"))
            if sys.byteorder == "big":
                positions.byteswap()
            tri.append(positions.tobytes() if width == 1 else positions)
        self.tri = tuple(tri)
        self._order_index = {w: i for i, w in enumerate(self.orders)}

    @property
    def size(self) -> int:
        return len(self.orders) ** self.n

    @cached_property
    def strict_support(self) -> tuple[tuple[int, ...], ...]:
        """Per pair of `pairs` and voter v, its supporters as a byte-wise int.

        Byte i of `strict_support[p][v]` is 1 when voter v strictly
        prefers the first alternative of `pairs[p]` in profile i, else 0,
        so a scan over all profiles is one integer operation.
        """
        out = []
        for q, r in self.slot:
            flags = [bytes([c == (FIRST, SECOND)[r]]) for c in self.order_codes[q]]
            out.append(tuple(_voter_lanes(flags, v, self.n) for v in range(self.n)))
        return tuple(out)

    @cached_property
    def unanimous(self) -> tuple[int, ...]:
        """Per pair of `pairs`, the AND of its `strict_support` rows: where every voter prefers its first."""
        return tuple(reduce(and_, rows) for rows in self.strict_support)

    @cached_property
    def splits(self) -> tuple[int, ...]:
        """The tri-partition code of each split position, ascending."""
        return split_codes(self.n, self.domain)

    @cached_property
    def first_seen(self) -> tuple[tuple[int, ...], ...]:
        """Per pair of `canonical`, the first profile at each split position j, `tri[q].index(j)`."""
        b, k, out = self.domain.split_base, len(self.orders), []
        for codes in self.order_codes:  # odometer order: there each voter holds the first order with its stance
            firsts, seen = [codes.index(s) for s in range(b)], [0]
            for v in range(self.n):  # voter v's stance is digit v of the position
                seen = [i + firsts[s] * k ** (self.n - 1 - v) for s in range(b) for i in seen]
            out.append(tuple(seen))
        return tuple(out)

    def profile(self, i: int) -> Profile:
        """The profile at enumeration index i, as an object."""
        k = len(self.orders)
        digits = []
        for _ in range(self.n):
            i, d = divmod(i, k)
            digits.append(d)
        return Profile(tuple(self.orders[d] for d in reversed(digits)))

    def profile_index(self, f: Profile) -> int | None:
        """The enumeration index of f, or None when f lies outside the domain."""
        if f.n != self.n:
            return None
        k, i = len(self.orders), 0
        for w in f.prefs:
            d = self._order_index.get(w)
            if d is None:
                return None
            i = i * k + d
        return i


def _voter_lanes(lanes: Sequence[bytes], v: int, n: int) -> int:
    """Voter v's lane per profile, `lanes[d]` where v holds order d, as one little-endian int.

    In odometer order voter v holds order d for runs of k**(n-1-v) profiles, d cycling
    0..k-1, the cycle repeated k**v times.
    """
    k = len(lanes)
    return int.from_bytes(b"".join(lane * k ** (n - 1 - v) for lane in lanes) * k**v, "little")


domain_kernel = lru_cache(maxsize=8)(DomainKernel)  # one kernel per (m, n, domain) among the 8 last asked for


class ColumnFacts(NamedTuple):
    """What the checks read of one stance column of a canonical pair, per direction r as in `DomainKernel.slot`.

    `code` is the column as a little-endian int; `over[r]` is byte-wise, byte i 1 when the verdict on profile i
    does not prefer the direction's first alternative (MISSING never does); `unanimous[r]` and `first[v][r]` are
    the first such profile where every voter, or voter v, strictly does, or None.
    """

    code: int
    over: tuple[int, int]
    unanimous: tuple[int | None, int | None]
    first: tuple[tuple[int | None, int | None], ...]


def column_facts(k: DomainKernel, cols: Sequence[bytes], memo: dict | None = None) -> list[ColumnFacts]:
    """Per pair of `k.canonical`, its column's facts, computed once per (pair, column bytes) in memo, or in a fresh one.

    Bit 0 of a byte of `c | c >> 1` is 1 unless it is FIRST, of `(c ^ ones) | c >> 1` unless SECOND.
    """
    memo = {} if memo is None else memo
    out = []
    for q, col in enumerate(cols):
        facts = memo.get((q, col))
        if facts is None:
            c, ones = int.from_bytes(col, "little"), int.from_bytes(b"\x01" * k.size, "little")
            over = ((c | c >> 1) & ones, ((c ^ ones) | c >> 1) & ones)
            sides = list(zip(over, (k.slot.index((q, 0)), k.slot.index((q, 1)))))
            una = tuple(first_profile(o & k.unanimous[p]) for o, p in sides)
            first = tuple(tuple(first_profile(o & k.strict_support[p][v]) for o, p in sides) for v in range(k.n))
            facts = memo[q, col] = ColumnFacts(c, over, una, first)
        out.append(facts)
    return out


def split_columns(k: DomainKernel, luts: Sequence[bytes]) -> list[bytes]:
    """Per pair of `k.canonical`, its stance codes laid out over `k.splits` by position, read at each profile:
    `gather(k.tri[q], luts[q])`, so a lut shorter than the splits reads MISSING past its end."""
    return list(map(gather, k.tri, luts))


def gather(index: bytes | Sequence[int], lut: bytes) -> bytes:
    """`lut[i]` for each entry i of index, MISSING past the lut's end.

    A bytes index is translated through the lut padded with MISSING to 256
    entries; any other is read entry by entry, so -1 (ABSENT) reads the lut's
    last entry, and through the lut padded as far as its largest entry only
    when some entry lies past the end (a pair with no rule table has b"").
    """
    if isinstance(index, bytes):
        return index.translate(lut.ljust(256, _PAD))
    try:
        return bytes(map(lut.__getitem__, index))
    except IndexError:
        return bytes(map(lut.ljust(max(index) + 1, _PAD).__getitem__, index))


def first_absent(k: DomainKernel, codes: Sequence[int]) -> int | None:
    """The first profile whose codes, each column given as `ColumnFacts.code`, compose into no weak order, or None.

    O2 names three alternatives, so stances form a weak order exactly when
    they form one on every triangle a < b < c.  A triangle's three codes
    share one byte lane, read through a table of all 256.
    """
    first = None
    for group in triangles(k.m):
        lane = sum(codes[q] << 2 * j for j, q in enumerate(group)).to_bytes(k.size, "little")
        if (i := lane.translate(_absent_table()).find(1, 0, first)) >= 0:
            first = i
    return first


@lru_cache(maxsize=None)
def triangles(m: int) -> tuple[tuple[int, ...], ...]:
    """Per triangle a < b < c, the positions of (a, b), (a, c) and (b, c) among the canonical pairs of m.

    Below m=3 a single group holds every pair; an unused lane slot reads FIRST, which composes.
    """
    pos = {p: q for q, p in enumerate(unordered_pairs(m))}
    return tuple((pos[a, b], pos[a, c], pos[b, c]) for a, b, c in combinations(range(m), 3)) or (tuple(pos.values()),)


@lru_cache(maxsize=None)
def _absent_table() -> bytes:
    return bytes(tuple(key >> 2 * q & 3 for q in range(3)) not in verdict_keys(3) for key in range(256))


def first_profile(hit: int) -> int | None:
    """The profile of the lowest nonzero byte of a byte-wise int, or None when it is 0."""
    return ((hit & -hit).bit_length() - 1) >> 3 if hit else None


# At most 3 ** (m(m-1)/2) keys per m: 729 at m=4, 59049 at m=5.
@lru_cache(maxsize=None)
def compose(m: int, codes: tuple[int, ...]) -> tuple[BinaryRelation, ValidationResult, WeakOrder | None]:
    """Compose stance codes on the canonical pairs into one relation.

    Returns the relation, its weak-order validation and, when valid,
    its canonical form: the witness and failing axiom of a row that
    `verdict_keys` holds no verdict for.
    """
    grid = [[False] * m for _ in range(m)]
    for (x, y), s in zip(unordered_pairs(m), codes):
        if s == FIRST:
            grid[x][y] = True
        elif s == SECOND:
            grid[y][x] = True
    rel = BinaryRelation(tuple(tuple(row) for row in grid))
    res = validate_weak_order(rel)
    return rel, res, to_canonical(rel) if res.ok else None


def compose_rows(k: DomainKernel, cols: Sequence[bytes]) -> array:
    """The verdict row of `cols`: per profile, the verdict of its codes, or ABSENT where they are none's."""
    rows = zip(*cols) if cols else repeat((), k.size)  # m=1 has no pairs: every row is empty
    return array("h", map(verdict_keys(k.m).get, rows, repeat(ABSENT)))


@lru_cache(maxsize=None)
def verdict_index(m: int) -> dict[WeakOrder, int]:
    """Each weak order of m by its verdict index."""
    return {w: j for j, w in enumerate(enumerate_weak_orders(m))}


@lru_cache(maxsize=None)
def verdict_codes(m: int) -> tuple[tuple[int, ...], ...]:
    """Per canonical pair of m, the stance code of each verdict index, then MISSING, which ABSENT reads."""
    orders = enumerate_weak_orders(m)
    return tuple(tuple(STANCE_CODE[pair_stance(w, x, y)] for w in orders) + (MISSING,) for x, y in unordered_pairs(m))


@lru_cache(maxsize=None)
def verdict_keys(m: int) -> dict[tuple[int, ...], int]:
    """The inverse of `verdict_codes(m)`: each verdict's tuple of stance codes, one per canonical pair, to its index.

    A weak order is fixed by its stance on each pair, so a row of codes
    composes into a weak order exactly when its tuple is here.
    """
    return {tuple(codes[j] for codes in verdict_codes(m)): j for j in range(len(verdict_index(m)))}

