"""Filters and ultrafilters over a finite ground set, as explicit families.

Coalitions (subsets of the voters 0..n-1) are encoded as bitmasks and a
family of coalitions as a frozenset of masks.  The filter axioms checked:

  F1  upward closure: every superset of a member is a member
  F2  intersection closure: the meet of two members is a member
  F3  properness: the empty coalition is not a member

A family must also be nonempty to count as a filter here.  The empty
family satisfies F1-F3 vacuously but is excluded on purpose: with it,
the ground set would not belong to every filter and the small-n filter
counts (1 on one voter, 3 on two) would come out wrong.

An ultrafilter is recognised by the complement test: a filter holding
exactly one of each coalition and its complement.  On this finite
ground that is equivalent to maximality (no strictly finer proper
filter exists); the tests check the equivalence on every filter for
n <= 4 against a maximality test of their own.

JSON family format::

    {"n": 3, "members": [[0], [0, 1], [0, 2], [0, 1, 2]]}
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ._util import FormatError, Value, acyclic, load_object

MAX_GROUND = 4
# Largest ground set a family document may name.  Masks stay word-sized,
# and past this a filter has too many members to list anyway.
MAX_FAMILY_VOTERS = 64


def set_to_mask(s: Iterable[int], n: int) -> int:
    mask = 0
    for v in s:
        if not 0 <= v < n:
            raise ValueError(f"voter {v} out of range for n={n}")
        mask |= 1 << v
    return mask


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


class CoalitionFamily(Value):
    """A family of voter coalitions over the ground set 0..n-1."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: frozenset[int]) -> None:
        if n < 1:
            raise ValueError(f"ground set needs at least one voter, got n={n}")
        masks = frozenset(masks)
        full = (1 << n) - 1
        for mask in masks:
            if not 0 <= mask <= full:
                raise ValueError(f"coalition mask {mask} out of range for n={n}")
        self.n, self.masks = n, masks

    def member_sets(self) -> list[frozenset[int]]:
        """Member coalitions as voter sets, ascending by mask encoding."""
        return [mask_to_set(mask) for mask in sorted(self.masks)]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "members": [sorted(s) for s in self.member_sets()]}

    @classmethod
    @acyclic
    def from_json_dict(cls, data: str | dict) -> "CoalitionFamily":
        obj = load_object(data, FormatError, "family")
        if set(obj) != {"n", "members"}:
            raise FormatError("family document must be an object with keys 'n' and 'members'")
        n, members = obj["n"], obj["members"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise FormatError("n must be an integer")
        if n < 1:
            raise FormatError(f"ground set needs at least one voter, got n={n}")
        if n > MAX_FAMILY_VOTERS:
            raise FormatError(f"n must be at most {MAX_FAMILY_VOTERS}")
        if not isinstance(members, list) or not all(isinstance(s, list) for s in members):
            raise FormatError("members must be a list of voter lists")
        masks: set[int] = set()  # a set would drop a repeated voter or coalition, so each is refused
        for i, s in enumerate(members):
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in s):
                raise FormatError(f"members[{i}]: voter must be an integer")
            mask = 0
            for v in s:
                if not 0 <= v < n:
                    raise FormatError(f"members[{i}]: voter {v} out of range for n={n}")
                if mask >> v & 1:
                    raise FormatError(f"members[{i}]: voter {v} listed twice")
                mask |= 1 << v
            if mask in masks:
                raise FormatError(f"members[{i}]: duplicate coalition")
            masks.add(mask)
        return cls(n, frozenset(masks))


class FilterCheck(Value):
    """PASS, or the first axiom violated plus witness coalitions."""

    __slots__ = ("ok", "axiom", "witness")

    def __init__(self, ok: bool, axiom: str | None = None, witness: tuple[frozenset[int], ...] | None = None) -> None:
        self.ok, self.axiom, self.witness = ok, axiom, witness


def is_filter(fam: CoalitionFamily) -> FilterCheck:
    """Check nonemptiness, then F3, F1 and F2 in that order.

    Witnesses are deterministic: members are scanned ascending by mask.
    """
    if not fam.masks:
        return FilterCheck(False, "nonempty", ())
    full = (1 << fam.n) - 1
    members = sorted(fam.masks)
    if 0 in fam.masks:
        return FilterCheck(False, "F3", (frozenset(),))
    for a in members:
        for sup in _supersets(a, full):
            if sup not in fam.masks:
                return FilterCheck(False, "F1", (mask_to_set(a), mask_to_set(sup)))
    # An up-closed family is intersection-closed exactly when the meet of its members is one.
    meet = full
    for a in members:
        meet &= a
    if meet not in fam.masks:
        for i, a in enumerate(members):
            for b in members[i:]:
                if a & b not in fam.masks:
                    return FilterCheck(False, "F2", (mask_to_set(a), mask_to_set(b)))
    return FilterCheck(True)


def _supersets(a: int, full: int) -> Iterator[int]:
    """Every mask between a and full, largest first: full, then down to a itself."""
    comp = full & ~a
    sub = comp
    while True:
        yield a | sub
        if sub == 0:
            return
        sub = (sub - 1) & comp


def is_ultrafilter_complement(fam: CoalitionFamily) -> bool:
    """A filter holding exactly one of each coalition and its complement."""
    return is_filter(fam).ok and _one_of_each_complement(fam)


def _one_of_each_complement(fam: CoalitionFamily) -> bool:
    full = (1 << fam.n) - 1
    return all((a in fam.masks) != ((full & ~a) in fam.masks) for a in range(full + 1))


class FilterClassification(Value):
    """is_filter outcome, ultrafilter status and fixedness in one record."""

    __slots__ = ("filter_check", "is_ultrafilter", "fixed", "core")

    def __init__(self, filter_check: FilterCheck, is_ultrafilter: bool, fixed: bool, core: frozenset[int]) -> None:
        self.filter_check, self.is_ultrafilter, self.fixed, self.core = filter_check, is_ultrafilter, fixed, core

    def to_json_dict(self) -> dict:
        check = self.filter_check
        return {
            "is_filter": check.ok,
            "violated": check.axiom,
            "witness": [sorted(s) for s in check.witness] if check.witness is not None else None,
            "is_ultrafilter": self.is_ultrafilter,
            "fixedness": "FIXED" if self.fixed else "FREE",
            "core": sorted(self.core),
        }


def classify(fam: CoalitionFamily) -> FilterClassification:
    """Full classification of an arbitrary family.

    The core is the intersection of all members (the whole ground set
    when the family is empty, by the usual convention); a family is
    FIXED when that intersection is nonempty.  Every filter on a finite
    ground set is fixed, and its core is itself a member; both facts
    are exercised across all filters for n <= 4 in the tests.
    """
    check = is_filter(fam)
    full = (1 << fam.n) - 1
    core = full
    for mask in fam.masks:
        core &= mask
    ultra = check.ok and _one_of_each_complement(fam)
    return FilterClassification(check, ultra, core != 0, mask_to_set(core))


def family_from_code(n: int, code: int) -> CoalitionFamily:
    if not 0 <= code < 1 << (1 << n):
        raise ValueError(f"family code {code} out of range for n={n}")
    return CoalitionFamily(n, frozenset(i for i in range(1 << n) if code >> i & 1))


def enumerate_filters(n: int) -> list[CoalitionFamily]:
    """All filters on 0..n-1, ascending by family code.

    Every filter is upward closed, so the up-sets (D(n) of them, the
    Dedekind numbers: 168 at n = 4) are a complete set of candidates, and
    `is_filter` decides each.  Bit i of a family code marks coalition
    mask i as a member.  An up-set on voters 0..v is `lo | hi << 2**v`:
    lo holds its members without v, hi those with v removed, both are
    up-sets, and `lo & ~hi == 0` (adding v to a member lands on a member).
    Taking hi in the outer loop keeps the codes ascending.
    """
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"filter enumeration supports 1 <= n <= {MAX_GROUND}, got {n}")
    ups = [0, 1]  # the up-sets on no voters: no member, or the empty coalition
    for v in range(n):
        ups = [lo | hi << (1 << v) for hi in ups for lo in ups if lo & ~hi == 0]
    return [fam for fam in (family_from_code(n, code) for code in ups) if is_filter(fam).ok]
