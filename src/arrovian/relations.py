"""Weak orders on a finite set of alternatives.

A strict preference relation P on alternatives 0..m-1 is a weak order
when it is

* asymmetric (O1): x P y implies not y P x, and
* negatively transitive (O2): not x P y and not y P z imply not x P z.

Weak orders are exactly the rankings that allow ties.  The canonical
form used throughout the package is an ordered partition of the
alternatives into indifference classes, earlier class strictly
preferred.  The matrix form (`BinaryRelation`) is accepted at module
boundaries and converted with `to_canonical`.

Enumeration is deterministic and documented: `enumerate_weak_orders`
sorts by class signature (the tuple of sorted member tuples, compared
lexicographically) and `enumerate_linear_orders` follows lexicographic
permutation order.  Counts for m = 1..5 are 1, 3, 13, 75, 541 and m!
respectively.

Text form: classes joined by ">", members of one class joined by "~",
for example "A>B~C".  `parse_weak_order` and `format_weak_order`
round-trip exactly on canonical text.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterator

from ._util import Value

MAX_ALTERNATIVES = 5

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class PairStance(Enum):
    """How one order ranks an ordered pair of alternatives."""

    FIRST_PREFERRED = "FIRST"
    SECOND_PREFERRED = "SECOND"
    INDIFFERENT = "INDIFFERENT"

    def flipped(self) -> "PairStance":
        """The stance on the same pair read in the opposite direction."""
        if self is PairStance.FIRST_PREFERRED:
            return PairStance.SECOND_PREFERRED
        if self is PairStance.SECOND_PREFERRED:
            return PairStance.FIRST_PREFERRED
        return self

    @classmethod
    def from_name(cls, name: str) -> "PairStance":
        for stance in cls:
            if stance.value == name:
                return stance
        raise ValueError(f"unknown stance {name!r}; expected FIRST, SECOND or INDIFFERENT")


def default_labels(m: int) -> tuple[str, ...]:
    """Single letters A.. for small m, x0, x1, .. beyond that."""
    if m <= len(_LETTERS):
        return tuple(_LETTERS[:m])
    return tuple(f"x{i}" for i in range(m))


class AlternativeSet(Value):
    """The shared ground set of alternatives, with optional display labels."""

    __slots__ = ("m", "labels")

    def __init__(self, m: int, labels: tuple[str, ...] | None = None) -> None:
        if m < 1:
            raise ValueError(f"need at least one alternative, got m={m}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != m:
                raise ValueError(f"{len(labels)} labels for m={m} alternatives")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be distinct")
            for lab in labels:
                if not lab or any(ch in lab for ch in ">~, \t\n"):
                    raise ValueError(f"label {lab!r} is empty or contains a reserved character")
        self.m, self.labels = m, labels

    def all_labels(self) -> tuple[str, ...]:
        return self.labels if self.labels is not None else default_labels(self.m)

    def label(self, x: int) -> str:
        if not 0 <= x < self.m:
            raise ValueError(f"alternative {x} out of range for m={self.m}")
        return self.all_labels()[x]

    def index(self, label: str) -> int:
        try:
            return self.all_labels().index(label)
        except ValueError:
            raise ValueError(f"unknown alternative label {label!r}") from None


class BinaryRelation(Value):
    """A strict relation on 0..m-1 as a boolean matrix; holds[x][y] means x P y."""

    __slots__ = ("holds",)

    def __init__(self, holds: tuple[tuple[bool, ...], ...]) -> None:
        self.holds = rows = tuple(tuple(bool(v) for v in row) for row in holds)
        m = len(rows)
        if m < 1:
            raise ValueError("relation needs at least one alternative")
        if any(len(row) != m for row in rows):
            raise ValueError("relation matrix must be square")

    @property
    def m(self) -> int:
        return len(self.holds)

    def edges(self) -> list[tuple[int, int]]:
        """All (x, y) with x P y, in lexicographic order."""
        return [(x, y) for x in range(self.m) for y in range(self.m) if self.holds[x][y]]


class ValidationResult(Value):
    """Outcome of a weak-order check: PASS, or the first violation found."""

    __slots__ = ("ok", "axiom", "witness")

    def __init__(self, ok: bool, axiom: str | None = None, witness: tuple[int, ...] | None = None) -> None:
        self.ok, self.axiom, self.witness = ok, axiom, witness


def validate_weak_order(rel: BinaryRelation) -> ValidationResult:
    """Check asymmetry (O1) and negative transitivity (O2).

    (O1) is scanned first, over ordered pairs (x, y) with x <= y; a
    violation is reported as that pair (the diagonal case x = y catches
    reflexive edges).  An (O2) failure is reported as a triple
    (a, b, c) such that a P b holds while neither a P c nor c P b does;
    the axiom instance (x, y, z) = (a, c, b) is then violated.  Scans
    run in ascending index order, so witnesses are deterministic.
    """
    h = rel.holds
    m = rel.m
    for x in range(m):
        for y in range(x, m):
            if h[x][y] and h[y][x]:
                return ValidationResult(False, "O1", (x, y))
    for a in range(m):
        for b in range(m):
            if not h[a][b]:
                continue
            for c in range(m):
                if not h[a][c] and not h[c][b]:
                    return ValidationResult(False, "O2", (a, b, c))
    return ValidationResult(True)


class WeakOrder(Value):
    """An ordered partition into indifference classes, best class first.

    Members within a class are stored sorted, so equal orders compare
    and hash equal regardless of how the classes were written down.
    `m`, the number of alternatives, follows from the classes and is not compared.
    """

    _fields = ("classes",)  # no __slots__: `_ranks` is cached in the instance dict

    def __init__(self, classes: tuple[tuple[int, ...], ...]) -> None:
        self.classes = norm = tuple(tuple(sorted(c)) for c in classes)
        if not norm or any(not c for c in norm):
            raise ValueError("indifference classes must be nonempty")
        members = sorted(x for c in norm for x in c)
        if members != list(range(len(members))):
            raise ValueError("classes must partition 0..m-1 with no gaps or repeats")
        self.m = len(members)

    @cached_property
    def _ranks(self) -> tuple[int, ...]:
        ranks = [0] * self.m
        for i, cls in enumerate(self.classes):
            for x in cls:
                ranks[x] = i
        return tuple(ranks)

    def rank(self, x: int) -> int:
        """Index of the indifference class holding x (0 is best)."""
        return self._ranks[x]

    def __str__(self) -> str:
        return format_weak_order(self)


def pair_stance(w: WeakOrder, x: int, y: int) -> PairStance:
    """The stance of order w on the ordered pair (x, y)."""
    if x == y:
        raise ValueError("pair stance needs two distinct alternatives")
    if not (0 <= x < w.m and 0 <= y < w.m):
        raise ValueError(f"pair ({x}, {y}) out of range for m={w.m}")
    rx, ry = w.rank(x), w.rank(y)
    if rx < ry:
        return PairStance.FIRST_PREFERRED
    if ry < rx:
        return PairStance.SECOND_PREFERRED
    return PairStance.INDIFFERENT


def to_canonical(rel: BinaryRelation) -> WeakOrder:
    """Convert a valid weak-order relation to its ordered-partition form.

    Alternatives are grouped by how many others beat them; in a weak
    order that count is constant on each indifference class and
    increases strictly from one class to the next.
    """
    res = validate_weak_order(rel)
    if not res.ok:
        raise ValueError(f"not a weak order: {res.axiom} violated at {res.witness}")
    m = rel.m
    above = [sum(rel.holds[y][x] for y in range(m)) for x in range(m)]
    levels = sorted(set(above))
    return WeakOrder(tuple(tuple(x for x in range(m) if above[x] == lv) for lv in levels))


def _check_m(m: int) -> None:
    if not 1 <= m <= MAX_ALTERNATIVES:
        raise ValueError(f"m must be between 1 and {MAX_ALTERNATIVES}, got {m}")


def _ordered_partitions(elems: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not elems:
        yield ()
        return
    k = len(elems)
    for bits in range(1, 1 << k):
        first = tuple(elems[i] for i in range(k) if bits >> i & 1)
        rest = tuple(elems[i] for i in range(k) if not bits >> i & 1)
        for tail in _ordered_partitions(rest):
            yield (first,) + tail


@lru_cache(maxsize=None)
def _weak_orders(m: int) -> tuple[WeakOrder, ...]:
    sigs = sorted(_ordered_partitions(tuple(range(m))))
    return tuple(WeakOrder(sig) for sig in sigs)


@lru_cache(maxsize=None)
def _linear_orders(m: int) -> tuple[WeakOrder, ...]:
    return tuple(WeakOrder(tuple((x,) for x in p)) for p in permutations(range(m)))


def enumerate_weak_orders(m: int) -> list[WeakOrder]:
    """All weak orders on 0..m-1, sorted by class signature."""
    _check_m(m)
    return list(_weak_orders(m))


def enumerate_linear_orders(m: int) -> list[WeakOrder]:
    """All strict linear orders on 0..m-1, in lexicographic permutation order."""
    _check_m(m)
    return list(_linear_orders(m))


def ordered_pairs(m: int) -> list[tuple[int, int]]:
    """All (x, y) with x != y, lexicographically."""
    return [(x, y) for x in range(m) for y in range(m) if x != y]


def unordered_pairs(m: int) -> list[tuple[int, int]]:
    """All canonical pairs (x, y) with x < y, lexicographically."""
    return [(x, y) for x in range(m) for y in range(x + 1, m)]


def format_weak_order(w: WeakOrder, alts: AlternativeSet | None = None) -> str:
    """Render as text, e.g. "A>B~C"; members of a class appear in index order."""
    if alts is None:
        alts = AlternativeSet(w.m)
    if alts.m != w.m:
        raise ValueError(f"alternative set has m={alts.m}, order has m={w.m}")
    return ">".join("~".join(alts.label(x) for x in cls) for cls in w.classes)


def parse_weak_order(text: str, alts: AlternativeSet | None = None) -> WeakOrder:
    """Parse the ">"/"~" text form back into a WeakOrder.

    With no explicit alternative set the labels must be the default
    letters A, B, .. covering every alternative exactly once.
    """
    groups = [group.split("~") for group in text.split(">")]
    tokens = [tok.strip() for group in groups for tok in group]
    if any(not tok for tok in tokens):
        raise ValueError(f"empty alternative name in order text {text!r}")
    if alts is None:
        expected = set(default_labels(len(tokens)))
        if set(tokens) != expected:
            raise ValueError(
                f"cannot infer alternatives from {text!r}: labels are not the default letters; "
                "pass an explicit AlternativeSet"
            )
        alts = AlternativeSet(len(tokens))
    seen: set[int] = set()
    classes: list[tuple[int, ...]] = []
    for group in groups:
        members = []
        for tok in group:
            idx = alts.index(tok.strip())
            if idx in seen:
                raise ValueError(f"alternative {tok.strip()!r} appears twice in {text!r}")
            seen.add(idx)
            members.append(idx)
        classes.append(tuple(members))
    if len(seen) != alts.m:
        missing = [alts.label(x) for x in range(alts.m) if x not in seen]
        raise ValueError(f"order text {text!r} is missing alternatives {missing}")
    return WeakOrder(tuple(classes))
