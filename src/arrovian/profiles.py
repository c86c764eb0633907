"""Voter profiles over a shared alternative set.

Voters are plain indices 0..n-1.  A profile assigns each voter one weak
order; the restriction of a profile to a single pair of alternatives is
a `TriPartition`: who strictly prefers the first alternative, who
strictly prefers the second, who is indifferent.

Profile enumeration is odometer order over the chosen domain's order
enumeration (voter n-1 cycles fastest), capped by an explicit budget so
exhaustive scans stay at desk scale.

JSON profile format::

    {"m": 3, "n": 3, "labels": ["A", "B", "C"],
     "prefs": ["A>B>C", "C>A>B", "B>C>A"]}
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import product
from typing import Callable, Iterator

from ._util import FormatError, Value, acyclic, load_object
from .relations import (
    MAX_ALTERNATIVES,
    AlternativeSet,
    BinaryRelation,
    PairStance,
    WeakOrder,
    enumerate_linear_orders,
    enumerate_weak_orders,
    pair_stance,
    parse_weak_order,
)

PROFILE_BUDGET_DEFAULT = 10_000_000


class Domain(Enum):
    """Which preference orders voters may hold."""

    WEAK = "weak"
    LINEAR = "linear"

    def orders(self, m: int) -> list[WeakOrder]:
        if self is Domain.WEAK:
            return enumerate_weak_orders(m)
        return enumerate_linear_orders(m)

    @property
    def split_base(self) -> int:
        """The stances a voter can take on a pair: 3, or 2 on linear ballots, which never tie."""
        return 2 if self is Domain.LINEAR else 3

    @classmethod
    def from_name(cls, name: str) -> "Domain":
        for dom in cls:
            if dom.value == name:
                return dom
        raise ValueError(f"unknown domain {name!r}; expected 'weak' or 'linear'")


class BudgetExceededError(ValueError):
    """An enumeration would exceed the profile budget."""


class ProfileFormatError(FormatError):
    """A profile file failed to decode or validate; `location` says where, when known."""


class Profile(Value):
    """One weak order per voter, all over the same alternatives."""

    __slots__ = ("prefs",)

    def __init__(self, prefs: tuple[WeakOrder, ...]) -> None:
        self.prefs = prefs = tuple(prefs)
        if not prefs:
            raise ValueError("a profile needs at least one voter")
        m = prefs[0].m
        if any(w.m != m for w in prefs):
            raise ValueError("all voters must rank the same alternatives")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def m(self) -> int:
        return self.prefs[0].m

    def order_of(self, v: int) -> WeakOrder:
        if not 0 <= v < self.n:
            raise ValueError(f"voter {v} out of range for n={self.n}")
        return self.prefs[v]

    def stance(self, v: int, x: int, y: int) -> PairStance:
        return pair_stance(self.order_of(v), x, y)


class TriPartition(Value):
    """Split of the voters on one pair: first / second / indifferent."""

    __slots__ = ("n", "first", "second", "tie", "_code")
    _fields = ("n", "first", "second", "tie")  # `_code` follows from them

    def __init__(self, n: int, first: frozenset[int], second: frozenset[int], tie: frozenset[int]) -> None:
        first, second, tie = frozenset(first), frozenset(second), frozenset(tie)
        if len(first) + len(second) + len(tie) != n or (first | second | tie) != frozenset(range(n)):
            raise ValueError("parts must partition the voters 0..n-1")
        total = 0
        for v in range(n):
            digit = 0 if v in first else 1 if v in second else 2
            total += digit * 3**v
        self.n, self.first, self.second, self.tie, self._code = n, first, second, tie, total

    def code(self) -> int:
        """Base-3 encoding: voter v contributes digit 0/1/2 with weight 3**v."""
        return self._code

    @classmethod
    def from_code(cls, n: int, code: int) -> "TriPartition":
        if not 0 <= code < 3**n:
            raise ValueError(f"code {code} out of range for n={n}")
        parts: tuple[list[int], list[int], list[int]] = ([], [], [])
        for v in range(n):
            parts[code % 3].append(v)
            code //= 3
        return cls(n, frozenset(parts[0]), frozenset(parts[1]), frozenset(parts[2]))

    def to_json_lists(self) -> list[list[int]]:
        return [sorted(self.first), sorted(self.second), sorted(self.tie)]

    @classmethod
    def from_json_lists(cls, n: int, lists: list[list[int]]) -> "TriPartition":
        if not (isinstance(lists, list) and len(lists) == 3 and all(isinstance(p, list) for p in lists)):
            raise ValueError("tri-partition JSON must have exactly three voter arrays")
        if not all(isinstance(v, int) and not isinstance(v, bool) for p in lists for v in p):
            raise ValueError("voter must be an integer")
        if (twice := next((v for v, c in Counter(v for p in lists for v in p).items() if c > 1), None)) is not None:
            raise ValueError(f"voter {twice} listed twice")  # a frozenset would drop the repeat
        return cls(n, frozenset(lists[0]), frozenset(lists[1]), frozenset(lists[2]))


def pair_partition(f: Profile, x: int, y: int) -> TriPartition:
    """How the voters of f split on the ordered pair (x, y)."""
    first, second, tie = [], [], []
    for v in range(f.n):
        s = f.stance(v, x, y)
        if s is PairStance.FIRST_PREFERRED:
            first.append(v)
        elif s is PairStance.SECOND_PREFERRED:
            second.append(v)
        else:
            tie.append(v)
    return TriPartition(f.n, frozenset(first), frozenset(second), frozenset(tie))


def pairwise_majority(f: Profile) -> BinaryRelation:
    """Strict-majority relation: x P y when more voters rank x above y than y above x."""
    m = f.m
    ranks = [[w.rank(x) for x in range(m)] for w in f.prefs]
    return BinaryRelation(
        tuple(tuple(sum((r[x] < r[y]) - (r[y] < r[x]) for r in ranks) > 0 for y in range(m)) for x in range(m))
    )


def domain_size(m: int, n: int, domain: Domain) -> int:
    return len(domain.orders(m)) ** n


def check_profile_space(m: int, n: int, domain: Domain) -> None:
    """Raise unless the domain's profiles can be enumerated.

    ValueError for fewer than one voter or m out of range, and
    BudgetExceededError when the domain holds more than the budget,
    `PROFILE_BUDGET_DEFAULT` profiles.  So are n voters with 2**n above
    it, even where each voter has a single order (m=1): a scan over them
    handles 2**n coalitions.  The domain's size is computed only below that bound.
    """
    budget = PROFILE_BUDGET_DEFAULT
    if n < 1:
        raise ValueError(f"need at least one voter, got n={n}")
    if n >= budget.bit_length():  # 2**n > budget
        raise BudgetExceededError(f"{n} voters: 2**{n} coalitions, over the budget of {budget}")
    size = domain_size(m, n, domain)
    if size > budget:
        raise BudgetExceededError(
            f"domain holds {size} profiles, over the budget of {budget}"
        )


def enumerate_profiles(m: int, n: int, domain: Domain) -> Iterator[Profile]:
    """All profiles of the domain in odometer order (voter n-1 fastest).

    Raises BudgetExceededError when the domain holds more than the budget
    of `check_profile_space`; partial enumeration is never silently returned.
    """
    check_profile_space(m, n, domain)
    orders = domain.orders(m)
    return (Profile(combo) for combo in product(orders, repeat=n))


def split_codes(n: int, domain: Domain) -> tuple[int, ...]:
    """The tri-partition codes reachable in the domain, ascending: position j's code is
    j's base-`domain.split_base` digits read in base 3."""
    codes = [0]
    for v in range(n):
        codes = [c + d * 3**v for d in range(domain.split_base) for c in codes]
    return tuple(codes)


def split_position(t: TriPartition, domain: Domain) -> int | None:
    """t's position in `split_codes(t.n, domain)`, or None where t is no split of the domain: a linear tie."""
    if domain is Domain.WEAK:
        return t.code()  # every code is a weak split, in order
    return None if t.tie else sum(1 << v for v in t.second)  # the code's base-3 digits read in base 2


def enumerate_tripartitions(n: int, domain: Domain) -> list[TriPartition]:
    """Tri-partitions reachable in the domain, ascending by code.

    Linear-order voters are never indifferent, so for Domain.LINEAR the
    tie part must be empty.
    """
    return [TriPartition.from_code(n, code) for code in split_codes(n, domain)]


def profile_from_texts(texts: list[str] | tuple[str, ...], alts: AlternativeSet | None = None) -> Profile:
    return Profile(tuple(parse_weak_order(t, alts) for t in texts))


def condorcet_profile() -> Profile:
    """Three voters whose pairwise majority cycles: the classic paradox."""
    return profile_from_texts(["A>B>C", "C>A>B", "B>C>A"])


def parse_header(obj: dict, error: Callable[..., ValueError]) -> tuple[int, int, AlternativeSet]:
    """Check a document's `m`, `n` and optional `labels`; return (m, n, alts).

    Shared by the profile and SWF parsers, which have checked that `m`
    and `n` are present; a defect raises `error(message, location=field)`.
    """
    m, n = obj["m"], obj["n"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise error("must be an integer", location="m")
    if not 1 <= m <= MAX_ALTERNATIVES:
        raise error(f"must be between 1 and {MAX_ALTERNATIVES}, got {m}", location="m")
    if not isinstance(n, int) or isinstance(n, bool):
        raise error("must be an integer", location="n")
    if n < 1:
        raise error(f"need at least one voter, got {n}", location="n")
    if "labels" not in obj:
        return m, n, AlternativeSet(m)
    labels = obj["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise error("must be a list of strings", location="labels")
    try:
        return m, n, AlternativeSet(m, tuple(labels))
    except ValueError as exc:
        raise error(str(exc), location="labels") from None


@acyclic
def parse_profile_json(data: str | dict) -> tuple[Profile, AlternativeSet]:
    """Parse and strictly validate the JSON profile format.

    Accepts raw text or an already-decoded dict.  Errors carry the
    offending location (JSON line/column, or a field path).
    """
    obj = load_object(data, ProfileFormatError, "profile")
    allowed = {"m", "n", "labels", "prefs"}
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ProfileFormatError(f"unknown keys {unknown}")
    for key in ("m", "n", "prefs"):
        if key not in obj:
            raise ProfileFormatError("required key missing", location=key)
    m, n, alts = parse_header(obj, ProfileFormatError)
    prefs = obj["prefs"]
    if not isinstance(prefs, list):
        raise ProfileFormatError("must be a list of order strings", location="prefs")
    if len(prefs) != n:
        raise ProfileFormatError(f"expected {n} orders, found {len(prefs)}", location="prefs")
    orders = []
    for i, text in enumerate(prefs):
        if not isinstance(text, str):
            raise ProfileFormatError("must be an order string", location=f"prefs[{i}]")
        try:
            orders.append(parse_weak_order(text, alts))
        except ValueError as exc:
            raise ProfileFormatError(str(exc), location=f"prefs[{i}]") from None
    return Profile(tuple(orders)), alts
