"""An infinite electorate, restricted to finite-or-cofinite coalitions.

Voters are the naturals.  Every coalition handled here is either finite
or cofinite and is written down with an explicit finite exception list,
so each set-algebra question (membership, union, intersection,
complement) has a total, exact decision procedure.  The
finite-or-cofinite subsets of an infinite ground set form a boolean
algebra, and the cofinite ones form a free filter on it, maximal within
the algebra: for every coalition exactly one of it and its complement
is cofinite, and no single voter lies in every cofinite set.

`frechet_stance` is the pairwise verdict rule this ultrafilter induces.
A valid tri-partition of the electorate has exactly one cofinite part,
and the verdict follows it.  The rule answers unanimous strict
preference correctly, reads nothing but the pair's own tri-partition
(so the independence requirement holds structurally), assembles into a
valid weak order on every measurable profile, and overrules any single
voter: `non_dictatorship_witness(v)` names a concrete tri-partition
where voter v says FIRST and the verdict says SECOND.  That is a fully
decidable possibility construction for an infinite electorate, in
deliberate contrast with the finite case, where the complete search in
`arrow_search` leaves only dictatorships standing.

The restriction to finite-or-cofinite coalitions is what buys the
decidability, and the boundary deserves stating plainly.  Over the full
algebra of computable coalitions, with coalitions handed over as opaque
program indices rather than explicit exception lists, no
non-dictatorial rule admits a total decision procedure for membership
in its decisive family: a classical diagonalisation would turn such a
procedure into a decider for the halting set.  The dictatorial rules
are the ones that stay decidable there, because decisiveness for a
dictator collapses to one membership query, namely whether the dictator
belongs to the coalition; `decisive_coalition_test` realises exactly
that collapse for `dictator_stance`.  Nothing in this module contradicts
the impossibility: explicit exception lists form a strict subalgebra
with decidable membership built in, while the impossibility needs the
opaque-index setting.  The converse direction (a decidable decisive
family forcing a dictator) lives entirely in that opaque-index world
and is out of scope here, since its content is a reduction from the
halting problem rather than an algorithm one could ship.

Coalitions print as "fin{1,2}", the finite set {1, 2}, and "cof{3}",
everything except 3; elements print sorted ascending.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable

from random import Random

from ._util import Value
from .kernel import STANCE_CODE, compose
from .relations import (
    PairStance,
    WeakOrder,
    pair_stance,
    unordered_pairs,
)

SAMPLE_BOUND = 200
SAMPLE_MOST = 8  # exceptions per seeded draw, at most


class FcMode(Enum):
    FINITE = "fin"
    COFINITE = "cof"


class FcSet(Value):
    """A finite or cofinite set of naturals with explicit exceptions.

    For FINITE mode `exceptions` are the members; for COFINITE mode they
    are the non-members.  Elements are checked once, where a set enters
    the algebra: construction checks them, and the seeded draws take
    them from a range.  Complement, union and intersection build their
    results from exceptions already checked.
    """

    __slots__ = ("mode", "exceptions")

    def __init__(self, mode: FcMode, exceptions: frozenset[int]) -> None:
        exc = frozenset(exceptions)
        # Plain non-negative ints pass at once; otherwise name the first offender.
        if exc and not (all(type(v) is int for v in exc) and min(exc) >= 0):
            for v in exc:
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise ValueError(f"exception {v!r} is not a natural number")
        self.mode, self.exceptions = mode, exc

    @classmethod
    def finite(cls, members: Iterable[int] = ()) -> "FcSet":
        return cls(FcMode.FINITE, frozenset(members))

    @classmethod
    def cofinite(cls, non_members: Iterable[int] = ()) -> "FcSet":
        return cls(FcMode.COFINITE, frozenset(non_members))

    def __str__(self) -> str:
        return format_fc(self)


def _fc(mode: FcMode, exceptions: frozenset[int]) -> FcSet:
    """An FcSet from exceptions that are known naturals, unchecked."""
    a = object.__new__(FcSet)
    a.mode, a.exceptions = mode, exceptions
    return a


EMPTY = FcSet.finite()
NATURALS = FcSet.cofinite()
_FIN, _COF = FcMode.FINITE, FcMode.COFINITE


def fc_member(a: FcSet, v: int) -> bool:
    if v < 0:
        raise ValueError(f"{v} is not a natural number")
    if a.mode is FcMode.FINITE:
        return v in a.exceptions
    return v not in a.exceptions


def fc_complement(a: FcSet) -> FcSet:
    return _fc(_COF if a.mode is _FIN else _FIN, a.exceptions)


def fc_union(a: FcSet, b: FcSet) -> FcSet:
    if a.mode is _FIN:
        if b.mode is _FIN:
            return _fc(_FIN, a.exceptions | b.exceptions)
        return _fc(_COF, b.exceptions - a.exceptions)
    if b.mode is _FIN:
        return _fc(_COF, a.exceptions - b.exceptions)
    return _fc(_COF, a.exceptions & b.exceptions)


def fc_intersect(a: FcSet, b: FcSet) -> FcSet:
    if a.mode is _COF:
        if b.mode is _COF:
            return _fc(_COF, a.exceptions | b.exceptions)
        return _fc(_FIN, b.exceptions - a.exceptions)
    if b.mode is _COF:
        return _fc(_FIN, a.exceptions - b.exceptions)
    return _fc(_FIN, a.exceptions & b.exceptions)


def _least_outside(exceptions: frozenset[int]) -> int:
    v = 0
    while v in exceptions:
        v += 1
    return v


def format_fc(a: FcSet) -> str:
    inner = ",".join(str(v) for v in sorted(a.exceptions))
    return f"{a.mode.value}{{{inner}}}"


# ------------------------------------------------------------- triples


class FcTriple(Value):
    """Tri-partition of the electorate on one pair: first/second/tie."""

    __slots__ = ("first", "second", "tie")

    def __init__(self, first: FcSet, second: FcSet, tie: FcSet) -> None:
        self.first, self.second, self.tie = first, second, tie

    def parts(self) -> tuple[tuple[str, FcSet], ...]:
        return (("first", self.first), ("second", self.second), ("tie", self.tie))

    def to_json_dict(self) -> dict:
        return {name: format_fc(part) for name, part in self.parts()}


class InvalidTripleError(ValueError):
    """The three parts fail to partition the electorate; carries a witness."""

    def __init__(self, reason: str, witness: int):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason} (witness voter {witness})")


def check_fc_triple(t: FcTriple) -> None:
    """Raise InvalidTripleError unless the parts partition the naturals.

    Pairs are tested in the order (first, second), (first, tie),
    (second, tie), then coverage; each witness is the least voter in the
    offending set.
    """
    parts = t.parts()
    for i, (name_a, a) in enumerate(parts):
        for name_b, b in parts[i + 1 :]:
            ea, eb = a.exceptions, b.exceptions
            if a.mode is _FIN:
                overlap = ea & eb if b.mode is _FIN else ea - eb
            elif b.mode is _FIN:
                overlap = eb - ea
            else:
                # Two cofinite sets always meet, beyond both exception lists.
                raise InvalidTripleError(
                    f"parts {name_a!r} and {name_b!r} overlap", _least_outside(ea | eb)
                )
            if overlap:
                raise InvalidTripleError(f"parts {name_a!r} and {name_b!r} overlap", min(overlap))
    cofinite = [part.exceptions for _, part in parts if part.mode is _COF]
    covered = frozenset().union(*(part.exceptions for _, part in parts if part.mode is _FIN))
    if not cofinite:
        raise InvalidTripleError("parts do not cover the electorate", _least_outside(covered))
    missing = frozenset.intersection(*cofinite) - covered
    if missing:
        raise InvalidTripleError("parts do not cover the electorate", min(missing))


def cofinite_part(t: FcTriple) -> tuple[str, FcSet]:
    """The unique cofinite part of a valid triple.

    Three disjoint finite sets cannot cover the naturals and two
    cofinite sets always intersect, so validity leaves exactly one.
    """
    check_fc_triple(t)
    cof = [(name, part) for name, part in t.parts() if part.mode is FcMode.COFINITE]
    if len(cof) != 1:
        raise RuntimeError("internal invariant violated: a valid triple has one cofinite part")
    return cof[0]


_STANCE_BY_PART = {
    "first": PairStance.FIRST_PREFERRED,
    "second": PairStance.SECOND_PREFERRED,
    "tie": PairStance.INDIFFERENT,
}

PairVerdictRule = Callable[[FcTriple], PairStance]


def frechet_stance(t: FcTriple) -> PairStance:
    """Follow the cofinite side: the verdict of the free ultrafilter."""
    name, _ = cofinite_part(t)
    return _STANCE_BY_PART[name]


def dictator_stance(v0: int, t: FcTriple) -> PairStance:
    """Echo whichever part contains voter v0."""
    check_fc_triple(t)
    for name, part in t.parts():
        if fc_member(part, v0):
            return _STANCE_BY_PART[name]
    raise RuntimeError("internal invariant violated: a valid triple covers every voter")


def dictator_rule(v0: int) -> PairVerdictRule:
    def rule(t: FcTriple) -> PairStance:
        return dictator_stance(v0, t)

    return rule


def decide_frechet_membership(a: FcSet) -> bool:
    """Total membership test for the rule's decisive family: cofinite or not."""
    return a.mode is FcMode.COFINITE


def decisive_coalition_test(rule: PairVerdictRule, a: FcSet) -> bool:
    """Is coalition `a` decisive for `rule`?  One canonical query decides.

    The probe triple puts a first, its complement second and nobody on
    the fence; a rule answers FIRST exactly when the coalition can force
    the verdict.  For `dictator_rule(v)` this agrees with membership of
    v in a, and for `frechet_stance` with `decide_frechet_membership`.
    """
    probe = FcTriple(first=a, second=fc_complement(a), tie=EMPTY)
    return rule(probe) is PairStance.FIRST_PREFERRED


def non_dictatorship_witness(v0: int) -> FcTriple:
    """A tri-partition where the whole rest of the world outvotes v0."""
    if v0 < 0:
        raise ValueError(f"{v0} is not a natural number")
    return FcTriple(
        first=FcSet.finite({v0}),
        second=FcSet.cofinite({v0}),
        tie=EMPTY,
    )


# ------------------------------------------------- randomized validation


def random_fc_set(rng: Random) -> FcSet:
    """A seeded draw, finite or cofinite; its exceptions come from range(SAMPLE_BOUND + 1), so they are naturals."""
    return _fc(_COF if rng.random() < 0.5 else _FIN, _random_exceptions(rng))


def _random_exceptions(rng: Random) -> frozenset[int]:
    """Up to SAMPLE_MOST distinct naturals up to SAMPLE_BOUND, read from `rng.getrandbits`.

    The same 32-bit words that `Random.randint(0, SAMPLE_MOST)` and then `Random.sample` of k from
    `range(SAMPLE_BOUND + 1)` read: each `_randbelow(n)` takes `getrandbits(n.bit_length())` until
    it is below n, and `sample` redraws repeats in its set branch (`setsize` <= 85 < 201 for 8 picks).
    """
    getrandbits, width = rng.getrandbits, (SAMPLE_MOST + 1).bit_length()
    k = getrandbits(width)
    while k > SAMPLE_MOST:
        k = getrandbits(width)
    width = (SAMPLE_BOUND + 1).bit_length()
    drawn: set[int] = set()
    while len(drawn) < k:
        v = getrandbits(width)
        if v <= SAMPLE_BOUND:
            drawn.add(v)
    return frozenset(drawn)


class FrechetAxiomReport(Value):
    """Seeded spot-check that the cofinite coalitions behave like a free ultrafilter.

    `checks` holds each check's outcome under its JSON name.
    """

    __slots__ = ("seed", "samples", "checks", "failures")
    __hash__ = None  # mutable

    def __init__(self, seed: int, samples: int, checks: dict[str, bool], failures: list[str]) -> None:
        self.seed, self.samples, self.checks, self.failures = seed, samples, checks, failures

    def all_ok(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {"seed": self.seed, "samples": self.samples, **self.checks, "failures": list(self.failures)}


def validate_fc_filter_axioms(seed: int = 0, samples: int = 500) -> FrechetAxiomReport:
    rng = Random(seed)
    checks = ("upward_closed", "intersection_closed", "proper", "complement_exclusive", "free")
    report = FrechetAxiomReport(seed, samples, dict.fromkeys(checks, True), [])

    def fail(check: str, message: str) -> None:
        report.checks[check] = False
        report.failures.append(message)

    for _ in range(samples):
        a = _fc(_COF, _random_exceptions(rng))
        b = fc_union(a, random_fc_set(rng))
        if not decide_frechet_membership(b):
            fail("upward_closed", f"superset {format_fc(b)} of {format_fc(a)} not a member")

    for _ in range(samples):
        a = _fc(_COF, _random_exceptions(rng))
        b = _fc(_COF, _random_exceptions(rng))
        if not decide_frechet_membership(fc_intersect(a, b)):
            fail("intersection_closed", f"intersection of {format_fc(a)} and {format_fc(b)} not a member")

    if decide_frechet_membership(EMPTY):
        fail("proper", "the empty coalition claims membership")

    for _ in range(samples):
        a = random_fc_set(rng)
        if decide_frechet_membership(a) == decide_frechet_membership(fc_complement(a)):
            fail("complement_exclusive", f"{format_fc(a)} and its complement agree on membership")

    for v in range(100):
        member = _fc(_COF, frozenset((v,)))
        if not decide_frechet_membership(member):
            fail("free", f"cof{{{v}}} refused membership")
        if fc_member(member, v):
            fail("free", f"voter {v} found inside cof{{{v}}}")
    return report


# ------------------------------------------------- measurable profiles


class EventuallyConstantProfile(Value):
    """A profile where all but finitely many voters share a tail order.

    This is the measurable-profile model: each voter holds one of
    finitely many weak orders, so per pair each stance coalition is
    finite or cofinite and the tri-partition lands in the algebra.
    """

    __slots__ = ("tail", "overrides")

    def __init__(self, tail: WeakOrder, overrides: tuple[tuple[int, WeakOrder], ...]) -> None:
        # Plain non-negative ints only, checked before the sort can compare them.
        if not all(type(v) is int and v >= 0 for v, _ in overrides):
            raise ValueError("override voters must be naturals")
        overrides = tuple(sorted(overrides, key=lambda item: item[0]))
        if len({v for v, _ in overrides}) != len(overrides):
            raise ValueError("override voters must be distinct")
        if any(w.m != tail.m for _, w in overrides):
            raise ValueError("override orders must rank the same alternatives as the tail")
        self.tail, self.overrides = tail, overrides

    @property
    def m(self) -> int:
        return self.tail.m

    def pair_triple(self, x: int, y: int) -> FcTriple:
        """The tri-partition of the electorate on (x, y), as FcSets.

        The override voters, naturals since construction, are grouped by stance code in
        one pass; the tail's part is the cofinite set whose exceptions are the other two.
        """
        parts: tuple[list[int], list[int], list[int]] = ([], [], [])
        for voter, w in self.overrides:
            parts[STANCE_CODE[pair_stance(w, x, y)]].append(voter)
        tail = STANCE_CODE[pair_stance(self.tail, x, y)]
        sets = [None if s == tail else _fc(_FIN, frozenset(part)) for s, part in enumerate(parts)]
        sets[tail] = _fc(_COF, sets[tail - 1].exceptions | sets[tail - 2].exceptions)
        return FcTriple(*sets)


def frechet_verdict(p: EventuallyConstantProfile) -> WeakOrder:
    """Assemble the rule's stances on every pair into one weak order."""
    codes = tuple(STANCE_CODE[frechet_stance(p.pair_triple(x, y))] for x, y in unordered_pairs(p.m))
    _, res, order = compose(p.m, codes)
    if not res.ok:
        raise RuntimeError(
            f"internal invariant violated: assembled verdict failed {res.axiom} at {res.witness}"
        )
    return order
