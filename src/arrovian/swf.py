"""Social welfare functions on exhaustively enumerable domains.

Two representations are used side by side:

* `ExplicitSwf`: a verdict table, one weak order per domain profile,
  stored as one row of verdict indices in the domain kernel's profile
  order; `verdict(f)` and the read-only `verdicts` mapping are views
  that build `Profile` and `WeakOrder` objects on demand.
* `PairwiseRuleSwf`: per pair of alternatives, the verdict's stance
  code at each of the voters' tri-partitions on that pair, laid out by
  split position, which the checks read; `rules` is the same as
  `TriPartition` and `PairStance` objects.  This is exactly
  the shape forced by the independence axiom, so independence holds for
  it by construction; whether the per-pair stances assemble into a valid
  weak order on every profile is a separate question, answered by
  `assemble` (a `CompositionFailure` is an answer, not a fault).

The five axioms checked by `full_report`:

  a1  at least three alternatives
  a2  totality: a valid weak-order verdict for every domain profile
  a3  unanimity: a strict consensus on a pair is echoed by the verdict
  a4  independence: the verdict on a pair depends on that pair alone
  a5  non-dictatorship: no voter's strict preference always prevails

JSON formats (owned here)::

    {"kind": "explicit", "m": 3, "n": 2, "domain": "linear",
     "labels": ["A", "B", "C"],
     "entries": [[["A>B>C", "A>B>C"], "A>B>C"], ...]}

    {"kind": "pairwise", "m": 3, "n": 2, "domain": "linear",
     "labels": ["A", "B", "C"],
     "rules": {"A,B": [[[[0, 1], [], []], "FIRST"], ...], ...}}
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import ItemsView, Mapping
from functools import cache, cached_property
from itertools import product, repeat
from types import MappingProxyType
from typing import Union

from ._util import FormatError, Value, acyclic, load_object
from .relations import (
    AlternativeSet,
    BinaryRelation,
    PairStance,
    ValidationResult,
    WeakOrder,
    default_labels,
    enumerate_weak_orders,
    format_weak_order,
    pair_stance,
    parse_weak_order,
    unordered_pairs,
)
from .profiles import (
    Domain,
    Profile,
    TriPartition,
    check_profile_space,
    enumerate_profiles,
    enumerate_tripartitions,
    pair_partition,
    parse_header,
    split_codes,
    split_position,
)
from .kernel import (
    ABSENT, MISSING, STANCE_CODE, STANCES, ColumnFacts, DomainKernel, column_facts, compose, compose_rows,
    domain_kernel, first_absent, first_profile, split_columns, verdict_codes, verdict_index,
)


class SwfFormatError(FormatError):
    """An SWF file failed to decode or validate; `location` says where, when known."""


class CompositionFailure(Value):
    """Per-pair stances that do not assemble into a weak order."""

    __slots__ = ("profile", "relation", "validation")

    def __init__(self, profile: Profile, relation: BinaryRelation, validation: ValidationResult) -> None:
        self.profile, self.relation, self.validation = profile, relation, validation


class ExplicitSwf:
    """A verdict table over an enumerated profile domain.

    Stored as one row: `row[i]` is the verdict on profile i of the
    domain kernel, as its index in `enumerate_weak_orders(m)`, or ABSENT
    where the table has none.  Producers in this package write the row
    through `from_row`; the constructor takes a mapping from `Profile`
    to `WeakOrder` and drops the profiles outside the domain, which no
    check reads.  `verdicts` is the row read as such a mapping, read-only,
    which makes each `Profile` only when asked and keeps none; `verdict(f)`
    looks one profile up.
    """

    def __init__(self, m: int, n: int, domain: Domain, verdicts: Mapping[Profile, WeakOrder]):
        k, index = domain_kernel(m, n, domain), verdict_index(m)
        cells = {i: index[w] for f, w in verdicts.items() if (i := k.profile_index(f)) is not None}
        self.m, self.n, self.domain, self.row = m, n, domain, _filled(k.size, cells)

    @classmethod
    def from_row(cls, m: int, n: int, domain: Domain, row: array) -> ExplicitSwf:
        swf = cls.__new__(cls)
        swf.m, swf.n, swf.domain, swf.row = m, n, domain, row
        return swf

    @property
    def verdicts(self) -> Mapping[Profile, WeakOrder]:
        return _Verdicts(self)

    def verdict(self, f: Profile) -> WeakOrder:
        i = domain_kernel(self.m, self.n, self.domain).profile_index(f)
        if i is None or self.row[i] == ABSENT:
            raise LookupError(f"profile outside the verdict table: {_profile_texts(f)}")
        return enumerate_weak_orders(self.m)[self.row[i]]

    def stance(self, f: Profile, x: int, y: int) -> PairStance:
        return pair_stance(self.verdict(f), x, y)

    def stance_columns(self, k: DomainKernel) -> list[bytes]:
        """Per pair of `k.canonical`, the verdict's stance code on each profile: below 256 verdicts (m <= 4)
        each entry's low byte translated through the codes padded with MISSING, which ABSENT's 0xFF reads."""
        if len(verdict_index(self.m)) > 255:
            return [bytes(map(codes.__getitem__, self.row)) for codes in verdict_codes(self.m)]
        low, pad = self.row.tobytes()[sys.byteorder == "big" :: 2], bytes([MISSING])
        return [low.translate(bytes(codes[:-1]).ljust(256, pad)) for codes in verdict_codes(self.m)]

    def describe(self) -> str:
        return f"explicit swf, m={self.m}, n={self.n}, domain={self.domain.value}"


class _Verdicts(Mapping):
    """An explicit SWF's row read as a mapping from `Profile` to `WeakOrder`, a profile at a time."""

    __slots__ = ("_swf",)

    def __init__(self, swf: ExplicitSwf):
        self._swf = swf

    def __getitem__(self, f) -> WeakOrder:
        swf = self._swf
        i = domain_kernel(swf.m, swf.n, swf.domain).profile_index(f) if isinstance(f, Profile) else None
        if i is None or swf.row[i] == ABSENT:
            raise KeyError(f)
        return enumerate_weak_orders(swf.m)[swf.row[i]]

    def __iter__(self):
        return (f for f, _ in self.items())

    def __len__(self) -> int:
        return len(self._swf.row) - self._swf.row.count(ABSENT)

    def items(self) -> ItemsView:
        return _VerdictItems(self)


class _VerdictItems(ItemsView):
    """The (profile, verdict) pairs of `_Verdicts`, read off the row in profile order."""

    def __iter__(self):
        swf = self._mapping._swf
        orders, profiles = enumerate_weak_orders(swf.m), enumerate_profiles(swf.m, swf.n, swf.domain)
        return ((f, orders[j]) for f, j in zip(profiles, swf.row) if j != ABSENT)


def _filled(size: int, cells: dict[int, int]) -> array:
    """The verdict row of a domain of `size` profiles holding `cells` (profile index to verdict index),
    ABSENT elsewhere."""
    row = array("h", [ABSENT]) * size
    for i, j in cells.items():
        row[i] = j
    return row


class PairwiseRuleSwf:
    """Per-pair verdict rules keyed by the voters' tri-partition.

    `layout[q]` is canonical pair q's rule, its stance code at each of the domain's splits by
    position (`split_codes`, ascending tri-partition code), MISSING where it has none, and
    `b""` where the pair has no rule table at all.  Producers in this package write it through
    `from_layout`.  The constructor takes `TriPartition`-to-`PairStance` maps, drops the pairs
    and splits outside the domain, which no check reads, and raises as `enumerate_profiles`
    would.  `rules` is the layout as such maps, read-only, built on first use.
    """

    def __init__(
        self, m: int, n: int, domain: Domain, rules: Mapping[tuple[int, int], Mapping[TriPartition, PairStance]]
    ):
        check_profile_space(m, n, domain)  # before a layout of one byte per split
        splits = split_codes(n, domain)
        tables = {pair: {t.code(): STANCE_CODE[s] for t, s in rule.items() if t.n == n} for pair, rule in rules.items()}
        self.m, self.n, self.domain = m, n, domain
        self.layout = tuple(
            bytes(map(tables[p].get, splits, repeat(MISSING))) if p in tables else b"" for p in unordered_pairs(m)
        )

    @classmethod
    def from_layout(cls, m: int, n: int, domain: Domain, layout: tuple[bytes, ...]) -> PairwiseRuleSwf:
        swf = cls.__new__(cls)
        swf.m, swf.n, swf.domain, swf.layout = m, n, domain, layout
        return swf

    @cached_property
    def rules(self) -> Mapping[tuple[int, int], Mapping[TriPartition, PairStance]]:
        tris = enumerate_tripartitions(self.n, self.domain)
        return MappingProxyType({
            pair: MappingProxyType({t: STANCES[s] for t, s in zip(tris, lut) if s != MISSING})
            for pair, lut in zip(unordered_pairs(self.m), self.layout)
            if lut
        })

    def rule_stance(self, pair: tuple[int, int], t: TriPartition) -> PairStance:
        x, y = pair
        if x >= y:
            raise ValueError(f"pair {pair} is not canonical (need x < y)")
        q = x * (2 * self.m - x - 1) // 2 + y - x - 1  # the position of (x, y) in `unordered_pairs(m)`
        if x < 0 or y >= self.m or not (lut := self.layout[q]):
            raise LookupError(f"no rule table for pair {pair}")
        j = split_position(t, self.domain) if t.n == self.n else None
        if j is None or lut[j] == MISSING:
            raise LookupError(f"no rule for pair {pair} at tri-partition code {t.code()}")
        return STANCES[lut[j]]

    def stance(self, f: Profile, x: int, y: int) -> PairStance:
        if x < y:
            return self.rule_stance((x, y), pair_partition(f, x, y))
        return self.rule_stance((y, x), pair_partition(f, y, x)).flipped()

    def assemble(self, f: Profile) -> Union[WeakOrder, CompositionFailure]:
        """Compose the per-pair stances on profile f into one relation.

        Returns the canonical weak order when the stances cohere, and a
        CompositionFailure carrying the offending relation otherwise.
        """
        codes = tuple(
            STANCE_CODE[self.rule_stance(pair, pair_partition(f, *pair))]
            for pair in unordered_pairs(self.m)
        )
        rel, res, order = compose(self.m, codes)
        return order if res.ok else CompositionFailure(f, rel, res)

    def stance_columns(self, k: DomainKernel) -> list[bytes]:
        """Per pair of `k.canonical`, the rule's stance code on each profile."""
        return split_columns(k, self.layout)

    def describe(self) -> str:
        return f"pairwise-rule swf, m={self.m}, n={self.n}, domain={self.domain.value}"


Swf = Union[ExplicitSwf, PairwiseRuleSwf]


# ---------------------------------------------------------------- checks


class UnanimityCheck(Value):
    __slots__ = ("ok", "profile", "pair")

    def __init__(self, ok: bool, profile: Profile | None = None, pair: tuple[int, int] | None = None) -> None:
        self.ok, self.profile, self.pair = ok, profile, pair


class IndependenceCheck(Value):
    __slots__ = ("ok", "profile_a", "profile_b", "pair", "by_construction")

    def __init__(
        self, ok: bool, profile_a: Profile | None = None, profile_b: Profile | None = None,
        pair: tuple[int, int] | None = None, by_construction: bool = False,
    ) -> None:
        self.ok, self.profile_a, self.profile_b, self.pair = ok, profile_a, profile_b, pair
        self.by_construction = by_construction


_UNANIMOUS = UnanimityCheck(True)  # a passing check has no witness, so every audit shares one
_INDEPENDENT = IndependenceCheck(True)
_INDEPENDENT_BY_CONSTRUCTION = IndependenceCheck(True, by_construction=True)


def _profile_at(swf: Swf, k: DomainKernel, i: int, pair: tuple[int, int], code: int) -> Profile:
    """Profile i as an object, for a witness at `pair`.

    When the verdict there is undefined (`MISSING`), asking the SWF for
    it raises the LookupError that names the missing verdict or rule cell.
    """
    f = k.profile(i)
    if code == MISSING:
        swf.stance(f, *pair)
    return f


def _kernel_columns(swf: Swf) -> tuple[DomainKernel, list[bytes]]:
    k = domain_kernel(swf.m, swf.n, swf.domain)
    return k, swf.stance_columns(k)


def check_unanimity(swf: Swf) -> UnanimityCheck:
    """Whenever every voter strictly prefers a to b, so must the verdict.

    Pairs are scanned in lexicographic order, profiles in enumeration
    order, so a failing witness is deterministic.
    """
    k, cols = _kernel_columns(swf)
    return _unanimity(swf, k, cols, column_facts(k, cols))


def _unanimity(swf: Swf, k: DomainKernel, cols: list[bytes], facts: list[ColumnFacts]) -> UnanimityCheck:
    for pair, (q, r) in zip(k.pairs, k.slot):
        i = facts[q].unanimous[r]
        if i is not None:
            return UnanimityCheck(False, _profile_at(swf, k, i, pair, cols[q][i]), pair)
    return _UNANIMOUS


def check_independence(swf: Swf) -> IndependenceCheck:
    """The verdict on a pair may depend only on the voters' stances there.

    The first profile whose verdict stance is not its split's first profile's is a
    counterexample.  Pairwise-rule SWFs satisfy this by construction.
    """
    if isinstance(swf, PairwiseRuleSwf):
        return _INDEPENDENT_BY_CONSTRUCTION
    return _independence(swf, *_kernel_columns(swf))


def _layouts(k: DomainKernel, cols: list[bytes]) -> tuple[list[bytes], list[int | None]]:
    """Per canonical pair, its column at the first profile of each split (`k.first_seen`), and its first break:
    the first profile MISSING or unlike its split's first, where the layout read back, MISSING as 0xFF, differs."""
    layouts = [bytes(map(col.__getitem__, first)) for first, col in zip(k.first_seen, cols)]
    backs = split_columns(k, [lut.replace(bytes([MISSING]), b"\xff") for lut in layouts])
    diffs = (0 if c == b else int.from_bytes(c, "little") ^ int.from_bytes(b, "little") for c, b in zip(cols, backs))
    return layouts, list(map(first_profile, diffs))


def _independence(swf: ExplicitSwf, k: DomainKernel, cols: list[bytes]) -> IndependenceCheck:
    for q, (pair, i) in enumerate(zip(k.canonical, _layouts(k, cols)[1])):
        if i is not None:
            _profile_at(swf, k, i, pair, cols[q][i])
            return IndependenceCheck(False, k.profile(k.first_seen[q][k.tri[q][i]]), k.profile(i), pair)
    return _INDEPENDENT


def find_dictator(swf: Swf) -> int | None:
    """The least voter whose strict preferences the verdict always follows."""
    k, cols = _kernel_columns(swf)
    return _dictator(swf, k, cols, column_facts(k, cols))


def _dictator(swf: Swf, k: DomainKernel, cols: list[bytes], facts: list[ColumnFacts]) -> int | None:
    # A voter who is not one is checked at their first overruled place in
    # (profile, ordered pair) order, which raises if the verdict there is undefined.
    for v in range(k.n):
        places = [(i, p) for p, (q, r) in enumerate(k.slot) if (i := facts[q].first[v][r]) is not None]
        if not places:
            return v
        i, p = min(places)
        if cols[k.slot[p][0]][i] == MISSING:
            _profile_at(swf, k, i, k.pairs[p], MISSING)
    return None


class AxiomReport(Value):
    """Outcome of the five-axiom audit; True means the axiom holds."""

    __slots__ = ("a1", "a2", "a3", "a4", "a5", "dictator", "witnesses")
    __hash__ = None  # mutable

    def __init__(
        self, a1: bool, a2: bool, a3: bool, a4: bool, a5: bool, dictator: int | None,
        witnesses: dict[str, dict] | None = None,
    ) -> None:
        self.a1, self.a2, self.a3, self.a4, self.a5, self.dictator = a1, a2, a3, a4, a5, dictator
        self.witnesses = {} if witnesses is None else witnesses

    def arrovian(self) -> bool:
        """a1 through a4 together; a5 is reported but not required here."""
        return self.a1 and self.a2 and self.a3 and self.a4

    def failed(self) -> list[str]:
        return [name for name in ("a1", "a2", "a3", "a4", "a5") if not getattr(self, name)]

    def to_json_dict(self, alts: AlternativeSet | None = None) -> dict:
        verdicts = {
            name: ("PASS" if getattr(self, name) else "FAIL")
            for name in ("a1", "a2", "a3", "a4", "a5")
        }
        witnesses = {}
        for name, data in self.witnesses.items():
            witnesses[name] = _witness_json(data, alts)
        return {"axioms": verdicts, "dictator": self.dictator, "witnesses": witnesses}


def _profile_texts(f: Profile, alts: AlternativeSet | None = None) -> list[str]:
    if alts is not None and alts.m != f.m:
        alts = None
    return [format_weak_order(w, alts) for w in f.prefs]


def _witness_json(data: dict, alts: AlternativeSet | None) -> dict:
    def lab(x: int) -> str:
        if alts is not None and x < alts.m:
            return alts.label(x)
        return default_labels(x + 1)[x]

    out = {}
    for key, value in data.items():
        if isinstance(value, Profile):
            out[key] = _profile_texts(value, alts)
        elif key == "pair" and isinstance(value, tuple):
            out[key] = [lab(value[0]), lab(value[1])]
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


def full_report(swf: Swf, memo: dict | None = None) -> AxiomReport:
    """Audit all five axioms, collecting a concrete witness per failure.

    On a partial rule (missing verdicts or rule cells) the quantified
    checks a3 through a5 cannot sweep the whole domain; they are then
    reported failed with an explanatory witness rather than raising.
    Audits that share a `memo` of `kernel.column_facts`, as one search's
    survivors do, compute each distinct column's facts once.
    """
    return audit_columns(swf, memo)[0]


def audit_columns(swf: Swf, memo: dict | None = None) -> tuple[AxiomReport, DomainKernel, list[ColumnFacts]]:
    """`full_report`, with the kernel and column facts it read.

    The stance columns are built once and shared by every check; callers
    that read the columns' facts again after the audit take them from here.
    """
    k = domain_kernel(swf.m, swf.n, swf.domain)
    witnesses: dict[str, dict] = {}  # an axiom holds exactly when it has no witness
    if swf.m < 3:
        witnesses["a1"] = {"m": swf.m}

    cols = swf.stance_columns(k)
    facts = column_facts(k, cols, memo)
    if isinstance(swf, ExplicitSwf):
        if ABSENT in swf.row:
            witnesses["a2"] = {"profile": k.profile(swf.row.index(ABSENT)), "error": "no verdict recorded"}
    elif (i := first_absent(k, [c.code for c in facts])) is not None:
        f = k.profile(i)
        try:
            failure = swf.assemble(f)
        except LookupError as exc:
            witnesses["a2"] = {"profile": f, "error": str(exc)}
        else:
            res = failure.validation
            witnesses["a2"] = {"profile": f, "axiom": res.axiom, "witness": res.witness}

    try:
        una = _unanimity(swf, k, cols, facts)
        if not una.ok:
            witnesses["a3"] = {"profile": una.profile, "pair": una.pair}
    except LookupError as exc:
        witnesses["a3"] = {"error": f"not evaluable: {exc}"}

    try:
        ind = check_independence(swf) if isinstance(swf, PairwiseRuleSwf) else _independence(swf, k, cols)
        if not ind.ok:
            witnesses["a4"] = {"profile_a": ind.profile_a, "profile_b": ind.profile_b, "pair": ind.pair}
    except LookupError as exc:
        witnesses["a4"] = {"error": f"not evaluable: {exc}"}

    dictator = None
    try:
        dictator = _dictator(swf, k, cols, facts)
        if dictator is not None:
            witnesses["a5"] = {"dictator": dictator}
    except LookupError as exc:
        witnesses["a5"] = {"error": f"not evaluable: {exc}"}

    holds = (name not in witnesses for name in ("a1", "a2", "a3", "a4", "a5"))
    return AxiomReport(*holds, dictator, witnesses), k, facts


# ------------------------------------------------- between representations


def expand_to_explicit(swf: PairwiseRuleSwf) -> ExplicitSwf:
    """Assemble every domain profile; raises if any composition fails."""
    k, cols = _kernel_columns(swf)
    row = compose_rows(k, cols)
    if ABSENT in row:
        f = k.profile(row.index(ABSENT))
        failure = swf.assemble(f)  # raises the LookupError of an undefined cell
        raise ValueError(
            f"rules do not assemble on profile {_profile_texts(f)}: "
            f"{failure.validation.axiom} violated at {failure.validation.witness}"
        )
    return ExplicitSwf.from_row(swf.m, swf.n, swf.domain, row)


def derive_rules(swf: ExplicitSwf) -> PairwiseRuleSwf:
    """Project an independent explicit SWF onto per-pair rule tables.

    Raises when two profiles sharing a pair's tri-partition disagree on
    the verdict stance, i.e. when independence fails.
    """
    k, cols = _kernel_columns(swf)
    layouts, stops = _layouts(k, cols)
    if breaks := [(i, q) for q, i in enumerate(stops) if i is not None]:
        i, q = min(breaks)
        pair, j, s = k.canonical[q], k.tri[q][i], cols[q][i]
        _profile_at(swf, k, i, pair, s)
        raise ValueError(
            f"independence fails on pair {pair}: tri-partition code {k.splits[j]} "
            f"maps to both {STANCES[layouts[q][j]].value} and {STANCES[s].value}"
        )
    return PairwiseRuleSwf.from_layout(swf.m, swf.n, swf.domain, tuple(layouts))


# ------------------------------------------------------------------ JSON


def swf_to_json_dict(swf: Swf, alts: AlternativeSet | None = None) -> dict:
    if alts is None:
        alts = AlternativeSet(swf.m)
    if alts.m != swf.m:
        raise ValueError(f"{alts.m} labels for an swf on m={swf.m} alternatives")
    base = {
        "m": swf.m,
        "n": swf.n,
        "domain": swf.domain.value,
        "labels": list(alts.all_labels()),
    }
    if isinstance(swf, ExplicitSwf):
        # Enumeration order is sorted by each ballot's classes, so entries come out sorted by profile.
        texts, index = [format_weak_order(w, alts) for w in enumerate_weak_orders(swf.m)], verdict_index(swf.m)
        profiles = product([texts[index[w]] for w in swf.domain.orders(swf.m)], repeat=swf.n)
        return {
            "kind": "explicit",
            **base,
            "entries": [[list(f), texts[j]] for f, j in zip(profiles, swf.row) if j != ABSENT],
        }
    lists = cache(TriPartition.to_json_lists)  # one rendering per distinct tri-partition
    rules_json = {
        f"{alts.label(x)},{alts.label(y)}": [[lists(t), s.value] for t, s in table.items()]
        for (x, y), table in swf.rules.items()
    }
    return {"kind": "pairwise", **base, "rules": rules_json}


@acyclic
def parse_swf_json(data: str | dict) -> tuple[Swf, AlternativeSet]:
    obj = load_object(data, SwfFormatError, "swf")
    kind = obj.get("kind")
    if kind not in ("explicit", "pairwise"):
        raise SwfFormatError(f"kind must be 'explicit' or 'pairwise', got {kind!r}")
    body = "entries" if kind == "explicit" else "rules"
    if unknown := sorted(set(obj) - {"kind", "m", "n", "domain", "labels", body}):
        raise SwfFormatError(f"unknown keys {unknown}")
    for key in ("m", "n", "domain"):
        if key not in obj:
            raise SwfFormatError(f"required key {key!r} missing")
    m, n, alts = parse_header(obj, SwfFormatError)
    try:
        domain = Domain.from_name(obj["domain"])
    except ValueError as exc:
        raise SwfFormatError(str(exc)) from None

    if kind == "explicit":
        entries = obj.get("entries")
        if not isinstance(entries, list):
            raise SwfFormatError("entries must be a list")
        # Each text's ballot and verdict index, starting from the texts the writer emits; a text
        # it would not emit (a stray space, class members out of order) is parsed once, then kept.
        texts, index = [format_weak_order(w, alts) for w in enumerate_weak_orders(m)], verdict_index(m)
        verdict_at = {text: j for j, text in enumerate(texts)}
        ballot_at = {texts[index[w]]: d for d, w in enumerate(domain.orders(m))}
        size = len(ballot_at)

        def read(text, at: dict[str, int], linear: bool) -> int:
            if not isinstance(text, str):
                raise ValueError(f"order must be a string, got {type(text).__name__}")
            w = parse_weak_order(text, alts)
            if linear and len(w.classes) < m:
                raise ValueError("profile outside the linear domain")
            at[text] = j = at[format_weak_order(w, alts)]
            return j

        table: dict[int, int] = {}  # profile index to verdict index
        for i, entry in enumerate(entries):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise SwfFormatError(f"entries[{i}]: expected [profile, verdict]")
            prof_texts, verdict_text = entry
            if not (isinstance(prof_texts, list) and len(prof_texts) == n):
                raise SwfFormatError(f"entries[{i}]: profile must list {n} orders")
            at = 0  # the profile's enumeration index
            try:
                for text in prof_texts:
                    try:
                        d = ballot_at[text]
                    except (KeyError, TypeError):  # a text not seen yet, or an unhashable one
                        d = read(text, ballot_at, domain is Domain.LINEAR)
                    at = at * size + d
                try:
                    w = verdict_at[verdict_text]
                except (KeyError, TypeError):
                    w = read(verdict_text, verdict_at, False)
            except ValueError as exc:
                raise SwfFormatError(f"entries[{i}]: {exc}") from None
            if at in table:
                raise SwfFormatError(f"entries[{i}]: duplicate profile")
            table[at] = w
        # The domain's size is checked only now, so that a defect in the entries is reported first.
        check_profile_space(m, n, domain)
        return ExplicitSwf.from_row(m, n, domain, _filled(size**n, table)), alts

    rules_json = obj.get("rules")
    if not isinstance(rules_json, dict):
        raise SwfFormatError("rules must be an object keyed by pair")
    tables: dict[tuple[int, int], dict[TriPartition, PairStance]] = {}
    for key, cells in rules_json.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise SwfFormatError(f"rules key {key!r}: expected 'X,Y'")
        try:
            x, y = alts.index(parts[0]), alts.index(parts[1])
        except ValueError as exc:
            raise SwfFormatError(f"rules key {key!r}: {exc}") from None
        if x >= y:
            raise SwfFormatError(f"rules key {key!r}: pair must be canonical (x before y)")
        if not isinstance(cells, list):
            raise SwfFormatError(f"rules[{key!r}] must be a list of [tri-partition, stance]")
        table: dict[TriPartition, PairStance] = {}
        for i, cell in enumerate(cells):
            if not (isinstance(cell, list) and len(cell) == 2):
                raise SwfFormatError(f"rules[{key!r}][{i}]: expected [tri-partition, stance]")
            tri_lists, stance_name = cell
            try:
                t = TriPartition.from_json_lists(n, tri_lists)
                s = PairStance.from_name(stance_name)
            except (ValueError, TypeError) as exc:
                raise SwfFormatError(f"rules[{key!r}][{i}]: {exc}") from None
            if t.tie and domain is Domain.LINEAR:
                raise SwfFormatError(f"rules[{key!r}][{i}]: tri-partition outside the linear domain")
            if t in table:
                raise SwfFormatError(f"rules[{key!r}][{i}]: duplicate tri-partition")
            table[t] = s
        tables[(x, y)] = table
    # The domain's size is checked only now, so that a defect in the rules is reported first.
    return PairwiseRuleSwf(m, n, domain, tables), alts
