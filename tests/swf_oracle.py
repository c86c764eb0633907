"""Object-level reference for the quantified SWF checks and table builders,
and the sample rules and helpers the tests build their inputs from.

The references are the direct readings of the axioms and constructions:
walk every `Profile` of the domain and ask the SWF, the ultrafilter or
the search problem for its stance or cell pair by pair.  The package runs
the same checks and builds the same tables as integer lookups over
`arrovian.kernel`; the tests require both to give equal answers, equal
witnesses and equal error texts.  `majority_edges` does the same for
`profiles.pairwise_majority`, and `is_ultrafilter_maximal` for
`filters.is_ultrafilter_complement`.

The sample rules (dictator, anti-dictator, constant, Borda, majority)
are built through the public `PairwiseRuleSwf` and `ExplicitSwf`
constructors, profile by profile or split by split.  Only tests, and
the CI steps that write sample documents, import this module.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from random import Random
from typing import Callable

from arrovian.arrow_search import SearchProblem, _allowed_triples, _propagate
from arrovian.fc_infinite import SAMPLE_BOUND, EventuallyConstantProfile
from arrovian.filters import CoalitionFamily, is_filter, is_ultrafilter_complement
from arrovian.profiles import (
    Domain,
    Profile,
    TriPartition,
    enumerate_profiles,
    enumerate_tripartitions,
    pair_partition,
)
from arrovian.relations import (
    AlternativeSet,
    BinaryRelation,
    PairStance,
    WeakOrder,
    enumerate_weak_orders,
    format_weak_order,
    ordered_pairs,
    to_canonical,
    unordered_pairs,
    validate_weak_order,
)
from arrovian.swf import (
    AxiomReport,
    CompositionFailure,
    ExplicitSwf,
    IndependenceCheck,
    PairwiseRuleSwf,
    Swf,
    UnanimityCheck,
    _profile_texts,
)


def majority_edges(f: Profile) -> list[tuple[int, int]]:
    """The strict-majority edges of f, ascending: each ballot adds one to the margin of every
    (x, y) with x in an earlier indifference class than y, and takes one from (y, x)."""
    margin = dict.fromkeys(ordered_pairs(f.m), 0)
    for w in f.prefs:
        for i, upper in enumerate(w.classes):
            for lower in w.classes[i + 1 :]:
                for x in upper:
                    for y in lower:
                        margin[x, y] += 1
                        margin[y, x] -= 1
    return sorted(pair for pair, d in margin.items() if d > 0)


def check_unanimity(swf: Swf) -> UnanimityCheck:
    profiles = list(enumerate_profiles(swf.m, swf.n, swf.domain))
    for a, b in ordered_pairs(swf.m):
        for f in profiles:
            if all(f.stance(v, a, b) is PairStance.FIRST_PREFERRED for v in range(swf.n)):
                if swf.stance(f, a, b) is not PairStance.FIRST_PREFERRED:
                    return UnanimityCheck(False, f, (a, b))
    return UnanimityCheck(True)


def check_independence(swf: Swf) -> IndependenceCheck:
    if isinstance(swf, PairwiseRuleSwf):
        return IndependenceCheck(True, by_construction=True)
    profiles = list(enumerate_profiles(swf.m, swf.n, swf.domain))
    for x, y in unordered_pairs(swf.m):
        seen: dict[tuple[PairStance, ...], tuple[Profile, PairStance]] = {}
        for f in profiles:
            sig = tuple(f.stance(v, x, y) for v in range(swf.n))
            verdict = swf.stance(f, x, y)
            if sig not in seen:
                seen[sig] = (f, verdict)
            elif seen[sig][1] is not verdict:
                return IndependenceCheck(False, seen[sig][0], f, (x, y))
    return IndependenceCheck(True)


def find_dictator(swf: Swf) -> int | None:
    profiles = list(enumerate_profiles(swf.m, swf.n, swf.domain))
    pairs = ordered_pairs(swf.m)
    for v in range(swf.n):
        if all(
            f.stance(v, a, b) is not PairStance.FIRST_PREFERRED
            or swf.stance(f, a, b) is PairStance.FIRST_PREFERRED
            for f in profiles
            for a, b in pairs
        ):
            return v
    return None


def _totality(swf: Swf) -> dict | None:
    """The a2 witness, or None when every domain profile has a valid verdict."""
    for f in enumerate_profiles(swf.m, swf.n, swf.domain):
        if isinstance(swf, ExplicitSwf):
            if f not in swf.verdicts:
                return {"profile": f, "error": "no verdict recorded"}
            continue
        try:
            verdict = swf.assemble(f)
        except LookupError as exc:
            return {"profile": f, "error": str(exc)}
        if isinstance(verdict, CompositionFailure):
            return {"profile": f, "axiom": verdict.validation.axiom, "witness": verdict.validation.witness}
    return None


def full_report(swf: Swf) -> AxiomReport:
    witnesses: dict[str, dict] = {}
    a1 = swf.m >= 3
    if not a1:
        witnesses["a1"] = {"m": swf.m}
    totality = _totality(swf)
    a2 = totality is None
    if not a2:
        witnesses["a2"] = totality
    try:
        una = check_unanimity(swf)
        a3 = una.ok
        if not a3:
            witnesses["a3"] = {"profile": una.profile, "pair": una.pair}
    except LookupError as exc:
        a3 = False
        witnesses["a3"] = {"error": f"not evaluable: {exc}"}
    try:
        ind = check_independence(swf)
        a4 = ind.ok
        if not a4:
            witnesses["a4"] = {"profile_a": ind.profile_a, "profile_b": ind.profile_b, "pair": ind.pair}
    except LookupError as exc:
        a4 = False
        witnesses["a4"] = {"error": f"not evaluable: {exc}"}
    try:
        dictator = find_dictator(swf)
        a5 = dictator is None
        if not a5:
            witnesses["a5"] = {"dictator": dictator}
    except LookupError as exc:
        dictator = None
        a5 = False
        witnesses["a5"] = {"error": f"not evaluable: {exc}"}
    return AxiomReport(a1, a2, a3, a4, a5, dictator, witnesses)


def decisive_family(swf: Swf) -> CoalitionFamily:
    """Every coalition whose unanimous strict preference the verdict always echoes.

    Each profile and pair (x, y), x < y, is read once: the stances on (y, x) are those on
    (x, y) flipped, so y is preferred there where x is on (x, y).  Coalitions are then tested
    against the distinct (supporters of the first alternative, verdict prefers it) outcomes.
    """
    outcomes: set[tuple[int, bool]] = set()
    for f in enumerate_profiles(swf.m, swf.n, swf.domain):
        for x, y in unordered_pairs(swf.m):
            stances, verdict = [f.stance(v, x, y) for v in range(swf.n)], swf.stance(f, x, y)
            for first in (PairStance.FIRST_PREFERRED, PairStance.FIRST_PREFERRED.flipped()):  # (x, y), then (y, x)
                outcomes.add((sum(1 << v for v, s in enumerate(stances) if s is first), verdict is first))
    members = [c for c in range(1 << swf.n) if all(wins for mask, wins in outcomes if c & ~mask == 0)]
    return CoalitionFamily(swf.n, frozenset(members))


def derive_rules(swf: ExplicitSwf) -> PairwiseRuleSwf:
    rules: dict[tuple[int, int], dict[TriPartition, PairStance]] = {pair: {} for pair in unordered_pairs(swf.m)}
    for f in enumerate_profiles(swf.m, swf.n, swf.domain):
        for pair in unordered_pairs(swf.m):
            t = pair_partition(f, *pair)
            s = swf.stance(f, *pair)
            prev = rules[pair].get(t)
            if prev is None:
                rules[pair][t] = s
            elif prev is not s:
                raise ValueError(
                    f"independence fails on pair {pair}: tri-partition code {t.code()} "
                    f"maps to both {prev.value} and {s.value}"
                )
    return PairwiseRuleSwf(swf.m, swf.n, swf.domain, rules)


def expand_to_explicit(swf: PairwiseRuleSwf) -> ExplicitSwf:
    verdicts = {}
    for f in enumerate_profiles(swf.m, swf.n, swf.domain):
        verdict = swf.assemble(f)
        if isinstance(verdict, CompositionFailure):
            raise ValueError(
                f"rules do not assemble on profile {_profile_texts(f)}: "
                f"{verdict.validation.axiom} violated at {verdict.validation.witness}"
            )
        verdicts[f] = verdict
    return ExplicitSwf(swf.m, swf.n, swf.domain, verdicts)


def swf_from_ultrafilter(u: CoalitionFamily, m: int, n: int, domain: Domain) -> ExplicitSwf:
    if u.n != n:
        raise ValueError(f"ultrafilter ground set n={u.n} does not match n={n}")
    if not is_ultrafilter_complement(u):
        raise ValueError("the family is not an ultrafilter (complement test failed)")
    verdicts: dict[Profile, WeakOrder] = {}
    for f in enumerate_profiles(m, n, domain):
        grid = [[False] * m for _ in range(m)]
        for x, y in ordered_pairs(m):
            mask = 0
            for v in range(n):
                if f.stance(v, x, y) is PairStance.FIRST_PREFERRED:
                    mask |= 1 << v
            grid[x][y] = mask in u.masks
        rel = BinaryRelation(tuple(tuple(row) for row in grid))
        res = validate_weak_order(rel)
        if not res.ok:
            raise RuntimeError(
                f"internal invariant violated: ultrafilter verdict failed {res.axiom} at {res.witness}"
            )
        verdicts[f] = to_canonical(rel)
    return ExplicitSwf(m, n, domain, verdicts)


def search_constraints(problem: SearchProblem) -> tuple[tuple[int, ...], ...]:
    """Per domain profile in enumeration order, and per triangle a<b<c in
    lexicographic order, the indices of the profile's cells on (a, b),
    (a, c) and (b, c)."""
    return tuple(
        tuple(
            problem.pairs.index(pair) * len(problem.splits) + problem.splits.index(pair_partition(f, *pair).code())
            for pair in ((a, b), (a, c), (b, c))
        )
        for f in enumerate_profiles(problem.m, problem.n, problem.domain)
        for a, b, c in combinations(range(problem.m), 3)
    )


def reference_gac(problem: SearchProblem, domains: list[int]) -> list[int] | None:
    """Generalized arc consistency by a queue of constraints, each revised against the 13
    stance triples directly: the stance masks at the fixpoint, or None on a wipeout.

    Every constraint starts queued; one whose cell loses a stance queues the other
    constraints on that cell again.
    """
    domains = list(domains)
    on_cell: list[list[int]] = [[] for _ in domains]
    for ci, cells in enumerate(problem.constraints):
        for cell in cells:
            on_cell[cell].append(ci)
    queue = deque(range(len(problem.constraints)))
    queued = set(queue)
    while queue:
        ci = queue.popleft()
        queued.discard(ci)
        cells = problem.constraints[ci]
        live = [t for t in _allowed_triples() if all(domains[c] >> s & 1 for c, s in zip(cells, t))]
        for j, cell in enumerate(cells):
            mask = sum(1 << s for s in {t[j] for t in live})
            if mask == domains[cell]:
                continue
            if not mask:
                return None
            domains[cell] = mask
            for cj in on_cell[cell]:
                if cj != ci and cj not in queued:
                    queue.append(cj)
                    queued.add(cj)
    return domains


def stepwise_search(problem: SearchProblem) -> tuple[list[tuple[int, int, int]], list[bytes], list[range]]:
    """The depth-first search one stance per node: cells in order, stances FIRST < SECOND < INDIFFERENT,
    `_propagate` from every constraint on the decided cell, whether or not that cell was bound.

    Returns the (leaves, pruned_events, pruned_total) held as each node is about to be tried, node k's
    at index k and the final counters last; the leaves, one stance byte per cell; and, for each
    decision followed by cells that propagation had bound, the node counts the descent over those
    bound cells passes through (first to last, in search order).
    """
    cells = len(problem.pairs) * len(problem.splits)
    watchers = problem.watchers
    domains = [7] * cells
    for cell, stance in problem.forced.items():
        domains[cell] = 1 << stance
    counters = [0, 0, 0]
    before: list[tuple[int, int, int]] = []
    leaves: list[bytes] = []
    runs: list[range] = []

    def visit(depth: int, decided: bool) -> None:
        if depth == cells:
            counters[0] += 1
            leaves.append(bytes(mask.bit_length() - 1 for mask in domains))
            return
        bound = 0
        while depth + bound < cells and domains[depth + bound] in (1, 2, 4):
            bound += 1
        if decided and bound:  # each bound cell takes its stance's index + 1 nodes
            down = sum(domains[c].bit_length() for c in range(depth, depth + bound))
            runs.append(range(len(before), len(before) + down + 1))
        for stance in range(3):
            before.append(tuple(counters))
            saved = list(domains)
            if domains[depth] >> stance & 1:
                domains[depth] = 1 << stance
                if _propagate(watchers, domains, [watchers[depth]], []):
                    visit(depth + 1, saved[depth] not in (1, 2, 4))
                    domains[:] = saved
                    continue
            counters[1] += 1
            counters[2] += 3 ** (cells - depth - 1)
            domains[:] = saved

    if _propagate(watchers, domains, [watchers[cell] for cell in problem.forced], []):
        visit(0, False)
    else:
        counters[1:] = [1, 3**cells]
    return [*before, tuple(counters)], leaves, runs


# ------------------------------------------------------------ sample rules


def _rules(m: int, n: int, domain: Domain, margin: Callable[[tuple[int, int], TriPartition], int]) -> PairwiseRuleSwf:
    """The rule whose stance on pair (x, y), x < y, at split t is the sign of margin((x, y), t)."""
    tris = enumerate_tripartitions(n, domain)
    rules = {pair: {t: _sign(margin(pair, t)) for t in tris} for pair in unordered_pairs(m)}
    return PairwiseRuleSwf(m, n, domain, rules)


def _sign(d: int) -> PairStance:
    return PairStance.FIRST_PREFERRED if d > 0 else PairStance.SECOND_PREFERRED if d < 0 else PairStance.INDIFFERENT


def dictator_rules(v: int, m: int, n: int, domain: Domain) -> PairwiseRuleSwf:
    """Copy voter v's stance on each pair."""
    return _rules(m, n, domain, lambda pair, t: (v in t.first) - (v in t.second))


def constant_rules(w: WeakOrder, n: int, domain: Domain) -> PairwiseRuleSwf:
    """Ignore the voters and answer from w."""
    return _rules(w.m, n, domain, lambda pair, t: w.rank(pair[1]) - w.rank(pair[0]))


def majority_rules(m: int, n: int, domain: Domain) -> PairwiseRuleSwf:
    """Strict pairwise majority; a tie gives indifference."""
    return _rules(m, n, domain, lambda pair, t: len(t.first) - len(t.second))


def _explicit(m: int, n: int, domain: Domain, verdict: Callable[[Profile], WeakOrder]) -> ExplicitSwf:
    return ExplicitSwf(m, n, domain, {f: verdict(f) for f in enumerate_profiles(m, n, domain)})


def dictator_explicit(v: int, m: int, n: int, domain: Domain) -> ExplicitSwf:
    """The verdict is voter v's order, ties included."""
    return _explicit(m, n, domain, lambda f: f.prefs[v])


def anti_dictator_explicit(v: int, m: int, n: int, domain: Domain) -> ExplicitSwf:
    """The verdict is voter v's order turned upside down."""
    return _explicit(m, n, domain, lambda f: WeakOrder(f.prefs[v].classes[::-1]))


def constant_explicit(w: WeakOrder, n: int, domain: Domain) -> ExplicitSwf:
    return _explicit(w.m, n, domain, lambda f: w)


def borda_explicit(m: int, n: int, domain: Domain) -> ExplicitSwf:
    """Each ballot scores an alternative by the alternatives it beats; equal totals tie in the verdict."""

    def verdict(f: Profile) -> WeakOrder:
        totals = [sum(w.rank(x) < w.rank(y) for w in f.prefs for y in range(m)) for x in range(m)]
        levels = sorted(set(totals), reverse=True)
        return WeakOrder(tuple(tuple(x for x in range(m) if totals[x] == level) for level in levels))

    return _explicit(m, n, domain, verdict)


# ------------------------------------------------------------ other helpers


def strict_relation(w: WeakOrder) -> BinaryRelation:
    """x P y exactly when w ranks x in an earlier class than y."""
    return BinaryRelation(tuple(tuple(w.rank(x) < w.rank(y) for y in range(w.m)) for x in range(w.m)))


def relation_from_pairs(m: int, pairs: list[tuple[int, int]]) -> BinaryRelation:
    return BinaryRelation(tuple(tuple((x, y) in pairs for y in range(m)) for x in range(m)))


def profile_to_json_dict(f: Profile, alts: AlternativeSet | None = None) -> dict:
    alts = alts or AlternativeSet(f.m)
    return {
        "m": f.m,
        "n": f.n,
        "labels": list(alts.all_labels()),
        "prefs": [format_weak_order(w, alts) for w in f.prefs],
    }


def principal(n: int, v: int) -> CoalitionFamily:
    """Every coalition holding voter v."""
    return CoalitionFamily(n, frozenset(c for c in range(1 << n) if c >> v & 1))


def family_to_code(fam: CoalitionFamily) -> int:
    """The family as one integer, bit c set for each member coalition c: the inverse of `family_from_code`."""
    return sum(1 << mask for mask in fam.masks)


def is_ultrafilter_maximal(fam: CoalitionFamily) -> bool:
    """No strictly finer proper filter exists.

    Any strictly finer filter holds some absent coalition, and with it the closure of the
    family and that coalition under intersection and superset, so it suffices to ask of each
    absent coalition whether that closure stays proper (misses the empty coalition).
    """
    check = is_filter(fam)
    if not check.ok:
        raise ValueError(f"precondition failed: not a filter ({check.axiom} violated)")
    coalitions = range(1 << fam.n)
    for extra in coalitions:
        if extra in fam.masks:
            continue
        closure, grown = set(), fam.masks | {extra}
        while not grown <= closure:
            closure |= grown
            grown = {a & b for a in closure for b in closure} | {c for c in coalitions for a in closure if c & a == a}
        if 0 not in closure:
            return False
    return True


def measurable_profile(rng: Random) -> EventuallyConstantProfile:
    """A seeded profile on three alternatives, drawn with the standard library: a tail order,
    then up to 6 voters up to SAMPLE_BOUND, ascending, each with an order."""
    orders = enumerate_weak_orders(3)
    tail = rng.choice(orders)
    voters = rng.sample(range(SAMPLE_BOUND + 1), rng.randint(0, 6))
    return EventuallyConstantProfile(tail, tuple((v, rng.choice(orders)) for v in sorted(voters)))
