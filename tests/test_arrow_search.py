"""The complete rule-space search and its propagation engine."""

import gc
import inspect
import json
import pickle
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest

import swf_oracle as oracle
from arrovian import arrow_search
from arrovian._util import canonical_json, sha256_hex
from arrovian.arrow_search import (
    DEFAULT_MAX_NODES,
    MAX_SEARCH_PROFILES,
    SearchIncompleteError,
    _allowed_triples,
    _propagate,
    _support_table,
    build_problem,
    search_arrovian,
)
from arrovian.cli import main
from arrovian.kernel import STANCE_CODE, STANCES, domain_kernel
from arrovian.profiles import (
    BudgetExceededError, Domain, TriPartition, enumerate_tripartitions, pair_partition, profile_from_texts,
)
from arrovian.relations import PairStance, enumerate_weak_orders, pair_stance
from arrovian.swf import PairwiseRuleSwf, full_report, parse_swf_json


def cell_for(p, f, pair):
    return p.pairs.index(pair) * len(p.splits) + p.splits.index(pair_partition(f, *pair).code())


def root_domains(p, assignment=()):
    """The stance masks after unanimity forcing, the given (cell, stance) pairs
    and generalized arc consistency from every cell; None on a wipeout."""
    domains = [7] * (len(p.pairs) * len(p.splits))
    for cell, stance in [*p.forced.items(), *assignment]:
        domains[cell] = 1 << stance
    return domains if _propagate(p.watchers, domains, list(p.watchers), []) else None


# --- problem construction ---------------------------------------------------


def test_problem_shapes():
    """One constraint per triangle and three-alternative profile."""
    p = build_problem(3, 2, Domain.LINEAR)
    assert p.pairs == [(0, 1), (0, 2), (1, 2)]
    assert p.splits == [0, 1, 3, 4]  # the tie-free splits
    assert len(p.watchers) == 12  # 3 pairs x 4 tie-free splits
    assert p.forced == {0: 0, 3: 1, 4: 0, 7: 1, 8: 0, 11: 1}
    assert len(p.constraints) == 36  # 6**2 profiles

    p = build_problem(3, 2, Domain.WEAK)
    assert p.splits == list(range(9))
    assert len(p.watchers) == 27  # 3 pairs x 9 splits
    assert len(p.forced) == 6
    assert len(p.constraints) == 169  # 13**2 profiles

    p = build_problem(3, 3, Domain.LINEAR)
    assert len(p.splits) == 8  # tie-free splits
    assert len(p.watchers) == 24  # 3 pairs x 8 splits
    assert len(p.forced) == 6

    p = build_problem(4, 2, Domain.LINEAR)
    assert len(p.pairs) == 6
    assert len(p.watchers) == 24  # 6 pairs x 4 tie-free splits
    assert len(p.forced) == 12
    assert len(p.constraints) == 4 * 36  # 4 triangles

    p = build_problem(5, 1, Domain.WEAK)
    assert len(p.watchers) == 30  # 10 pairs x 3 splits
    assert len(p.constraints) == 10 * 13  # 10 triangles


def test_problem_rejects_other_m():
    for m in (0, 1, 2, 6):
        with pytest.raises(ValueError, match=f"3 to 5 alternatives, got m={m}"):
            build_problem(m, 2, Domain.LINEAR)
    with pytest.raises(ValueError, match="at least one voter"):
        build_problem(3, 0, Domain.LINEAR)


def test_thirteen_allowed_stance_triples():
    allowed = _allowed_triples()
    assert len(set(allowed)) == len(allowed) == 13
    assert (0, 0, 0) in allowed  # A>B>C
    assert (2, 2, 2) in allowed  # A~B~C
    assert (0, 1, 0) not in allowed  # A>B, C>A, B>C is a cycle
    assert (0, 0, 1) in allowed  # A>B, A>C, C>B: the order A>C>B
    # read off the weak orders' pair stances directly
    assert allowed == tuple(
        sorted(
            tuple(STANCE_CODE[pair_stance(w, x, y)] for x, y in ((0, 1), (0, 2), (1, 2)))
            for w in enumerate_weak_orders(3)
        )
    )


def test_every_profile_constraint_touches_three_cells():
    """Triangle-major: each triangle a<b<c owns a run of constraints on
    its cells of (a, b), (a, c) and (b, c), one per three-alternative profile."""
    for m in (3, 4, 5):
        p = build_problem(m, 2, Domain.LINEAR)
        runs = [p.constraints[i : i + 36] for i in range(0, len(p.constraints), 36)]
        assert len(runs) == len(list(combinations(range(m), 3)))
        for (a, b, c), run in zip(combinations(range(m), 3), runs):
            for cons in run:
                assert [p.pairs[cell // len(p.splits)] for cell in cons] == [(a, b), (a, c), (b, c)]


@pytest.mark.parametrize(
    "n,domain",
    [(1, Domain.LINEAR), (2, Domain.LINEAR), (3, Domain.LINEAR), (1, Domain.WEAK), (2, Domain.WEAK), (3, Domain.WEAK)],
)
def test_constraints_match_the_profile_objects(n, domain):
    p = build_problem(3, n, domain)
    assert p.constraints == oracle.search_constraints(p)
    assert p.splits == [t.code() for t in enumerate_tripartitions(n, domain)]


@pytest.mark.parametrize("n,domain", [(2, Domain.LINEAR), (1, Domain.WEAK), (2, Domain.WEAK)])
def test_triangle_constraints_match_the_m4_profiles(n, domain):
    """Every m=4 profile projected onto each triangle gives exactly the
    constraints the search builds from the m=3 kernel."""
    p = build_problem(4, n, domain)
    assert set(p.constraints) == set(oracle.search_constraints(p))
    assert len(set(p.constraints)) == len(p.constraints)


def supported(doms):
    """Per cell, the stances of some allowed triple whose three stances all lie in the three domains."""
    live = [t for t in _allowed_triples() if all(doms[j] >> t[j] & 1 for j in range(3))]
    return tuple(sum(1 << s for s in {t[j] for t in live}) for j in range(3))


def test_support_table_matches_the_thirteen_triples():
    """The support table, in constraint order: entry d1 | d2 << 3 | d3 << 6 is s1 | s2 << 3 | s3 << 6,
    the stances each cell takes in the allowed triples that the three domains hold."""
    table = _support_table()
    assert len(table) == 512
    for doms in product(range(8), repeat=3):
        s1, s2, s3 = supported(doms)
        assert table[doms[0] | doms[1] << 3 | doms[2] << 6] == s1 | s2 << 3 | s3 << 6


def test_watchers_hold_the_constraints_themselves():
    """Each cell watches the very tuples of `constraints`, one entry per constraint on it, so the largest
    m=3 build, 46,656 linear n=6 constraints, retains under 8 MB once the kernel caches are warm.
    Building a (table, x, a, b) watcher tuple per constraint and cell retained about 15.5 MB."""
    p = build_problem(4, 2, Domain.WEAK)
    held = {id(cons) for cons in p.constraints}
    for x, (watching, later) in enumerate(zip(p.watchers, p.later)):
        assert all(id(cons) in held for cons in watching + later)
        assert sorted(watching) == sorted(cons for cons in p.constraints if x in cons)
        assert sorted(later) == sorted(cons for cons in p.constraints if x in cons[:2])
    build_problem(3, 6, Domain.LINEAR)  # warms the kernel caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        p = build_problem(3, 6, Domain.LINEAR)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(p.constraints) == 6**6
    assert retained < 8_000_000, f"the problem retains {retained} bytes"


# --- propagation --------------------------------------------------------------


def test_propagate_empty_assignment_only_unanimity_binds():
    p = build_problem(3, 2, Domain.LINEAR)
    domains = root_domains(p)
    for cell, mask in enumerate(domains):
        assert mask == (1 << p.forced[cell] if cell in p.forced else 7)


def test_propagate_forces_transitive_closure():
    """FIRST on (A,B) with unanimous (B,C) forces FIRST on (A,C)."""
    p = build_problem(3, 2, Domain.LINEAR)
    f = profile_from_texts(["A>B>C", "B>C>A"])
    domains = root_domains(p, [(cell_for(p, f, (0, 1)), STANCE_CODE[PairStance.FIRST_PREFERRED])])
    assert domains[cell_for(p, f, (0, 2))] == 1 << STANCE_CODE[PairStance.FIRST_PREFERRED]


def test_fully_forced_single_voter_problem():
    p = build_problem(3, 1, Domain.LINEAR)
    assert len(p.forced) == len(p.watchers) == 6
    assert all(mask in (1, 2, 4) for mask in root_domains(p))


@pytest.mark.parametrize("m,n,domain", [(3, 2, Domain.WEAK), (4, 1, Domain.WEAK), (3, 3, Domain.LINEAR)])
def test_propagation_reaches_the_reference_fixpoint(m, n, domain):
    """Seeded random partial assignments: propagating from the changed cells gives the
    domains, or the wipeout, of a constraint-queue GAC over every constraint, and undoing
    the trail restores the assignment.  A run of decisions in cell order, each revising
    only the constraints that reach a later cell, as the search does, gives them too."""
    p = build_problem(m, n, domain)
    rng = random.Random(f"{m}/{n}/{domain.value}")
    cells = len(p.watchers)
    root = root_domains(p)
    assert root == oracle.reference_gac(p, root)
    wipeouts = 0
    for _ in range(150):
        domains = list(root)
        changed = rng.sample([c for c in range(cells) if c not in p.forced], rng.randint(1, cells // 3))
        for cell in changed:
            domains[cell] = rng.randint(1, 7)
        expected = oracle.reference_gac(p, domains)
        got, trail = list(domains), []
        ok = _propagate(p.watchers, got, [p.watchers[c] for c in changed], trail)
        assert (got if ok else None) == expected
        wipeouts += not ok
        for cell, old in reversed(trail):
            got[cell] = old
        assert got == domains
    assert 0 < wipeouts < 150
    for _ in range(20):
        domains = list(root)
        for depth in range(cells):
            stance = rng.choice([s for s in range(3) if domains[depth] >> s & 1])
            trial = list(domains)
            trial[depth] = 1 << stance
            expected = oracle.reference_gac(p, trial)
            ok = _propagate(p.watchers, trial, [p.later[depth]], [])
            assert (trial if ok else None) == expected
            if not ok:
                break
            domains = trial


# --- the search -----------------------------------------------------------------


def test_single_linear_voter_leaves_the_identity():
    cert = search_arrovian(3, 1, Domain.LINEAR)
    assert len(cert.survivors) == 1
    assert cert.survivors[0].dictator == 0
    assert cert.explored_leaves + cert.pruned_total == cert.space


def test_single_weak_voter_survivors_are_tie_breaks():
    """Free cells are the all-tie splits; any coherent stance triple works.

    Each survivor echoes the voter and fills ties from a fixed weak
    order, so there are exactly 13 of them, and the voter dictates.
    """
    cert = search_arrovian(3, 1, Domain.WEAK)
    assert len(cert.survivors) == 13
    assert all(rec.dictator == 0 for rec in cert.survivors)


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)])
def test_linear_search_finds_exactly_the_dictatorships(m, n):
    cert = search_arrovian(m, n, Domain.LINEAR)
    assert cert.space == 3 ** (m * (m - 1) // 2 * 2**n)
    assert sorted(rec.dictator for rec in cert.survivors) == list(range(n))
    by_dictator = {rec.dictator: rec.swf for rec in cert.survivors}
    for v in range(n):
        assert by_dictator[v].rules == oracle.dictator_rules(v, m, n, Domain.LINEAR).rules
    assert cert.explored_leaves + cert.pruned_total == cert.space


@pytest.mark.parametrize("m,n,domain,survivors", [(4, 1, Domain.WEAK, 75), (5, 2, Domain.LINEAR, 2)])
def test_survivors_arrive_in_stance_order(m, n, domain, survivors):
    """The search reports survivors by ascending stance string without sorting them."""
    stances = [rec.stances for rec in search_arrovian(m, n, domain).survivors]
    assert len(stances) == survivors
    assert all(a < b for a, b in zip(stances, stances[1:]))


def test_weak_two_voters_all_survivors_dictatorial():
    cert = search_arrovian(3, 2, Domain.WEAK)
    assert all(rec.dictator is not None for rec in cert.survivors)
    # machine-checked census: 183 tie-breaking variants per dictator
    assert Counter(rec.dictator for rec in cert.survivors) == {0: 183, 1: 183}
    assert len(cert.survivors) == 366
    assert cert.explored_leaves + cert.pruned_total == cert.space


@pytest.mark.parametrize(
    "m,n,domain", [(3, 2, Domain.WEAK), (3, 3, Domain.LINEAR), (4, 1, Domain.WEAK), (5, 1, Domain.WEAK)]
)
def test_a_survivor_audits_from_its_leaf_as_from_dict_tables(m, n, domain):
    """Every survivor's rule reads its columns straight from the leaf bytes: they equal the
    columns read through per-pair dict tables at each profile, its decoded `rules` equal those
    dicts, and its report equals the report of the same dicts passed to the constructor."""
    k = domain_kernel(m, n, domain)
    width = len(k.splits)
    for rec in search_arrovian(m, n, domain).survivors:
        dicts = {pair: dict(zip(k.splits, rec.stances[q * width :])) for q, pair in enumerate(k.canonical)}
        rule = rec.swf
        by_dict = [bytes(dicts[pair][k.splits[j]] for j in tri) for pair, tri in zip(k.canonical, k.tri)]
        assert rule.stance_columns(k) == by_dict
        maps = {pair: {TriPartition.from_code(n, t): STANCES[s] for t, s in d.items()} for pair, d in dicts.items()}
        assert rule.rules == maps
        old = PairwiseRuleSwf(m, n, domain, maps)
        assert full_report(rule).to_json_dict() == full_report(old).to_json_dict()


def test_a_restarted_column_memo_gives_the_same_certificate(monkeypatch):
    """A memo budget of three columns of m=3 weak n=2 restarts the memo all through the audit:
    the certificate and its dictators are those of the default run, only more columns are computed."""
    default = search_arrovian(3, 2, Domain.WEAK)
    monkeypatch.setattr(arrow_search, "MEMO_BYTES", 4 * 169 * 3)
    small = search_arrovian(3, 2, Domain.WEAK)
    assert "".join(small.json_slices()) == "".join(default.json_slices())
    assert [rec.dictator for rec in small.survivors] == [rec.dictator for rec in default.survivors]
    assert default.distinct_columns == 162 < small.distinct_columns


def test_a_survivor_keeps_only_its_leaf():
    """A survivor holds the leaf bytes and its dictator, and its rule is
    built when asked for: a warm-cache certificate of the 366 m=3 weak
    n=2 survivors retains under 100 KB.  Keeping a per-pair dict table and a
    stance tuple for each survivor retained about 660 KB."""
    search_arrovian(3, 2, Domain.WEAK)  # warms the kernel caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = search_arrovian(3, 2, Domain.WEAK)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cert.survivors) == 366
    assert retained < 100_000, f"the certificate retains {retained} bytes"
    rec = cert.survivors[0]
    assert type(rec.stances) is bytes and not hasattr(rec, "__dict__")
    assert rec.swf is not rec.swf  # decoded on each access, never kept


def test_nothing_outlives_a_search():
    """The survivor audit's column memo lives for one search: once the kernel caches are warm,
    a search whose certificate is dropped retains nothing, and a second one no more than the first.
    The memo itself holds about 200 KB at its end; the slack covers the measurements' own ints."""
    search_arrovian(3, 2, Domain.WEAK)  # warms the kernel caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        retained = []
        for _ in range(2):
            cert = search_arrovian(3, 2, Domain.WEAK)
            assert cert.distinct_columns == 162
            del cert
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    assert retained[0] < 2_000 and retained[1] - retained[0] < 500, f"searches retain {retained} bytes"


def test_range_guards():
    """Besides the m range (test_problem_rejects_other_m), a size must fit
    the profile budget at the requested m and the search's own profile
    limit, both checked before anything is built."""
    with pytest.raises(BudgetExceededError, match=r"40 voters: 2\*\*40 coalitions, over the budget of 10000000"):
        search_arrovian(3, 40, Domain.LINEAR)
    # 120**4 linear profiles at m=5, though the m=3 kernel would hold 6**4
    with pytest.raises(BudgetExceededError, match="domain holds 207360000 profiles"):
        search_arrovian(5, 4, Domain.LINEAR)
    # within the profile budget, but over the search limit: one voter more
    # than the largest size admitted at each m and domain
    assert MAX_SEARCH_PROFILES == 100_000
    for m, n, domain, size in [
        (3, 7, Domain.LINEAR, 6**7),
        (3, 5, Domain.WEAK, 13**5),
        (4, 4, Domain.LINEAR, 24**4),
        (4, 3, Domain.WEAK, 75**3),
        (5, 3, Domain.LINEAR, 120**3),
        (5, 2, Domain.WEAK, 541**2),
    ]:
        with pytest.raises(BudgetExceededError, match=f"domain holds {size} profiles, over the search limit of 100000"):
            build_problem(m, n, domain)
    assert len(build_problem(3, 6, Domain.LINEAR).constraints) == 6**6
    assert len(build_problem(3, 4, Domain.WEAK).constraints) == 13**4


def test_search_depth_is_not_bound_by_the_recursion_limit():
    """The backtracking keeps its own stack: 192 cells run with about 100
    free frames, where one frame per cell would raise RecursionError."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        cert = search_arrovian(3, 6, Domain.LINEAR)
    finally:
        sys.setrecursionlimit(limit)
    assert cert.cell_count == 192
    assert sorted(rec.dictator for rec in cert.survivors) == list(range(6))
    assert cert.explored_leaves + cert.pruned_total == cert.space


def test_node_budget():
    assert DEFAULT_MAX_NODES == 1_000_000
    assert inspect.signature(search_arrovian).parameters["max_nodes"].default == DEFAULT_MAX_NODES
    with pytest.raises(SearchIncompleteError, match="budget"):
        search_arrovian(3, 2, Domain.LINEAR, max_nodes=5)
    # weak n=3 is not refused by size; it runs until a budget stops it
    with pytest.raises(SearchIncompleteError, match="node budget 2000 exhausted"):
        search_arrovian(3, 3, Domain.WEAK, max_nodes=2000)


@pytest.mark.parametrize("budget", [0, -5])
def test_node_budget_below_one_is_refused_up_front(budget):
    message = f"max_nodes must be at least 1, got {budget}"
    with pytest.raises(ValueError, match=message):
        search_arrovian(3, 2, Domain.LINEAR, max_nodes=budget)
    # before the size checks, which would refuse this domain
    with pytest.raises(ValueError, match=message):
        search_arrovian(3, 40, Domain.WEAK, max_nodes=budget)


def test_progress_callback_sees_counters():
    """A report every 100,000 nodes: exactly one before the budget stops the search."""
    seen = []
    with pytest.raises(SearchIncompleteError) as stop:
        search_arrovian(3, 3, Domain.WEAK, max_nodes=100_000, progress=seen.append)
    assert len(seen) == 1
    assert seen[0]["nodes"] == 100_000
    # the budget stop carries the counters it reached, in the same shape
    assert stop.value.counters.keys() == seen[0].keys()
    assert stop.value.counters["nodes"] == 100_000
    copy = pickle.loads(pickle.dumps(stop.value))  # as a process pool would carry it back
    assert (str(copy), copy.counters) == (str(stop.value), stop.value.counters)


def test_progress_reports_the_stepwise_counters():
    """Reports land on the multiples of 100,000 with the counters held before that node's outcome.

    Node 300,000 falls inside a run of bound cells that ends before the budget of 399,999."""
    base = 11263627491834348800000000000000000
    reports = [
        dict(leaves=20536, pruned_events=46097, pruned_total=base + 74983223643841569, nodes=100_000),
        dict(leaves=21748, pruned_events=111556, pruned_total=base + 84225541680543102, nodes=200_000),
        dict(leaves=22960, pruned_events=177012, pruned_total=base + 93475297286652294, nodes=300_000),
    ]
    stops = {
        300_001: dict(reports[-1], nodes=300_001),
        399_999: dict(leaves=24172, pruned_events=242461, pruned_total=base + 102717521567595489, nodes=399_999),
    }
    for budget, counters in stops.items():
        seen = []
        with pytest.raises(SearchIncompleteError) as stop:
            search_arrovian(3, 3, Domain.WEAK, max_nodes=budget, progress=seen.append)
        assert (seen, stop.value.counters) == (reports, counters)


@pytest.mark.parametrize("m, n", [(3, 2), (4, 1), (5, 1)])
def test_budget_stops_match_the_stepwise_search(m, n):
    """Runs of bound cells are counted whole, yet every budget stops on the counters of the search
    that tries one stance per node: at budgets spread over the whole search and at every budget
    inside its first three descents over bound cells."""
    before, leaves, runs = oracle.stepwise_search(build_problem(m, n, Domain.WEAK))
    total = len(before) - 1
    cert = search_arrovian(m, n, Domain.WEAK)
    final = (cert.explored_leaves, cert.pruned_events, cert.pruned_total)
    assert (cert.nodes, final) == (total, before[-1])
    assert [rec.stances for rec in cert.survivors] == leaves
    budgets = {*range(1, total, total // 200), *(b for run in runs[:3] for b in run if b), total - 1}
    for budget in sorted(budgets):
        with pytest.raises(SearchIncompleteError) as stop:
            search_arrovian(m, n, Domain.WEAK, max_nodes=budget)
        held = dict(zip(("leaves", "pruned_events", "pruned_total"), before[budget]), nodes=budget)
        assert stop.value.counters == held, budget
    assert search_arrovian(m, n, Domain.WEAK, max_nodes=total).nodes == total


# --- certificates ------------------------------------------------------------------


def test_certificate_is_byte_deterministic():
    a = "".join(search_arrovian(3, 2, Domain.LINEAR).json_slices())
    b = "".join(search_arrovian(3, 2, Domain.LINEAR).json_slices())
    assert a == b


def test_certificate_contents():
    cert = search_arrovian(3, 2, Domain.LINEAR)
    doc = cert.to_json_dict()
    assert doc["schema"] == "arrovian/certificate/v1"
    assert doc["parameters"] == {"m": 3, "n": 2, "domain": "linear"}
    assert doc["survivor_count"] == 2
    assert doc["explored_leaves"] + doc["pruned_total"] == doc["space"]
    # embedded survivors parse back into working rule tables
    swf, _ = parse_swf_json(doc["survivors"][0]["rules"])
    assert swf.rules == cert.survivors[0].swf.rules
    json.loads("".join(cert.json_slices()))  # well-formed


# (m, n, domain): (nodes, leaves, pruned events) of the search
RENDERED = {
    (3, 2, "linear"): (66, 2, 43),
    (3, 3, "linear"): (201, 3, 132),
    (3, 4, "linear"): (546, 4, 361),
    (3, 6, "linear"): (3348, 6, 2227),
    (3, 1, "weak"): (117, 13, 66),
    (3, 2, "weak"): (9444, 366, 5931),
    (4, 1, "weak"): (1242, 75, 754),
    (4, 3, "linear"): (417, 3, 276),
    (5, 1, "weak"): (13446, 541, 8424),
    (5, 2, "linear"): (234, 2, 155),
}


@pytest.mark.parametrize("m, n, domain", RENDERED)
def test_certificate_text_is_the_rendered_dict(m, n, domain):
    """The fragment renderer writes exactly the canonical JSON of the data view, in slices of which
    each but the last holds at least one survivor."""
    cert = search_arrovian(m, n, Domain.from_name(domain))
    assert (cert.nodes, cert.explored_leaves, cert.pruned_events) == RENDERED[m, n, domain]
    slices = list(cert.json_slices())
    text = "".join(slices)
    assert text.splitlines(True) == canonical_json(cert.to_json_dict()).splitlines(True)  # a line diff
    held = [piece.count('"dictator": ') for piece in slices]  # the first key of each survivor
    assert sum(held) == len(cert.survivors)
    assert 0 not in held[:-1]


def test_certificate_text_without_survivors():
    cert = search_arrovian(3, 1, Domain.LINEAR)
    cert.survivors = []
    assert "".join(cert.json_slices()).splitlines(True) == canonical_json(cert.to_json_dict()).splitlines(True)
    assert json.loads("".join(cert.json_slices()))["survivors"] == []


# sha256 of (certificate, stdout) per arrow-search command, run from the
# certificate's directory; the same digests as perfbench/pins.json.
PINNED = {
    "--voters 2 --domain linear --certificate cert-linear-2.json": (
        "0817bcc62d1d45835d4fc17beb1f6339d22f149c85f1c03d530c6d0a4687f18f",
        "115968bf487d47cac73fbeb61186c50a0f342557e268fe6c3d632bff9def4dde",
    ),
    "--voters 3 --domain linear --allow-long --certificate cert-linear-3.json": (
        "bd94d849d371c248004be7f91c9e3ec3928963bf792783501368661feb636100",
        "6748f95173da9f8dc496a88ea1d0d9f3b5cf50461a07b13ba8476d15aae23ff5",
    ),
    "--voters 2 --domain weak --certificate cert-weak-2.json": (
        "9da50675d21a9c0b1c0bbf5e8b40af9cab73894073d0947a2885f6d2fef709a7",
        "3be9b3b92febff8bb3970c8bfcbae5e9b500e645fd3bc2cb88c751792127a8e3",
    ),
}


@pytest.mark.parametrize("args", PINNED)
def test_search_output_bytes_are_pinned(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = args.split()
    assert main(["arrow-search", *argv]) == 0
    certificate, stdout = PINNED[args]
    assert sha256_hex(capsys.readouterr().out) == stdout
    assert sha256_hex((tmp_path / argv[-1]).read_bytes()) == certificate


# certificate sha256 per arrow-search command, beyond m=3
PINNED_CERTIFICATES = {
    "--alternatives 4 --voters 1 --domain weak": "a8c7fa5aa8601d549bfbe5936c7737585abbb8087b7473c9e78ba073bfd894ab",
    "--alternatives 5 --voters 1 --domain weak": "944c61156807a00a0b7193d6800986a9d2362d38bf79cbc9e2286e9649150cbc",
    "--alternatives 4 --voters 3 --domain linear": "523779c943c3f40ad31e0f43f4f2b8d1dac1c650d513135e214328219fbd19ef",
}


@pytest.mark.parametrize("args", PINNED_CERTIFICATES)
def test_larger_certificates_are_pinned(args, tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["arrow-search", *args.split(), "--certificate", str(path)]) == 0
    capsys.readouterr()
    assert sha256_hex(path.read_bytes()) == PINNED_CERTIFICATES[args]
