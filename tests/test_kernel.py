"""The integer-coded domain kernel against the object-level oracle.

`swf_oracle` walks Profile objects the way the axioms read; the package
answers the same questions as lookups over `arrovian.kernel`.  Reports
(witnesses included), decisive families, derived rules, expanded verdict
tables and ultrafilter tables must agree on every search survivor, every
sample rule, partial rules and random tables.
"""

import random
import tracemalloc
from array import array
from functools import lru_cache, reduce
from itertools import product
from operator import and_
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swf_oracle as oracle
from arrovian.arrow_search import search_arrovian
from arrovian.kernel import (
    ABSENT, FIRST, MISSING, SECOND, STANCES, compose, compose_rows, domain_kernel, first_absent, split_columns,
    verdict_codes, verdict_keys,
)
from arrovian import ks_bridge
from arrovian.filters import CoalitionFamily
from arrovian.ks_bridge import extract_decisive_family, swf_from_ultrafilter
from arrovian.profiles import (
    Domain,
    TriPartition,
    enumerate_profiles,
    enumerate_tripartitions,
    pair_partition,
    split_position,
)
from arrovian.relations import (
    BinaryRelation,
    PairStance,
    WeakOrder,
    enumerate_weak_orders,
    to_canonical,
    unordered_pairs,
    validate_weak_order,
)
from arrovian.swf import (
    ExplicitSwf,
    PairwiseRuleSwf,
    audit_columns,
    check_independence,
    derive_rules,
    expand_to_explicit,
    full_report,
)

SIZES = [(3, 2, Domain.LINEAR), (3, 3, Domain.WEAK), (4, 2, Domain.WEAK)]
# Below three alternatives: m=1 has no pairs at all, m=2 a single one.
SMALL = [(1, 2, Domain.WEAK), (2, 2, Domain.WEAK)]
KINDS = [
    "dictator explicit",
    "anti-dictator explicit",
    "constant explicit",
    "borda explicit",
    "dictator pairwise",
    "anti-dictator pairwise",
    "constant pairwise",
    "majority pairwise",
]


def outcome(fn, *args):
    """A call's value, or the type and text of what it raised."""
    try:
        return "value", fn(*args)
    except (LookupError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_audit(swf):
    report, expected = full_report(swf), oracle.full_report(swf)
    assert report.witnesses == expected.witnesses
    assert report.to_json_dict() == expected.to_json_dict()
    family = outcome(oracle.decisive_family, swf)
    if family[0] == "value":  # an undefined verdict fails a2, so the package's audit refuses it before any scan
        _, k, facts = audit_columns(swf)
        assert ks_bridge._decisive_family(swf, k, facts).family == family[1]
    if isinstance(swf, ExplicitSwf):
        rules = outcome(lambda s: derive_rules(s).rules, swf)
        assert rules == outcome(lambda s: oracle.derive_rules(s).rules, swf)
    else:
        table = outcome(lambda s: expand_to_explicit(s).verdicts, swf)
        assert table == outcome(lambda s: oracle.expand_to_explicit(s).verdicts, swf)


@lru_cache(maxsize=None)
def builtin(kind: str, m: int, n: int, domain: Domain):
    tied = WeakOrder(((1,), tuple(x for x in range(m) if x != 1))) if m > 1 else WeakOrder(((0,),))
    if kind == "dictator explicit":
        return oracle.dictator_explicit(n - 1, m, n, domain)
    if kind == "anti-dictator explicit":
        return oracle.anti_dictator_explicit(0, m, n, domain)
    if kind == "constant explicit":
        return oracle.constant_explicit(tied, n, domain)
    if kind == "borda explicit":
        return oracle.borda_explicit(m, n, domain)
    if kind == "dictator pairwise":
        return oracle.dictator_rules(0, m, n, domain)
    if kind == "anti-dictator pairwise":
        return oracle.derive_rules(builtin("anti-dictator explicit", m, n, domain))
    if kind == "constant pairwise":
        return oracle.constant_rules(tied, n, domain)
    return oracle.majority_rules(m, n, domain)


# --- the kernel's tables ---------------------------------------------------------


@pytest.mark.parametrize("m,n,domain", [(3, 2, Domain.LINEAR), (3, 3, Domain.WEAK), (2, 3, Domain.LINEAR), (1, 2, Domain.WEAK)])
def test_tables_match_the_profile_objects(m, n, domain):
    k = domain_kernel(m, n, domain)
    profiles = list(enumerate_profiles(m, n, domain))
    assert k.size == len(profiles)
    for i, f in enumerate(profiles):
        assert k.profile(i) == f
        assert k.profile_index(f) == i
        for pair, tri in zip(k.canonical, k.tri):
            assert k.splits[tri[i]] == pair_partition(f, *pair).code()
        for (x, y), strict in zip(k.pairs, k.strict_support):
            flags = [int(f.stance(v, x, y) is PairStance.FIRST_PREFERRED) for v in range(n)]
            assert [b >> 8 * i & 0xFF for b in strict] == flags
    for (x, y), strict in zip(k.pairs, k.strict_support):
        everyone = [i for i, f in enumerate(profiles)
                    if all(f.stance(v, x, y) is PairStance.FIRST_PREFERRED for v in range(n))]
        both = reduce(and_, strict, int.from_bytes(b"\1" * k.size, "little"))
        assert [i for i in range(k.size) if both >> 8 * i & 1] == everyone


@pytest.mark.parametrize(
    "m,n,domain,splits",
    [(3, 2, Domain.WEAK, 9), (4, 2, Domain.LINEAR, 4), (2, 5, Domain.WEAK, 243), (2, 6, Domain.WEAK, 729)],
)
def test_split_columns_read_random_partial_tables(m, n, domain, splits):
    """A rule's tables, laid out over the splits, read at every profile by both gathers (by
    translation up to 256 splits, by indexing above) as a dict map does, MISSING where none,
    also on a pair left out of the rule, whose layout is b""."""
    k = domain_kernel(m, n, domain)
    assert len(k.splits) == splits
    assert all((type(tri) is bytes) == (splits <= 256) for tri in k.tri)
    rng = random.Random(splits)
    for _ in range(20):
        tables = [  # None leaves the pair out
            {t: rng.randrange(3) for t in rng.sample(k.splits, rng.randint(0, splits))} if rng.random() < 0.8 else None
            for _ in k.canonical
        ]
        rules = {
            pair: {TriPartition.from_code(n, t): STANCES[s] for t, s in table.items()}
            for pair, table in zip(k.canonical, tables)
            if table is not None
        }
        swf = PairwiseRuleSwf(m, n, domain, rules)
        assert [lut == b"" for lut in swf.layout] == [table is None for table in tables]
        cols = swf.stance_columns(k)
        assert all(type(col) is bytes for col in cols)
        fill = dict.fromkeys(k.splits, MISSING)
        codes = [[k.splits[j] for j in tri] for tri in k.tri]
        assert [tuple(c) for c in cols] == [
            tuple(map({**fill, **(table or {})}.get, t)) for t, table in zip(codes, tables)
        ]


@pytest.mark.parametrize(
    "m,n,domain,typecode",
    [(3, 2, Domain.WEAK, None), (2, 6, Domain.WEAK, "H"), (2, 17, Domain.LINEAR, "I")],
)
def test_split_positions_at_each_width(m, n, domain, typecode):
    """A profile's split is its position among the ascending tri-partition codes: one byte
    each up to 256 splits, an 'H' array up to 65,536 and an 'I' array above."""
    k = domain_kernel(m, n, domain)
    assert k.splits == tuple(t.code() for t in enumerate_tripartitions(n, domain))
    for tri in k.tri:
        assert len(tri) == k.size
        assert (type(tri) is bytes) if typecode is None else (tri.typecode == typecode)
    rng = random.Random(n)
    for i in [0, k.size - 1] + rng.sample(range(k.size), 50):
        f = k.profile(i)
        for pair, tri in zip(k.canonical, k.tri):
            assert k.splits[tri[i]] == pair_partition(f, *pair).code()
            assert tri[i] == split_position(pair_partition(f, *pair), domain)


def test_kernel_build_stays_small():
    """The m=3 n=8 linear kernel (1,679,616 profiles, three pairs) is built as byte lanes,
    one byte per profile and pair, with no Python int per profile."""
    tracemalloc.start()
    try:
        domain_kernel.__wrapped__(3, 8, Domain.LINEAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


def _relation(m, codes):
    """The relation of stance codes on the canonical pairs, built here apart from `compose`."""
    grid = [[False] * m for _ in range(m)]
    for (x, y), s in zip(unordered_pairs(m), codes):
        if s == FIRST:
            grid[x][y] = True
        elif s == SECOND:
            grid[y][x] = True
    return BinaryRelation(tuple(tuple(row) for row in grid))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_verdict_keys_hold_exactly_the_rows_that_compose(m):
    """Every row of codes (at m=5 every row without MISSING) is in `verdict_keys` exactly when its codes
    compose and pass `validate_weak_order`, and then at the index of the order they compose to.
    `first_absent`, reading one triangle of alternatives at a time, flags exactly the other rows."""
    keys, orders = verdict_keys(m), enumerate_weak_orders(m)
    one = SimpleNamespace(m=m, size=1)  # a one-profile stand-in: each code is its own lane
    assert sorted(keys.values()) == list(range(len(orders)))
    for codes in product(range(4 if m < 5 else 3), repeat=m * (m - 1) // 2):
        absent = first_absent(one, codes) == 0
        if MISSING in codes:
            assert codes not in keys and absent
            continue
        rel, res, order = compose.__wrapped__(m, codes)  # the cache would keep 59,049 rows at m=5
        assert rel == _relation(m, codes) and res == validate_weak_order(rel)
        assert (codes in keys) == res.ok == (not absent)
        if res.ok:
            assert orders[keys[codes]] == order == to_canonical(rel)


@pytest.mark.parametrize("m,n", [(m, n) for m in (2, 3, 4, 5) for n in (1, 2)])
def test_first_absent_is_the_first_absent_verdict(m, n):
    """On seeded random partial columns, a dictator's with some split codes and some profile codes changed,
    `first_absent` is the first ABSENT of `compose_rows`, or None where every row composes."""
    k = domain_kernel(m, n, Domain.WEAK)
    rng = random.Random(10 * m + n)
    seen = set()
    for _ in range(8):
        v, p = rng.randrange(n), rng.choice([0, 0.02, 0.2])
        luts = [
            bytes(rng.randrange(4) if rng.random() < p else j // 3**v % 3 for j in range(len(k.splits)))
            for _ in k.canonical
        ]
        cols = [bytearray(col) for col in split_columns(k, luts)]
        for _ in range(rng.randrange(3)):
            cols[rng.randrange(len(cols))][rng.randrange(k.size)] = rng.randrange(4)
        row = compose_rows(k, [bytes(col) for col in cols])
        expected = row.index(ABSENT) if ABSENT in row else None
        assert first_absent(k, [int.from_bytes(col, "little") for col in cols]) == expected
        seen.add(expected is None)
    assert seen == {True, False}


def test_profiles_outside_the_domain_have_no_index():
    k = domain_kernel(3, 2, Domain.LINEAR)
    weak = list(enumerate_profiles(3, 2, Domain.WEAK))
    assert sum(k.profile_index(f) is None for f in weak) == 169 - 36
    assert k.profile_index(next(iter(enumerate_profiles(3, 3, Domain.LINEAR)))) is None


def test_compose_accepts_exactly_the_weak_orders():
    orders = set()
    for codes in product(range(3), repeat=3):
        rel, res, order = compose(3, codes)
        assert rel == _relation(3, codes)
        assert (order is not None) == res.ok
        if order is not None:
            orders.add(order)
    assert orders == set(enumerate_weak_orders(3))


# --- agreement with the oracle ----------------------------------------------------


@pytest.fixture(scope="module")
def weak_survivors():
    return search_arrovian(3, 2, Domain.WEAK).survivors


def test_every_weak_survivor_audits_as_the_oracle_does(weak_survivors):
    assert len(weak_survivors) == 366
    for rec in weak_survivors:
        expected = oracle.full_report(rec.swf)
        assert full_report(rec.swf).to_json_dict() == expected.to_json_dict()
        assert rec.dictator == expected.dictator is not None
        assert extract_decisive_family(rec.swf).family == oracle.decisive_family(rec.swf)


def test_every_m4_single_weak_voter_survivor_audits_as_the_oracle_does():
    survivors = search_arrovian(4, 1, Domain.WEAK).survivors
    assert len(survivors) == 75
    for rec in survivors:
        expected = oracle.full_report(rec.swf)
        assert full_report(rec.swf).to_json_dict() == expected.to_json_dict()
        assert rec.dictator == expected.dictator == 0


def memo_tables() -> list[dict]:
    """Pair tables of m=3, n=2 linear rules: a constant table puts the same column bytes on every
    pair, and the partial tables leave a cell undefined at different splits (MISSING at different places)."""
    tris = enumerate_tripartitions(2, Domain.LINEAR)
    constant = [dict.fromkeys(tris, s) for s in STANCES]
    dictators = [{t: STANCES[t.code() // 3**v % 3] for t in tris} for v in (0, 1)]
    gaps = tris[1:3]
    partial = [{t: s for t, s in table.items() if t != gap} for table in (dictators[0], constant[0]) for gap in gaps]
    return constant + dictators + partial


def test_a_shared_column_memo_audits_as_a_fresh_audit_and_the_oracle_do():
    """Rules audited through one memo, in which one column's bytes sit on different pairs, report
    exactly what a fresh audit and the oracle report, witnesses included; so does each rule's
    explicit table where it has one.  A memo keyed by the column alone, not by (pair, column),
    hands one pair the facts of another and fails here."""
    memo: dict = {}
    tables = memo_tables()
    for triple in product(tables, repeat=3):
        rule = PairwiseRuleSwf(3, 2, Domain.LINEAR, dict(zip(unordered_pairs(3), triple)))
        explicit = outcome(expand_to_explicit, rule)
        for swf in [rule] + ([explicit[1]] if explicit[0] == "value" else []):
            report = full_report(swf, memo)
            assert report.witnesses == full_report(swf).witnesses
            assert report.to_json_dict() == oracle.full_report(swf).to_json_dict()
    # each pair met each table's column once, and the constant ones on every pair
    assert len(memo) == 3 * len(tables)
    assert len({col for _, col in memo}) == 3 * len(tables) - 2 * 3


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m,n,domain", SIZES + SMALL, ids=lambda v: getattr(v, "value", v))
def test_builtin_swfs_audit_as_the_oracle_does(kind, m, n, domain):
    assert_same_audit(builtin(kind, m, n, domain))


@pytest.mark.parametrize("drop", [0, 1, 7, 20, 35])
def test_partial_verdict_table(drop):
    complete = oracle.dictator_explicit(1, 3, 2, Domain.LINEAR)
    verdicts = dict(complete.verdicts)
    del verdicts[list(enumerate_profiles(3, 2, Domain.LINEAR))[drop]]
    assert_same_audit(ExplicitSwf(3, 2, Domain.LINEAR, verdicts))


def test_verdict_table_with_foreign_profiles_and_a_dependent_rule():
    swf = oracle.borda_explicit(3, 2, Domain.WEAK)
    verdicts = {f: w for f, w in swf.verdicts.items() if f.prefs[0].classes != ((0, 1, 2),)}
    verdicts.update(oracle.dictator_explicit(0, 3, 3, Domain.LINEAR).verdicts)
    assert_same_audit(ExplicitSwf(3, 2, Domain.WEAK, verdicts))


@pytest.mark.parametrize(
    "pair,code",
    [((0, 1), 0), ((0, 2), 4), ((1, 2), 8), ((1, 2), 5), ((0, 1), None)],
)
def test_partial_rule_table(pair, code):
    swf = oracle.dictator_rules(1, 3, 2, Domain.WEAK)
    rules = {p: dict(table) for p, table in swf.rules.items()}
    if code is None:
        del rules[pair]
    else:
        del rules[pair][TriPartition.from_code(2, code)]
    assert_same_audit(PairwiseRuleSwf(3, 2, Domain.WEAK, rules))


@pytest.mark.parametrize(
    "m,n,domain",
    [(3, 2, Domain.LINEAR), (3, 2, Domain.WEAK), (2, 3, Domain.WEAK), (4, 1, Domain.WEAK), (5, 1, Domain.WEAK)],
    ids=lambda v: getattr(v, "value", v),
)
def test_random_tables_audit_as_the_oracle_does(m, n, domain):
    """Random verdict and rule tables, so arbitrary overruled patterns are compared.

    A table may lean on one voter: each verdict (rule cell) is that voter's
    order (stance) but now and then, or with no such voter always, any
    order (stance) at all.  A few verdicts (cells) are then left out.  Rows of
    4 and 5 alternatives fail with 2-byte and 4-byte keys; an m=5 oracle audit takes
    about 0.2 s, so fewer examples are drawn there.
    """

    @settings(max_examples=12 if m == 5 else 60, deadline=None)
    @given(data=st.data())
    def audit(data):
        lean = data.draw(st.none() | st.integers(0, n - 1), label="lean")

        def pick(own, anything):
            if lean is None or data.draw(st.integers(0, 7)) == 0:
                return data.draw(st.sampled_from(anything))
            return own()

        def absent(size):
            return data.draw(st.lists(st.integers(0, size - 1), max_size=2), label="absent")

        if data.draw(st.booleans(), label="explicit"):
            profiles, orders = list(enumerate_profiles(m, n, domain)), enumerate_weak_orders(m)
            verdicts = {f: pick(lambda: f.prefs[lean], orders) for f in profiles}
            for i in absent(len(profiles)):
                verdicts.pop(profiles[i], None)
            swf = ExplicitSwf(m, n, domain, verdicts)
        else:
            cells = [(pair, t) for pair in unordered_pairs(m) for t in enumerate_tripartitions(n, domain)]
            rules = {pair: {} for pair in unordered_pairs(m)}
            for pair, t in cells:
                rules[pair][t] = pick(lambda: STANCES[t.code() // 3**lean % 3], STANCES)
            for c in absent(len(cells)):
                rules[cells[c][0]].pop(cells[c][1], None)
            swf = PairwiseRuleSwf(m, n, domain, rules)
        assert_same_audit(swf)

    audit()


@pytest.mark.parametrize("m,n", [(2, 6), (4, 1), (5, 1)])
def test_explicit_tables_at_every_gather_width_audit_as_the_oracle_does(m, n):
    """Weak-domain explicit tables at sizes the random tables above never reach: 729 splits at m=2
    n=6 (split positions in an 'H' array), 75 verdicts at m=4 (the low-byte gather) and 541 at m=5
    (the indexed gather).  A seeded pick of independent built-in tables is audited as it is, with
    one ABSENT verdict, and with the stance on one pair changed at the first, middle or last profile
    of one of its splits (at m=2 each split holds one profile, so that change breaks nothing)."""
    k, verdicts = domain_kernel(m, n, Domain.WEAK), len(enumerate_weak_orders(m))
    rng = random.Random(10 * m + n)
    for q, tri in enumerate(k.tri):
        assert k.first_seen[q] == tuple(tri.index(j) for j in range(len(k.splits)))
    for change in (None, "absent", "first", "middle", "last"):
        row = array("h", builtin(rng.choice(KINDS[:3]), m, n, Domain.WEAK).row)
        if change == "absent":
            row[rng.randrange(k.size)] = ABSENT
        elif change is not None:
            q = rng.randrange(len(k.canonical))
            split = k.tri[q][rng.randrange(k.size)]
            members = [i for i, j in enumerate(k.tri[q]) if j == split]
            i = members[{"first": 0, "middle": len(members) // 2, "last": -1}[change]]
            codes = verdict_codes(m)[q]
            row[i] = rng.choice([w for w in range(verdicts) if codes[w] != codes[row[i]]])
        swf = ExplicitSwf.from_row(m, n, Domain.WEAK, row)
        assert swf.stance_columns(k) == [bytes(codes[j] for j in row) for codes in verdict_codes(m)]
        assert outcome(check_independence, swf) == outcome(oracle.check_independence, swf)
        assert_same_audit(swf)


def test_some_builtin_rules_do_not_assemble():
    """The expansion comparisons above include the refusal path."""
    kinds = [(kind, size) for kind in KINDS if kind.endswith("pairwise") for size in SIZES]
    failures = [outcome(expand_to_explicit, builtin(kind, *size))[0] for kind, size in kinds]
    assert failures.count("ValueError") >= 1 and failures.count("value") >= 1


@pytest.mark.parametrize("m,n,domain", SIZES + SMALL, ids=lambda v: getattr(v, "value", v))
def test_principal_ultrafilters_build_the_oracle_tables(m, n, domain):
    for v in range(n):
        u = CoalitionFamily(n, frozenset(c for c in range(1 << n) if c >> v & 1))
        built = swf_from_ultrafilter(u, m, n, domain)
        assert built.verdicts == oracle.swf_from_ultrafilter(u, m, n, domain).verdicts
        assert built.verdicts == oracle.dictator_explicit(v, m, n, domain).verdicts


@pytest.mark.parametrize(
    "u,n",
    [(CoalitionFamily(2, frozenset({0b11})), 2), (CoalitionFamily(3, frozenset({0b001})), 2)],
    ids=["not an ultrafilter", "ground set mismatch"],
)
def test_ultrafilter_input_errors_match_the_oracle(u, n):
    got = outcome(swf_from_ultrafilter, u, 3, n, Domain.WEAK)
    assert got[0] == "ValueError"
    assert got == outcome(oracle.swf_from_ultrafilter, u, 3, n, Domain.WEAK)


@pytest.mark.parametrize(
    "masks,axiom",
    [({0b01, 0b10, 0b11}, "O1"), ({0b11}, "O2")],
    ids=["a coalition and its complement", "only the grand coalition"],
)
def test_ultrafilter_internal_invariant(monkeypatch, masks, axiom):
    """A family the complement test wrongly accepts must not yield a table."""
    monkeypatch.setattr(ks_bridge, "is_ultrafilter_complement", lambda u: True)
    monkeypatch.setattr(oracle, "is_ultrafilter_complement", lambda u: True)
    u = CoalitionFamily(2, frozenset(masks))
    with pytest.raises(RuntimeError, match=f"failed {axiom} at") as built:
        swf_from_ultrafilter(u, 3, 2, Domain.LINEAR)
    with pytest.raises(RuntimeError) as expected:
        oracle.swf_from_ultrafilter(u, 3, 2, Domain.LINEAR)
    assert str(built.value) == str(expected.value)


# --- brute force against the search -----------------------------------------------


def test_brute_force_finds_the_survivors_of_the_search():
    """Every assignment of the free cells, checked profile by profile.

    A cell is a (pair, tri-partition) of the independence quotient; the
    cells where every voter agrees are fixed by unanimity, leaving six
    free cells and 3**6 rules: at m=3, n=2 on linear ballots the mixed
    splits of three pairs, at m=4, n=1 on weak ballots the tie of six
    pairs.  The ones passing a1-a4 over the m-ary profiles must be
    exactly the search's survivors, stance for stance.
    """
    for m, n, domain, survivors in ((3, 2, Domain.LINEAR, 2), (4, 1, Domain.WEAK, 75)):
        tris = enumerate_tripartitions(n, domain)
        cells = [(pair, t) for pair in unordered_pairs(m) for t in tris]
        forced = {}
        for i, (_, t) in enumerate(cells):
            if len(t.first) == n:
                forced[i] = 0
            elif len(t.second) == n:
                forced[i] = 1
        free = [i for i in range(len(cells)) if i not in forced]
        assert len(free) == 6
        stance_of = (PairStance.FIRST_PREFERRED, PairStance.SECOND_PREFERRED, PairStance.INDIFFERENT)
        found = set()
        for choice in product(range(3), repeat=len(free)):
            stances = dict(forced)
            stances.update(zip(free, choice))
            rules = {pair: {} for pair in unordered_pairs(m)}
            for i, (pair, t) in enumerate(cells):
                rules[pair][t] = stance_of[stances[i]]
            if full_report(PairwiseRuleSwf(m, n, domain, rules)).arrovian():
                found.add(tuple(stances[i] for i in range(len(cells))))
        assert found == {tuple(rec.stances) for rec in search_arrovian(m, n, domain).survivors}
        assert len(found) == survivors
