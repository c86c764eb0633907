"""Shipping gate: ten criteria, each printing one pass line when it holds."""

import time
from itertools import product
from random import Random

from arrovian._util import canonical_json
from arrovian.arrow_search import search_arrovian
from arrovian.fc_infinite import (
    FcSet,
    check_fc_triple,
    decisive_coalition_test,
    dictator_rule,
    dictator_stance,
    fc_complement,
    fc_intersect,
    fc_member,
    fc_union,
    frechet_stance,
    frechet_verdict,
    non_dictatorship_witness,
    random_fc_set,
    validate_fc_filter_axioms,
)
from arrovian.filters import (
    classify,
    enumerate_filters,
    is_ultrafilter_complement,
)
from arrovian.ks_bridge import extract_decisive_family, swf_from_ultrafilter
from arrovian.profiles import Domain, condorcet_profile, pairwise_majority
from arrovian.relations import (
    AlternativeSet,
    PairStance,
    enumerate_weak_orders,
    pair_stance,
    validate_weak_order,
)
from swf_oracle import (
    dictator_explicit,
    dictator_rules,
    is_ultrafilter_maximal,
    measurable_profile,
    principal,
    strict_relation,
)


def ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# ------------------------------------------------------------ shared oracles


def lemma_violations(m: int) -> int:
    """Counterexamples to the four structure lemmas over every weak order."""
    bad = 0
    for w in enumerate_weak_orders(m):
        h = strict_relation(w).holds
        for x, y, z in product(range(m), repeat=3):
            if h[x][z] and not (h[x][y] or h[y][z]):
                bad += 1
            if h[x][y] and h[y][z] and not h[x][z]:
                bad += 1
            if ((not h[y][x] and h[y][z]) or (h[x][y] and not h[z][y])) and not h[x][z]:
                bad += 1
            if (not h[x][y] and not h[y][x]) and (not h[y][z] and not h[z][y]):
                if h[x][z] or h[z][x]:
                    bad += 1
    return bad


def oracle_weak_order_count(m: int) -> int:
    """Filter all 2^(m*m) bit-coded relations with direct quantification."""
    diagonal = sum(1 << (x * m + x) for x in range(m))
    pairs = [(x, y) for x in range(m) for y in range(x + 1, m)]
    triples = list(product(range(m), repeat=3))
    count = 0
    for r in range(1 << (m * m)):
        if r & diagonal:
            continue
        if any(r >> (x * m + y) & 1 and r >> (y * m + x) & 1 for x, y in pairs):
            continue
        if any(
            not r >> (x * m + y) & 1 and not r >> (y * m + z) & 1 and r >> (x * m + z) & 1
            for x, y, z in triples
        ):
            continue
        count += 1
    return count


def filter_scan(n: int) -> dict:
    """Full-scan summary: counts, fixedness, maximality agreement, cores."""
    fams = enumerate_filters(n)
    all_fixed = True
    maximality_agrees = True
    ultrafilter_cores = []
    for fam in fams:
        cls = classify(fam)
        all_fixed = all_fixed and cls.fixed
        if is_ultrafilter_maximal(fam) != is_ultrafilter_complement(fam):
            maximality_agrees = False
        if cls.is_ultrafilter:
            ultrafilter_cores.append(sorted(cls.core))
    return {
        "count": len(fams),
        "all_fixed": all_fixed,
        "maximality_agrees": maximality_agrees,
        "ultrafilter_cores": sorted(ultrafilter_cores),
    }


ORDERS_3 = enumerate_weak_orders(3)
BY_STANCE_01 = {
    stance: [w for w in ORDERS_3 if pair_stance(w, 0, 1) is stance] for stance in PairStance
}


def reshuffle_off_pair(rng: Random, p):
    """A profile with the same (0, 1) stances voter by voter, new orders."""
    from arrovian.fc_infinite import EventuallyConstantProfile

    tail = rng.choice(BY_STANCE_01[pair_stance(p.tail, 0, 1)])
    overrides = tuple(
        (v, rng.choice(BY_STANCE_01[pair_stance(w, 0, 1)])) for v, w in p.overrides
    )
    return EventuallyConstantProfile(tail, overrides)


def frechet_instance_summary(seed: int, profile_count: int) -> dict:
    rng = Random(seed)
    unanimity_failures = 0
    independence_failures = 0
    verdict_failures = 0
    for _ in range(200):
        from arrovian.fc_infinite import EventuallyConstantProfile

        tail = rng.choice(BY_STANCE_01[PairStance.FIRST_PREFERRED])
        voters = rng.sample(range(50), rng.randrange(4))
        overrides = tuple(
            (v, rng.choice(BY_STANCE_01[PairStance.FIRST_PREFERRED])) for v in voters
        )
        p = EventuallyConstantProfile(tail, overrides)
        if pair_stance(frechet_verdict(p), 0, 1) is not PairStance.FIRST_PREFERRED:
            unanimity_failures += 1
    for _ in range(200):
        p = measurable_profile(rng)
        q = reshuffle_off_pair(rng, p)
        if p.pair_triple(0, 1) != q.pair_triple(0, 1):
            independence_failures += 1
        elif pair_stance(frechet_verdict(p), 0, 1) is not pair_stance(frechet_verdict(q), 0, 1):
            independence_failures += 1
    for _ in range(profile_count):
        p = measurable_profile(rng)
        verdict = frechet_verdict(p)
        res = validate_weak_order(strict_relation(verdict))
        if not res.ok:
            verdict_failures += 1
    defeated = 0
    for v0 in range(100):
        t = non_dictatorship_witness(v0)
        check_fc_triple(t)
        if (
            dictator_stance(v0, t) is PairStance.FIRST_PREFERRED
            and frechet_stance(t) is PairStance.SECOND_PREFERRED
        ):
            defeated += 1
    return {
        "unanimity_failures": unanimity_failures,
        "independence_failures": independence_failures,
        "profiles_checked": profile_count,
        "verdict_failures": verdict_failures,
        "defeated_candidates": defeated,
    }


def dictator_membership_agreements(seed: int, cases: int, v0: int) -> int:
    rng = Random(seed)
    rule = dictator_rule(v0)
    return sum(
        decisive_coalition_test(rule, a) == fc_member(a, v0)
        for a in (random_fc_set(rng) for _ in range(cases))
    )


def algebra_mismatches(seed: int, cases: int) -> int:
    rng = Random(seed)
    points = range(201)

    def dense(a: FcSet) -> frozenset:
        return frozenset(v for v in points if fc_member(a, v))

    bad = 0
    for _ in range(cases):
        a, b = random_fc_set(rng), random_fc_set(rng)
        if dense(fc_union(a, b)) != dense(a) | dense(b):
            bad += 1
        if dense(fc_intersect(a, b)) != dense(a) & dense(b):
            bad += 1
        if dense(fc_complement(a)) != frozenset(points) - dense(a):
            bad += 1
    return bad


def criteria_document(seed: int) -> dict:
    """Machine-readable outputs of criteria 1 through 9, for the byte check."""
    alts = AlternativeSet(3)
    rel = pairwise_majority(condorcet_profile())
    res = validate_weak_order(rel)
    cert = search_arrovian(3, 2, Domain.LINEAR)
    generators = {}
    for n in (1, 2, 3):
        for v in range(n):
            fam = extract_decisive_family(dictator_rules(v, 3, n, Domain.LINEAR)).family
            generators[f"linear n={n} v={v}"] = sorted(classify(fam).core)
    round_trips = []
    for n in (1, 2, 3):
        for fam in enumerate_filters(n):
            if classify(fam).is_ultrafilter:
                rebuilt = extract_decisive_family(swf_from_ultrafilter(fam, 3, n, Domain.LINEAR))
                round_trips.append(rebuilt.family == fam)
    return {
        "c1": {"lemma_violations": [lemma_violations(m) for m in (1, 2, 3, 4)]},
        "c2": {"oracle_counts": [oracle_weak_order_count(m) for m in (1, 2, 3, 4)]},
        "c3": {
            "edges": [[alts.label(x), alts.label(y)] for x, y in rel.edges()],
            "axiom": res.axiom,
            "witness": [alts.label(x) for x in res.witness],
        },
        "c4": {f"n={n}": filter_scan(n) for n in (1, 2, 3, 4)},
        "c5": cert.to_json_dict(),
        "c6": {"generators": generators, "round_trips": round_trips},
        "c7": frechet_instance_summary(seed, profile_count=1000),
        "c8": {"agreements": dictator_membership_agreements(seed, 500, v0=0)},
        "c9": {"mismatches": algebra_mismatches(seed, 1000)},
    }


# ------------------------------------------------------------ the criteria


def test_criterion_1_weak_order_lemma_suite():
    start = time.perf_counter()
    violations = [lemma_violations(m) for m in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    assert violations == [0, 0, 0, 0]
    assert elapsed < 5.0
    ok(1, f"lemma suite clean for m<=4 in {elapsed:.2f}s")


def test_criterion_2_enumeration_counts():
    expected = [1, 3, 13, 75]
    oracle = [oracle_weak_order_count(m) for m in (1, 2, 3, 4)]
    enumerated = [len(enumerate_weak_orders(m)) for m in (1, 2, 3, 4)]
    assert oracle == expected
    assert enumerated == expected
    ok(2, f"weak-order counts {oracle} match the 2^(m*m) oracle")


def test_criterion_3_condorcet_witness():
    alts = AlternativeSet(3)
    rel = pairwise_majority(condorcet_profile())
    assert [[alts.label(x), alts.label(y)] for x, y in rel.edges()] == [
        ["A", "B"],
        ["B", "C"],
        ["C", "A"],
    ]
    res = validate_weak_order(rel)
    assert not res.ok
    assert res.axiom == "O2"
    assert tuple(alts.label(x) for x in res.witness) == ("A", "B", "C")
    ok(3, "majority cycle fails O2 with witness (A,B,C)")


def test_criterion_4_filter_lemma_suite():
    start = time.perf_counter()
    summaries = {n: filter_scan(n) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - start
    for n, summary in summaries.items():
        assert summary["count"] == 2**n - 1
        assert summary["all_fixed"]
        assert summary["maximality_agrees"]
        assert summary["ultrafilter_cores"] == [[v] for v in range(n)]
    assert elapsed < 60.0
    ok(4, f"full scans n<=4 clean in {elapsed:.2f}s")


def test_criterion_5_arrow_base_case():
    start = time.perf_counter()
    cert = search_arrovian(3, 2, Domain.LINEAR)
    elapsed = time.perf_counter() - start
    assert len(cert.survivors) == 2
    assert all(rec.dictator is not None for rec in cert.survivors)
    assert cert.explored_leaves + cert.pruned_total == cert.space
    assert "".join(cert.json_slices()) == "".join(search_arrovian(3, 2, Domain.LINEAR).json_slices())
    assert elapsed < 60.0
    ok(5, f"2 survivors, both dictatorial, certificate stable, {elapsed:.2f}s")


def test_criterion_6_ks_correspondence():
    cert = search_arrovian(3, 2, Domain.LINEAR)
    for rec in cert.survivors:
        dec = extract_decisive_family(rec.swf)
        cls = classify(dec.family)
        assert cls.is_ultrafilter
        assert cls.core == frozenset({rec.dictator})
    for n in (1, 2, 3):
        for v in range(n):
            dec = extract_decisive_family(dictator_rules(v, 3, n, Domain.LINEAR))
            assert dec.family == principal(n, v)
    for n in (1, 2):
        for v in range(n):
            dec = extract_decisive_family(dictator_explicit(v, 3, n, Domain.WEAK))
            assert dec.family == principal(n, v)
    checked = 0
    for n in (1, 2, 3):
        ultrafilters = [fam for fam in enumerate_filters(n) if classify(fam).is_ultrafilter]
        assert sorted(fam.masks for fam in ultrafilters) == sorted(
            principal(n, v).masks for v in range(n)
        )
        for fam in ultrafilters:
            rebuilt = extract_decisive_family(swf_from_ultrafilter(fam, 3, n, Domain.LINEAR))
            assert rebuilt.family == fam
            checked += 1
    ok(6, f"principal extraction and {checked} exact round trips at n<=3")


def test_criterion_7_frechet_possibility_instance():
    report = validate_fc_filter_axioms(seed=2024, samples=500)
    assert report.all_ok()
    summary = frechet_instance_summary(seed=2024, profile_count=1000)
    assert summary["unanimity_failures"] == 0
    assert summary["independence_failures"] == 0
    assert summary["verdict_failures"] == 0
    assert summary["profiles_checked"] >= 1000
    assert summary["defeated_candidates"] == 100
    ok(7, "unanimity, independence, 1000 valid verdicts, every v0<=99 overruled")


def test_criterion_8_dictator_membership_procedure():
    agreements = dictator_membership_agreements(seed=2024, cases=500, v0=0)
    assert agreements == 500
    ok(8, "decisive-membership equals fc_member on 500 seeded coalitions")


def test_criterion_9_algebra_oracle_equivalence():
    assert algebra_mismatches(seed=2024, cases=1000) == 0
    ok(9, "union/intersect/complement match pointwise 0..200 on 1000 cases")


def test_criterion_10_byte_determinism():
    text_a = canonical_json(criteria_document(seed=2024))
    text_b = canonical_json(criteria_document(seed=2024))
    assert text_a == text_b
    ok(10, f"criteria 1-9 JSON stable across runs ({len(text_a)} bytes)")
