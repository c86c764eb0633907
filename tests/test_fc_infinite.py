"""Finite/cofinite coalition algebra and the Frechet counterexample."""

import re
from itertools import repeat
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrovian import fc_infinite
from arrovian.fc_infinite import (
    EMPTY,
    NATURALS,
    SAMPLE_BOUND,
    EventuallyConstantProfile,
    _random_exceptions,
    FcMode,
    FcSet,
    FcTriple,
    InvalidTripleError,
    check_fc_triple,
    cofinite_part,
    decide_frechet_membership,
    decisive_coalition_test,
    dictator_rule,
    dictator_stance,
    fc_complement,
    fc_intersect,
    fc_member,
    fc_union,
    format_fc,
    frechet_stance,
    frechet_verdict,
    non_dictatorship_witness,
    random_fc_set,
    validate_fc_filter_axioms,
)
from arrovian.relations import PairStance, parse_weak_order
from swf_oracle import measurable_profile


fc_sets = st.builds(
    lambda mode, exc: FcSet(mode, frozenset(exc)),
    st.sampled_from([FcMode.FINITE, FcMode.COFINITE]),
    st.frozensets(st.integers(min_value=0, max_value=40), max_size=6),
)


def dense(a: FcSet, bound: int = 60) -> frozenset[int]:
    """Pointwise oracle: the set restricted to 0..bound-1."""
    return frozenset(v for v in range(bound) if fc_member(a, v))


# --- the algebra --------------------------------------------------------------


def test_membership_examples():
    assert fc_member(FcSet.finite({1, 2}), 1)
    assert not fc_member(FcSet.finite({1, 2}), 3)
    assert fc_member(FcSet.cofinite({3}), 4)
    assert not fc_member(FcSet.cofinite({3}), 3)
    assert not fc_member(EMPTY, 0)
    assert fc_member(NATURALS, 10**9)


def test_worked_union_and_intersection():
    a = FcSet.finite({1, 2})
    b = FcSet.cofinite({2, 3})
    assert fc_union(a, b) == FcSet.cofinite({3})
    assert fc_intersect(FcSet.cofinite({0}), FcSet.cofinite({1})) == FcSet.cofinite({0, 1})
    assert fc_intersect(a, b) == FcSet.finite({1})
    assert fc_union(FcSet.finite({0}), FcSet.finite({5})) == FcSet.finite({0, 5})


def test_complement_and_emptiness():
    assert fc_complement(FcSet.finite({7})) == FcSet.cofinite({7})
    assert fc_complement(NATURALS) == EMPTY


def test_rejects_bad_exceptions():
    with pytest.raises(ValueError):
        FcSet.finite({-1})


@given(fc_sets, fc_sets)
def test_union_matches_pointwise_oracle(a, b):
    assert dense(fc_union(a, b)) == dense(a) | dense(b)


@given(fc_sets, fc_sets)
def test_intersection_matches_pointwise_oracle(a, b):
    assert dense(fc_intersect(a, b)) == dense(a) & dense(b)


@given(fc_sets)
def test_complement_involution_and_oracle(a):
    assert fc_complement(fc_complement(a)) == a
    assert dense(fc_complement(a)) == frozenset(range(60)) - dense(a)


@given(fc_sets, fc_sets)
def test_de_morgan(a, b):
    assert fc_complement(fc_union(a, b)) == fc_intersect(fc_complement(a), fc_complement(b))


def test_seeded_algebra_against_oracle():
    rng = Random(20240811)
    for _ in range(300):
        a = random_fc_set(rng)
        b = random_fc_set(rng)
        bound = SAMPLE_BOUND + 20
        assert dense(fc_union(a, b), bound) == dense(a, bound) | dense(b, bound)
        assert dense(fc_intersect(a, b), bound) == dense(a, bound) & dense(b, bound)
        assert dense(fc_complement(a), bound) == frozenset(range(bound)) - dense(a, bound)


# --- text form ----------------------------------------------------------------


def test_text_round_trip():
    texts = {"fin{}": EMPTY, "cof{}": NATURALS, "fin{1,2}": FcSet.finite({1, 2}), "cof{3}": FcSet.cofinite({3})}
    for text, a in {**texts, "fin{0,10,200}": FcSet.finite({0, 10, 200})}.items():
        assert format_fc(a) == text
    assert format_fc(FcSet.finite({2, 1})) == "fin{1,2}"
    assert str(FcSet.cofinite({5})) == "cof{5}"


# --- tri-partitions ------------------------------------------------------------


def test_valid_triple_and_its_cofinite_part():
    t = FcTriple(FcSet.finite({0}), FcSet.cofinite({0, 1}), FcSet.finite({1}))
    check_fc_triple(t)
    name, part = cofinite_part(t)
    assert name == "second"
    assert part == FcSet.cofinite({0, 1})


def test_overlap_witness():
    t = FcTriple(FcSet.finite({0, 3}), FcSet.cofinite({0}), EMPTY)
    with pytest.raises(InvalidTripleError, match="overlap") as exc_info:
        check_fc_triple(t)
    assert exc_info.value.witness == 3


def test_coverage_witness():
    t = FcTriple(FcSet.finite({0}), FcSet.finite({1}), FcSet.finite({2}))
    with pytest.raises(InvalidTripleError, match="cover") as exc_info:
        check_fc_triple(t)
    assert exc_info.value.witness == 3


def test_two_cofinite_parts_always_overlap():
    t = FcTriple(FcSet.cofinite({0}), FcSet.cofinite({1}), EMPTY)
    with pytest.raises(InvalidTripleError, match="overlap"):
        check_fc_triple(t)


def test_triple_json_round_trip():
    t = FcTriple(FcSet.finite({2}), FcSet.cofinite({2, 7}), FcSet.finite({7}))
    assert t.to_json_dict() == {"first": "fin{2}", "second": "cof{2,7}", "tie": "fin{7}"}


# --- verdict rules ---------------------------------------------------------------


def test_frechet_follows_the_majority_at_infinity():
    t = FcTriple(FcSet.cofinite({0, 1}), FcSet.finite({0}), FcSet.finite({1}))
    assert frechet_stance(t) is PairStance.FIRST_PREFERRED
    assert dictator_stance(0, t) is PairStance.SECOND_PREFERRED
    assert dictator_stance(1, t) is PairStance.INDIFFERENT
    assert dictator_stance(2, t) is PairStance.FIRST_PREFERRED


def test_witness_overrules_every_named_voter():
    for v0 in range(100):
        t = non_dictatorship_witness(v0)
        check_fc_triple(t)
        assert t == FcTriple(FcSet.finite({v0}), FcSet.cofinite({v0}), EMPTY)
        assert dictator_stance(v0, t) is PairStance.FIRST_PREFERRED
        assert frechet_stance(t) is PairStance.SECOND_PREFERRED


def test_frechet_decisiveness_is_cofiniteness():
    rng = Random(7)
    for _ in range(200):
        a = random_fc_set(rng)
        expected = a.mode is FcMode.COFINITE
        assert decide_frechet_membership(a) == expected
        assert decisive_coalition_test(frechet_stance, a) == expected


def test_dictator_decisiveness_is_membership():
    rng = Random(99)
    for v0 in (0, 3, 17):
        rule = dictator_rule(v0)
        for _ in range(120):
            a = random_fc_set(rng)
            assert decisive_coalition_test(rule, a) == fc_member(a, v0)


def test_axiom_sweep_passes_and_is_reproducible():
    rep = validate_fc_filter_axioms(seed=424242, samples=250)
    assert rep.all_ok()
    doc = rep.to_json_dict()
    assert doc == validate_fc_filter_axioms(seed=424242, samples=250).to_json_dict()
    assert doc["samples"] == 250
    assert doc["failures"] == []


@pytest.mark.parametrize(
    "target, answer, failing",
    [
        ("decide_frechet_membership", True, {"proper", "complement_exclusive"}),
        ("decide_frechet_membership", False, {"upward_closed", "intersection_closed", "complement_exclusive", "free"}),
        ("fc_member", True, {"free"}),
    ],
    ids=["everything", "nothing", "voter-inside"],
)
def test_axiom_sweep_reports_each_failed_check(monkeypatch, target, answer, failing):
    """A membership test that admits every coalition, or none, fails the checks it breaks, each with
    one located message per failing case; a constant answer also makes every set agree with its complement.
    A voter test that finds every voter inside every coalition fails freeness alone, with its own message."""
    monkeypatch.setattr(fc_infinite, target, lambda *args: answer)
    rep = validate_fc_filter_axioms(seed=0, samples=5)
    assert not rep.all_ok()
    assert {check for check, ok in rep.checks.items() if not ok} == failing
    expected = {  # each check's message and how many samples it fails on
        "upward_closed": (r"superset \S+ of \S+ not a member", 5),
        "intersection_closed": (r"intersection of \S+ and \S+ not a member", 5),
        "proper": (r"the empty coalition claims membership", 1),
        "complement_exclusive": (r"\S+ and its complement agree on membership", 5),
        "free": (r"cof\{\d+\} refused membership" if answer is False else r"voter (\d+) found inside cof\{\1\}", 100),
    }
    patterns = [pattern for check in rep.checks if check in failing for pattern in repeat(*expected[check])]
    assert len(rep.failures) == len(patterns)
    assert all(re.fullmatch(pattern, message) for pattern, message in zip(patterns, rep.failures))


# --- eventually constant profiles -------------------------------------------------


def test_profile_partition_puts_tail_on_the_cofinite_side():
    tail = parse_weak_order("A>B>C")
    rebel = parse_weak_order("C>B>A")
    p = EventuallyConstantProfile(tail, ((5, rebel),))
    t = p.pair_triple(0, 1)
    assert t == FcTriple(FcSet.cofinite({5}), FcSet.finite({5}), EMPTY)
    assert frechet_verdict(p) == tail


def test_profile_with_indifferent_minority():
    tail = parse_weak_order("A>B>C")
    fence = parse_weak_order("A~B>C")
    p = EventuallyConstantProfile(tail, ((2, fence), (9, fence)))
    t = p.pair_triple(0, 1)
    assert t == FcTriple(FcSet.cofinite({2, 9}), EMPTY, FcSet.finite({2, 9}))
    assert frechet_verdict(p) == tail


def test_profile_validation():
    tail = parse_weak_order("A>B>C")
    other = parse_weak_order("B>A>C")
    with pytest.raises(ValueError, match="distinct"):
        EventuallyConstantProfile(tail, ((1, other), (1, tail)))
    with pytest.raises(ValueError, match="naturals"):
        EventuallyConstantProfile(tail, ((-2, other),))
    # A bool, a float or a string is refused where it enters, before the sort could compare it.
    for bad in (True, 1.5, "3"):
        for overrides in (((bad, other),), ((5, other), (bad, other))):
            with pytest.raises(ValueError, match="override voters must be naturals"):
                EventuallyConstantProfile(tail, overrides)
    with pytest.raises(ValueError, match="same alternatives"):
        EventuallyConstantProfile(tail, ((0, parse_weak_order("A>B")),))


def test_seeded_profiles_are_measurable_and_tail_ruled():
    rng = Random(1234)
    for _ in range(200):
        p = measurable_profile(rng)
        for x in range(p.m):
            for y in range(x + 1, p.m):
                check_fc_triple(p.pair_triple(x, y))
        assert frechet_verdict(p) == p.tail


# --- rewritten paths against a pointwise oracle ----------------------------------

WINDOW = 60  # exceptions stay below 41, so every behaviour shows inside 0..59
PART_NAMES = ("first", "second", "tie")
STANCE_OF = {
    "first": PairStance.FIRST_PREFERRED,
    "second": PairStance.SECOND_PREFERRED,
    "tie": PairStance.INDIFFERENT,
}


@st.composite
def partition_triples(draw):
    """A valid triple built from a voter assignment, sometimes nudged off it."""
    owner = draw(st.lists(st.integers(0, 2), min_size=41, max_size=41))
    tail = draw(st.integers(0, 2))
    parts = []
    for k in range(3):
        mine = frozenset(v for v, o in enumerate(owner) if o == k)
        if k == tail:
            parts.append(FcSet.cofinite(frozenset(range(41)) - mine))
        else:
            parts.append(FcSet.finite(mine))
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        v = draw(st.integers(0, 40))
        a = parts[k]
        flipped = a.exceptions ^ {v}
        parts[k] = FcSet(a.mode, flipped)
    return FcTriple(*parts)


triples = st.one_of(st.builds(FcTriple, fc_sets, fc_sets, fc_sets), partition_triples())


def oracle_check(t: FcTriple):
    """(reason, least witness) from membership of each voter in the window, or None."""
    dense_parts = [dense(part, WINDOW) for _, part in t.parts()]
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = dense_parts[i] & dense_parts[j]
            if overlap:
                return f"parts {PART_NAMES[i]!r} and {PART_NAMES[j]!r} overlap", min(overlap)
    missing = frozenset(range(WINDOW)).difference(*dense_parts)
    if missing:
        return "parts do not cover the electorate", min(missing)
    return None


@given(triples, st.integers(0, WINDOW - 1))
def test_triple_checks_match_pointwise_oracle(t, v0):
    expected = oracle_check(t)
    if expected is not None:
        with pytest.raises(InvalidTripleError) as exc_info:
            check_fc_triple(t)
        assert (exc_info.value.reason, exc_info.value.witness) == expected
        for call in (lambda: cofinite_part(t), lambda: dictator_stance(v0, t)):
            with pytest.raises(InvalidTripleError) as again:
                call()
            assert (again.value.reason, again.value.witness) == expected
        return
    check_fc_triple(t)
    # The cofinite part is the one holding the voters past every exception.
    name, part = cofinite_part(t)
    assert WINDOW - 1 in dense(part, WINDOW)
    assert part is getattr(t, name)
    holder = next(k for k, (_, p) in enumerate(t.parts()) if v0 in dense(p, WINDOW))
    assert dictator_stance(v0, t) is STANCE_OF[PART_NAMES[holder]]


@pytest.mark.parametrize("bad", [-1, True, "3"])
def test_every_constructor_rejects_non_naturals(bad):
    message = f"exception {bad!r} is not a natural number"
    constructors = (
        FcSet.finite,
        FcSet.cofinite,
        lambda e: FcSet(FcMode.FINITE, e),
        lambda e: FcSet(FcMode.COFINITE, e),
        lambda e: FcSet(FcMode.FINITE, frozenset(e)),
    )
    for make in constructors:
        with pytest.raises(ValueError) as exc_info:
            make([5, bad])
        assert str(exc_info.value) == message


def test_seeded_draws_hold_naturals_only():
    rng = Random(5)
    for _ in range(200):
        a = random_fc_set(rng)
        assert all(type(v) is int and 0 <= v <= SAMPLE_BOUND for v in a.exceptions)
        assert FcSet(a.mode, a.exceptions) == a


def test_seeded_draws_are_the_standard_library_draws():
    """The bit-level draw gives what `Random.randint` and `Random.sample` gave, and leaves the same state."""
    # `sample` takes its set branch: the population outgrows its `setsize` for up to 8 picks.
    assert SAMPLE_BOUND + 1 > 21 + 4**3

    def reference(rng):
        return frozenset(rng.sample(range(SAMPLE_BOUND + 1), rng.randint(0, 8)))

    def reference_fc_set(rng):
        mode = FcMode.COFINITE if rng.random() < 0.5 else FcMode.FINITE
        return FcSet(mode, reference(rng))

    pairs = ((_random_exceptions, reference), (random_fc_set, reference_fc_set))
    for seed in range(1000):
        ours, theirs = Random(seed), Random(seed)
        for draw, expected in pairs * 3:
            assert draw(ours) == expected(theirs)
            assert ours.getstate() == theirs.getstate()
