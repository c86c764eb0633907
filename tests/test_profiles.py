"""Profiles, tri-partitions, majority aggregation and the JSON format."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import swf_oracle as oracle
from arrovian.profiles import (
    PROFILE_BUDGET_DEFAULT,
    BudgetExceededError,
    Domain,
    Profile,
    ProfileFormatError,
    TriPartition,
    check_profile_space,
    condorcet_profile,
    domain_size,
    enumerate_profiles,
    enumerate_tripartitions,
    pair_partition,
    pairwise_majority,
    parse_profile_json,
    profile_from_texts,
    split_at,
    split_position,
)
from arrovian.relations import AlternativeSet, PairStance, validate_weak_order


def texts(*orders):
    return profile_from_texts(list(orders))


# --- profiles and stances ---------------------------------------------------


def test_profile_basic_accessors():
    f = texts("A>B>C", "C>B>A")
    assert (f.n, f.m) == (2, 3)
    assert f.stance(0, 0, 1) is PairStance.FIRST_PREFERRED
    assert f.stance(1, 0, 1) is PairStance.SECOND_PREFERRED
    with pytest.raises(ValueError):
        f.order_of(2)


def test_profile_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        profile_from_texts(["A>B>C", "A>B"])
    with pytest.raises(ValueError):
        Profile(())


# --- tri-partitions ----------------------------------------------------------


def test_condorcet_tripartition_on_ab():
    f = condorcet_profile()
    t = pair_partition(f, 0, 1)
    assert t.first == {0, 1}
    assert t.second == {2}
    assert t.tie == frozenset()


def test_tripartition_code_round_trip():
    for n in (1, 2, 3):
        for code in range(3**n):
            t = TriPartition.from_code(n, code)
            assert t.code() == code
    with pytest.raises(ValueError):
        TriPartition.from_code(2, 9)


def test_tripartition_code_weights():
    """Voter 0 is the least significant trit; first=0, second=1, tie=2."""
    t = TriPartition(2, frozenset({1}), frozenset({0}), frozenset())
    assert t.code() == 1 + 0 * 3
    t = TriPartition(2, frozenset(), frozenset({1}), frozenset({0}))
    assert t.code() == 2 + 1 * 3


def test_tripartition_must_partition():
    with pytest.raises(ValueError):
        TriPartition(2, frozenset({0}), frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError):
        TriPartition(2, frozenset({0}), frozenset(), frozenset())


def test_tripartition_json_lists_round_trip():
    t = TriPartition(3, frozenset({2, 0}), frozenset(), frozenset({1}))
    lists = t.to_json_lists()
    assert lists == [[0, 2], [], [1]]
    assert TriPartition.from_json_lists(3, lists) == t
    with pytest.raises(ValueError):
        TriPartition.from_json_lists(3, [[0], [1]])
    for lists in ([[0, 0], [1], []], [[1], [0, 1, 0], []]):  # as sets, both would partition the voters
        with pytest.raises(ValueError, match="^voter [01] listed twice$"):
            TriPartition.from_json_lists(2, lists)


def test_enumerate_tripartitions_linear_excludes_ties():
    weak = enumerate_tripartitions(2, Domain.WEAK)
    linear = enumerate_tripartitions(2, Domain.LINEAR)
    assert len(weak) == 9
    assert len(linear) == 4
    assert all(not t.tie for t in linear)
    assert [t.code() for t in weak] == sorted(t.code() for t in weak)
    assert [split_position(t, Domain.WEAK) for t in weak] == list(range(9))
    assert [split_position(t, Domain.LINEAR) for t in linear] == list(range(4))
    assert [split_position(t, Domain.LINEAR) for t in weak if t.tie] == [None] * 5


@pytest.mark.parametrize("domain", list(Domain))
def test_split_at_reads_a_json_tri_partition_to_its_split_position(domain):
    """In any order within a part; anything `from_json_lists` refuses, or a linear tie, reads as None."""
    for n in (1, 2, 3, 4):
        for t in enumerate_tripartitions(n, Domain.WEAK):
            lists, j = t.to_json_lists(), split_position(t, domain)
            assert split_at(n, domain, lists) == split_at(n, domain, [p[::-1] for p in lists]) == j
    refused = (
        [[0], [1]], [[0], [1], [], []], [[0], [1], ()], "01", {"0": [0, 1]}, None,
        [[True], [0], []], [[0.0], [1], []], [[-1], [0, 1], []], [[0], [2], []], [[0], [], []], [[0], [0, 1], []],
    )
    for lists in refused:
        assert split_at(2, domain, lists) is None, lists


def test_pair_partition_agrees_with_stances():
    f = texts("A~B>C", "B>A>C", "C>A~B")
    for x, y in ((0, 1), (0, 2), (1, 2)):
        t = pair_partition(f, x, y)
        for v in range(f.n):
            expected = {
                PairStance.FIRST_PREFERRED: t.first,
                PairStance.SECOND_PREFERRED: t.second,
                PairStance.INDIFFERENT: t.tie,
            }[f.stance(v, x, y)]
            assert v in expected


# --- majority -----------------------------------------------------------------


def test_condorcet_majority_cycles():
    rel = pairwise_majority(condorcet_profile())
    assert rel.edges() == [(0, 1), (1, 2), (2, 0)]
    res = validate_weak_order(rel)
    assert (res.ok, res.axiom, res.witness) == (False, "O2", (0, 1, 2))


def test_majority_requires_strict_majority():
    f = texts("A>B", "B>A")
    assert pairwise_majority(f).edges() == []
    g = texts("A~B", "A>B", "B>A")
    assert pairwise_majority(g).edges() == []


def test_majority_is_anonymous():
    f = texts("A>B>C", "C>A>B", "B>C>A")
    g = texts("B>C>A", "A>B>C", "C>A>B")
    assert pairwise_majority(f) == pairwise_majority(g)


@st.composite
def small_profiles(draw):
    m, n, domain = draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.sampled_from(Domain))
    return Profile(tuple(draw(st.lists(st.sampled_from(domain.orders(m)), min_size=n, max_size=n))))


@given(small_profiles())
def test_majority_is_the_margin_count(f):
    assert pairwise_majority(f).edges() == oracle.majority_edges(f)


def test_unanimous_profile_majority_recovers_order():
    f = texts("B>A~C", "B>A~C", "B>A~C")
    rel = pairwise_majority(f)
    assert validate_weak_order(rel).ok
    assert set(rel.edges()) == {(1, 0), (1, 2)}


# --- enumeration ----------------------------------------------------------------


def test_domain_sizes():
    assert domain_size(3, 2, Domain.LINEAR) == 36
    assert domain_size(3, 2, Domain.WEAK) == 169
    assert domain_size(3, 3, Domain.WEAK) == 13**3


def test_enumerate_profiles_odometer_order():
    profiles = list(enumerate_profiles(3, 2, Domain.LINEAR))
    assert len(profiles) == 36
    assert len(set(profiles)) == 36
    # voter n-1 cycles fastest
    first, second = profiles[0], profiles[1]
    assert first.prefs[0] == second.prefs[0]
    assert first.prefs[1] != second.prefs[1]
    assert str(profiles[0].prefs[0]) == "A>B>C"


def test_enumerate_profiles_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_profiles(3, 7, Domain.WEAK))
    assert 13**7 > PROFILE_BUDGET_DEFAULT
    with pytest.raises(ValueError):
        enumerate_profiles(3, 0, Domain.LINEAR)
    assert PROFILE_BUDGET_DEFAULT == 10_000_000


def test_budget_bounds_the_voters_too():
    # 2**23 profiles fit the default budget, so 23 voters pass on every domain.
    check_profile_space(2, 23, Domain.LINEAR)
    check_profile_space(1, 23, Domain.WEAK)
    with pytest.raises(BudgetExceededError, match="24 voters"):
        check_profile_space(1, 24, Domain.WEAK)
    # The size of a huge domain is never computed.
    for m in (1, 3):
        with pytest.raises(BudgetExceededError, match="over the budget"):
            check_profile_space(m, 10**30, Domain.WEAK)
    with pytest.raises(BudgetExceededError, match="domain holds 62748517 profiles"):
        check_profile_space(3, 7, Domain.WEAK)


def test_domain_from_name():
    assert Domain.from_name("weak") is Domain.WEAK
    assert Domain.from_name("linear") is Domain.LINEAR
    with pytest.raises(ValueError):
        Domain.from_name("total")


# --- JSON ------------------------------------------------------------------------


def test_profile_json_round_trip():
    f = texts("A~B>C", "C>B>A")
    doc = oracle.profile_to_json_dict(f)
    assert doc == {"m": 3, "n": 2, "labels": ["A", "B", "C"], "prefs": ["A~B>C", "C>B>A"]}
    g, alts = parse_profile_json(json.dumps(doc))
    assert g == f
    assert alts.all_labels() == ("A", "B", "C")


def test_profile_json_custom_labels():
    alts = AlternativeSet(2, ("up", "down"))
    f = profile_from_texts(["up>down"], alts)
    doc = oracle.profile_to_json_dict(f, alts)
    g, alts_back = parse_profile_json(doc)
    assert g == f
    assert alts_back.all_labels() == ("up", "down")


def test_profile_json_error_locations():
    with pytest.raises(ProfileFormatError) as exc:
        parse_profile_json("{not json")
    assert "line 1" in str(exc.value.location)

    with pytest.raises(ProfileFormatError) as exc:
        parse_profile_json({"m": 3, "n": 1})
    assert exc.value.location == "prefs"

    with pytest.raises(ProfileFormatError) as exc:
        parse_profile_json({"m": 3, "n": 1, "prefs": ["A>B>C"], "extra": 1})
    assert "extra" in str(exc.value)

    with pytest.raises(ProfileFormatError) as exc:
        parse_profile_json({"m": True, "n": 1, "prefs": ["A"]})
    assert exc.value.location == "m"

    with pytest.raises(ProfileFormatError) as exc:
        parse_profile_json({"m": 3, "n": 2, "prefs": ["A>B>C"]})
    assert exc.value.location == "prefs"

    with pytest.raises(ProfileFormatError) as exc:
        parse_profile_json({"m": 3, "n": 2, "prefs": ["A>B>C", "A>B"]})
    assert exc.value.location == "prefs[1]"

    with pytest.raises(ProfileFormatError) as exc:
        parse_profile_json({"m": 2, "n": 1, "labels": ["A", "A"], "prefs": ["A>B"]})
    assert exc.value.location == "labels"


def test_condorcet_profile_is_the_textbook_one():
    f = condorcet_profile()
    assert [str(w) for w in f.prefs] == ["A>B>C", "C>A>B", "B>C>A"]
