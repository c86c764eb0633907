"""Coalition families, filter axioms and the exhaustive family scan.

The maximality reference in `swf_oracle` decides by one-set closures
whether a strictly finer proper filter exists; it must agree with a
brute-force scan for one over every enumerated filter, and with the
library's complement test.
"""

import pytest

from arrovian import filters
from arrovian.filters import (
    MAX_GROUND,
    CoalitionFamily,
    classify,
    enumerate_filters,
    family_from_code,
    is_filter,
    is_ultrafilter_complement,
    mask_to_set,
    set_to_mask,
)
from swf_oracle import family_to_code, is_ultrafilter_maximal, principal

FILTER_COUNTS = {1: 1, 2: 3, 3: 7, 4: 15}  # 2**n - 1, one per nonempty core
UP_SET_COUNTS = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}  # Dedekind numbers D(n), OEIS A000372


def fam(n, *sets):
    return CoalitionFamily(n, frozenset(set_to_mask(s, n) for s in sets))


# --- masks ---------------------------------------------------------------


def test_mask_round_trip():
    assert set_to_mask({0, 2}, 3) == 0b101
    assert mask_to_set(0b101) == {0, 2}
    for mask in range(16):
        assert set_to_mask(mask_to_set(mask), 4) == mask
    with pytest.raises(ValueError):
        set_to_mask({3}, 3)


def test_family_validation():
    with pytest.raises(ValueError):
        CoalitionFamily(0, frozenset())
    with pytest.raises(ValueError):
        CoalitionFamily(2, frozenset({4}))
    assert fam(2, {0}, {0, 1}).member_sets() == [{0}, {0, 1}]


def test_principal_family():
    assert principal(3, 1).masks == {0b010, 0b011, 0b110, 0b111}


# --- the four axioms -------------------------------------------------------


def test_filter_axiom_witnesses():
    res = is_filter(CoalitionFamily(2, frozenset()))
    assert (res.ok, res.axiom) == (False, "nonempty")

    res = is_filter(fam(2, set(), {0}, {0, 1}))
    assert (res.ok, res.axiom, res.witness) == (False, "F3", (frozenset(),))

    res = is_filter(fam(2, {0}))
    assert (res.ok, res.axiom) == (False, "F1")
    small, big = res.witness
    assert small == {0} and small < big

    res = is_filter(fam(2, {0}, {1}, {0, 1}))
    assert (res.ok, res.axiom, res.witness) == (False, "F2", (frozenset({0}), frozenset({1})))


def test_principal_families_are_filters():
    for n in range(1, 5):
        for v in range(n):
            assert is_filter(principal(n, v)).ok


def test_whole_powerset_above_a_core_is_a_filter():
    # upward closure of {0,1} inside ground set of 3
    f = fam(3, {0, 1}, {0, 1, 2})
    assert is_filter(f).ok
    assert not is_ultrafilter_complement(f)


def pairwise_filter_check(f):
    """Nonempty, F3, F1 (members ascending, each superset from the largest down) and F2 over every
    pair of members ascending: the axioms read one coalition at a time."""
    full, members = (1 << f.n) - 1, sorted(f.masks)
    if not members:
        return filters.FilterCheck(False, "nonempty", ())
    if 0 in f.masks:
        return filters.FilterCheck(False, "F3", (frozenset(),))
    for a in members:
        for sup in range(full, a - 1, -1):
            if sup & a == a and sup not in f.masks:
                return filters.FilterCheck(False, "F1", (mask_to_set(a), mask_to_set(sup)))
    for i, a in enumerate(members):
        for b in members[i:]:
            if a & b not in f.masks:
                return filters.FilterCheck(False, "F2", (mask_to_set(a), mask_to_set(b)))
    return filters.FilterCheck(True)


def test_filter_check_agrees_with_the_pairwise_axioms():
    """Every family on up to three voters, and every up-set on four, the only families that reach F2."""
    up_sets = [0, 1]
    for v in range(4):
        up_sets = [lo | hi << (1 << v) for hi in up_sets for lo in up_sets if lo & ~hi == 0]
    families = [family_from_code(n, code) for n in (1, 2, 3) for code in range(1 << (1 << n))]
    families += [family_from_code(4, code) for code in up_sets]
    verdicts = [is_filter(f) for f in families]
    assert verdicts == [pairwise_filter_check(f) for f in families]
    assert sum(v.axiom == "F2" for v in verdicts) > 0


# --- enumeration -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_filter_count(n):
    assert len(enumerate_filters(n)) == FILTER_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_enumerated_family_is_a_filter_and_none_missed(n):
    found = {family_to_code(f) for f in enumerate_filters(n)}
    for code in range(1 << (1 << n)):
        ok = is_filter(family_from_code(n, code)).ok
        assert (code in found) == ok


def count_is_filter_calls(monkeypatch):
    calls = []

    def counted(fam):
        calls.append(fam)
        return is_filter(fam)

    monkeypatch.setattr(filters, "is_filter", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_checks_each_up_set_once(monkeypatch, n):
    calls = count_is_filter_calls(monkeypatch)
    enumerate_filters(n)
    assert len(calls) == UP_SET_COUNTS[n]


def test_census_one_voter_past_the_cli_limit(monkeypatch):
    monkeypatch.setattr(filters, "MAX_GROUND", 5)
    calls = count_is_filter_calls(monkeypatch)
    fams = enumerate_filters(5)
    assert len(calls) == UP_SET_COUNTS[5]
    up_sets = sorted(
        family_to_code(CoalitionFamily(5, frozenset(m for m in range(32) if m & core == core)))
        for core in range(1, 32)
    )
    assert [family_to_code(f) for f in fams] == up_sets
    ultras = [f for f in fams if classify(f).is_ultrafilter]
    assert sorted(ultras, key=family_to_code) == sorted((principal(5, v) for v in range(5)), key=family_to_code)


def test_enumeration_is_deterministic_and_sorted():
    fams = enumerate_filters(3)
    codes = [family_to_code(f) for f in fams]
    assert codes == sorted(codes)
    assert fams == enumerate_filters(3)


def test_enumerate_range_errors():
    with pytest.raises(ValueError):
        enumerate_filters(0)
    with pytest.raises(ValueError):
        enumerate_filters(MAX_GROUND + 1)


def test_filters_are_exactly_principal_on_cores():
    """On a finite ground set every filter is the up-set of its core."""
    for n in (1, 2, 3, 4):
        for f in enumerate_filters(n):
            cls = classify(f)
            core = set_to_mask(cls.core, n)
            assert core != 0
            expected = {
                mask for mask in range(1 << n) if mask & core == core
            }
            assert f.masks == expected


# --- classification ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_filter_is_fixed_with_member_core(n):
    for f in enumerate_filters(n):
        cls = classify(f)
        assert cls.fixed
        assert set_to_mask(cls.core, n) in f.masks


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maximality_equals_complement_test(n):
    for f in enumerate_filters(n):
        assert is_ultrafilter_maximal(f) == is_ultrafilter_complement(f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_maximality_against_bruteforce_oracle(n):
    all_filters = enumerate_filters(n)
    for f in all_filters:
        has_proper_extension = any(
            f.masks < g.masks for g in all_filters
        )
        assert is_ultrafilter_maximal(f) == (not has_proper_extension)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ultrafilters_are_exactly_the_principal_singletons(n):
    ultras = [f for f in enumerate_filters(n) if classify(f).is_ultrafilter]
    expected = [principal(n, v) for v in range(n)]
    assert sorted(ultras, key=family_to_code) == sorted(expected, key=family_to_code)
    assert len(ultras) == n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classification_agrees_with_the_single_checks(n):
    for code in range(1 << (1 << n)):
        f = family_from_code(n, code)
        cls = classify(f)
        assert cls.is_ultrafilter == is_ultrafilter_complement(f)
        assert cls.filter_check == is_filter(f)


def test_classify_checks_the_filter_axioms_once(monkeypatch):
    calls = count_is_filter_calls(monkeypatch)
    assert classify(principal(3, 0)).is_ultrafilter
    assert len(calls) == 1


def test_maximal_requires_a_filter():
    with pytest.raises(ValueError):
        is_ultrafilter_maximal(fam(2, {0}, {1}, {0, 1}))
    assert not is_ultrafilter_complement(fam(2, {0}, {1}, {0, 1}))


def test_classify_non_filter_still_reports_core():
    cls = classify(fam(2, {0}, {1}, {0, 1}))
    assert not cls.filter_check.ok
    assert cls.filter_check.axiom == "F2"
    assert cls.core == set()
    assert not cls.fixed
    assert not cls.is_ultrafilter


def test_classify_empty_family_core_convention():
    cls = classify(CoalitionFamily(3, frozenset()))
    assert cls.core == {0, 1, 2}
    assert not cls.filter_check.ok


def test_classification_json():
    doc = classify(principal(2, 0)).to_json_dict()
    assert doc == {
        "is_filter": True,
        "violated": None,
        "witness": None,
        "is_ultrafilter": True,
        "fixedness": "FIXED",
        "core": [0],
    }


# --- codes and JSON ---------------------------------------------------------------


def test_family_code_round_trip():
    for n in (1, 2, 3):
        top = (1 << (1 << n)) - 1
        for code in (0, 1, top >> 1, top):
            assert family_to_code(family_from_code(n, code)) == code
    with pytest.raises(ValueError):
        family_from_code(1, 4)


def test_family_json_round_trip():
    f = fam(3, {1}, {1, 2}, {0, 1, 2})
    doc = f.to_json_dict()
    assert doc == {"n": 3, "members": [[1], [1, 2], [0, 1, 2]]}
    assert CoalitionFamily.from_json_dict(doc) == f
    assert CoalitionFamily.from_json_dict('{"n": 2, "members": [[0]]}') == fam(2, {0})


def test_family_json_errors():
    with pytest.raises(ValueError, match="keys"):
        CoalitionFamily.from_json_dict({"n": 2})
    with pytest.raises(ValueError, match="integer"):
        CoalitionFamily.from_json_dict({"n": "2", "members": []})
    with pytest.raises(ValueError, match="list"):
        CoalitionFamily.from_json_dict({"n": 2, "members": [0]})
    with pytest.raises(ValueError, match="invalid JSON"):
        CoalitionFamily.from_json_dict("{oops")
    with pytest.raises(ValueError, match="^duplicate key 'members'$"):
        CoalitionFamily.from_json_dict('{"n": 2, "members": [[0]], "members": []}')
    with pytest.raises(ValueError, match=r"members\[1\]: voter must be an integer"):
        CoalitionFamily.from_json_dict({"n": 2, "members": [[0], [False]]})
    with pytest.raises(ValueError, match=r"members\[0\]: voter must be an integer"):
        CoalitionFamily.from_json_dict({"n": 2, "members": [[1.0]]})
    with pytest.raises(ValueError, match="at most 64"):
        CoalitionFamily.from_json_dict({"n": 65, "members": []})
    with pytest.raises(ValueError, match=r"^members\[0\]: voter 0 listed twice$"):
        CoalitionFamily.from_json_dict({"n": 3, "members": [[0, 0]]})
    with pytest.raises(ValueError, match=r"^members\[2\]: duplicate coalition$"):
        CoalitionFamily.from_json_dict({"n": 3, "members": [[0, 1], [2], [1, 0]]})
    assert CoalitionFamily.from_json_dict({"n": 64, "members": [[63]]}).masks == {1 << 63}
