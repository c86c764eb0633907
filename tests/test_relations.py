"""Weak-order axioms, enumeration counts and text forms.

The count and validity oracles here are deliberately naive: they
quantify the axioms directly over full truth tables, independently of
the scan order the library uses, so agreement is meaningful.
"""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrovian.relations import (
    MAX_ALTERNATIVES,
    AlternativeSet,
    BinaryRelation,
    PairStance,
    WeakOrder,
    default_labels,
    enumerate_linear_orders,
    enumerate_weak_orders,
    format_weak_order,
    ordered_pairs,
    pair_stance,
    parse_weak_order,
    to_canonical,
    unordered_pairs,
    validate_weak_order,
)
from swf_oracle import relation_from_pairs, strict_relation

# ordered Bell numbers and factorials, frozen
WEAK_ORDER_COUNTS = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541}
LINEAR_ORDER_COUNTS = {1: 1, 2: 2, 3: 6, 4: 24, 5: 120}


def naive_is_weak_order(h: tuple[tuple[bool, ...], ...]) -> bool:
    """Direct quantification of asymmetry and negative transitivity."""
    m = len(h)
    for x in range(m):
        for y in range(m):
            if h[x][y] and h[y][x]:
                return False
    for x in range(m):
        for y in range(m):
            for z in range(m):
                if not h[x][y] and not h[y][z] and h[x][z]:
                    return False
    return True


def all_relations(m: int):
    cells = [(x, y) for x in range(m) for y in range(m)]
    for bits in product((False, True), repeat=len(cells)):
        grid = [[False] * m for _ in range(m)]
        for (x, y), b in zip(cells, bits):
            grid[x][y] = b
        yield tuple(tuple(row) for row in grid)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumeration_count_matches_bruteforce_filter(m):
    expected = sum(1 for h in all_relations(m) if naive_is_weak_order(h))
    assert expected == WEAK_ORDER_COUNTS[m]
    assert len(enumerate_weak_orders(m)) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_linear_order_counts(m):
    assert len(enumerate_linear_orders(m)) == LINEAR_ORDER_COUNTS[m]


def test_weak_order_count_m5():
    assert len(enumerate_weak_orders(5)) == WEAK_ORDER_COUNTS[5]


def test_validator_agrees_with_naive_oracle_m3():
    for h in all_relations(3):
        assert validate_weak_order(BinaryRelation(h)).ok == naive_is_weak_order(h)


def test_enumerated_relations_are_exactly_the_valid_tables():
    for m in (1, 2, 3):
        enumerated = {strict_relation(w).holds for w in enumerate_weak_orders(m)}
        valid = {h for h in all_relations(m) if naive_is_weak_order(h)}
        assert enumerated == valid


def test_cycle_fails_o2_with_canonical_witness():
    rel = relation_from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    res = validate_weak_order(rel)
    assert not res.ok
    assert res.axiom == "O2"
    assert res.witness == (0, 1, 2)


def test_symmetric_edge_fails_o1():
    rel = relation_from_pairs(2, [(0, 1), (1, 0)])
    res = validate_weak_order(rel)
    assert (res.ok, res.axiom, res.witness) == (False, "O1", (0, 1))


def test_reflexive_edge_fails_o1_on_diagonal():
    rel = relation_from_pairs(2, [(1, 1)])
    res = validate_weak_order(rel)
    assert (res.axiom, res.witness) == ("O1", (1, 1))


def test_o2_witness_meaning():
    """The reported (a, b, c) satisfies aPb, not aPc, not cPb."""
    for h in all_relations(3):
        res = validate_weak_order(BinaryRelation(h))
        if res.axiom == "O2":
            a, b, c = res.witness
            assert h[a][b] and not h[a][c] and not h[c][b]


# --- consequences of O1 + O2, checked on every enumerated order ---------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lemma_disjunction(m):
    """x P z implies x P y or y P z, for every middle alternative y."""
    for w in enumerate_weak_orders(m):
        h = strict_relation(w).holds
        for x, y, z in product(range(m), repeat=3):
            if h[x][z]:
                assert h[x][y] or h[y][z]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lemma_transitivity(m):
    for w in enumerate_weak_orders(m):
        h = strict_relation(w).holds
        for x, y, z in product(range(m), repeat=3):
            if h[x][y] and h[y][z]:
                assert h[x][z]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lemma_mixed_strengthening(m):
    """(not yPx and yPz) or (xPy and not zPy) forces x P z."""
    for w in enumerate_weak_orders(m):
        h = strict_relation(w).holds
        for x, y, z in product(range(m), repeat=3):
            if (not h[y][x] and h[y][z]) or (h[x][y] and not h[z][y]):
                assert h[x][z]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_indifference_is_an_equivalence(m):
    for w in enumerate_weak_orders(m):
        h = strict_relation(w).holds

        def indiff(x, y):
            return not h[x][y] and not h[y][x]

        for x in range(m):
            assert indiff(x, x)
        for x, y, z in product(range(m), repeat=3):
            if indiff(x, y):
                assert indiff(y, x)
            if indiff(x, y) and indiff(y, z):
                assert indiff(x, z)


# --- canonical form ------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_to_canonical_round_trips(m):
    for w in enumerate_weak_orders(m):
        assert to_canonical(strict_relation(w)) == w


def test_to_canonical_rejects_invalid_relation():
    rel = relation_from_pairs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="O2"):
        to_canonical(rel)


def test_weak_order_normalizes_class_member_order():
    assert WeakOrder(((2, 0), (1,))) == WeakOrder(((0, 2), (1,)))


def test_weak_order_rejects_bad_partitions():
    with pytest.raises(ValueError):
        WeakOrder(((0,), (0, 1)))
    with pytest.raises(ValueError):
        WeakOrder(((0,), (2,)))
    with pytest.raises(ValueError):
        WeakOrder(((0,), ()))


# --- stances --------------------------------------------------------------


def test_pair_stance_examples():
    w = parse_weak_order("B>A~C")
    assert pair_stance(w, 1, 0) is PairStance.FIRST_PREFERRED
    assert pair_stance(w, 0, 1) is PairStance.SECOND_PREFERRED
    assert pair_stance(w, 0, 2) is PairStance.INDIFFERENT


def test_pair_stance_rejects_bad_pairs():
    w = parse_weak_order("A>B")
    with pytest.raises(ValueError):
        pair_stance(w, 0, 0)
    with pytest.raises(ValueError):
        pair_stance(w, 0, 2)


@given(st.integers(1, 4), st.data())
def test_pair_stance_flip_symmetry(m, data):
    w = data.draw(st.sampled_from(enumerate_weak_orders(m)))
    if m < 2:
        return
    x = data.draw(st.integers(0, m - 1))
    y = data.draw(st.integers(0, m - 1).filter(lambda v: v != x))
    assert pair_stance(w, x, y).flipped() is pair_stance(w, y, x)


def test_stance_flipped_involution():
    for s in PairStance:
        assert s.flipped().flipped() is s
    assert PairStance.INDIFFERENT.flipped() is PairStance.INDIFFERENT


def test_stance_from_name():
    assert PairStance.from_name("FIRST") is PairStance.FIRST_PREFERRED
    with pytest.raises(ValueError):
        PairStance.from_name("BOTH")


# --- enumeration order and ranges ----------------------------------------


def test_enumeration_is_deterministic_and_pinned():
    orders = enumerate_weak_orders(3)
    assert orders == enumerate_weak_orders(3)
    texts = [format_weak_order(w) for w in orders]
    assert texts[0] == "A>B>C"
    assert texts[-1] == "C>B>A"
    assert len(set(texts)) == 13


def test_linear_orders_are_subset_of_weak_orders():
    for m in (1, 2, 3, 4):
        weak = set(enumerate_weak_orders(m))
        for w in enumerate_linear_orders(m):
            assert w in weak
            assert all(len(c) == 1 for c in w.classes)


@pytest.mark.parametrize("m", [0, 6, -1])
def test_enumeration_range_errors(m):
    with pytest.raises(ValueError):
        enumerate_weak_orders(m)
    with pytest.raises(ValueError):
        enumerate_linear_orders(m)
    assert MAX_ALTERNATIVES == 5


def test_pair_helpers():
    assert ordered_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert unordered_pairs(3) == [(0, 1), (0, 2), (1, 2)]


# --- text form -------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_text_round_trip(m):
    for w in enumerate_weak_orders(m):
        assert parse_weak_order(format_weak_order(w)) == w


def test_parse_with_custom_labels():
    alts = AlternativeSet(3, ("ale", "brandy", "cider"))
    w = parse_weak_order("cider>ale~brandy", alts)
    assert w == WeakOrder(((2,), (0, 1)))
    assert format_weak_order(w, alts) == "cider>ale~brandy"


def test_parse_errors():
    with pytest.raises(ValueError, match="twice"):
        parse_weak_order("A>A~B", AlternativeSet(2))
    with pytest.raises(ValueError, match="missing"):
        parse_weak_order("A>B", AlternativeSet(3))
    with pytest.raises(ValueError, match="unknown"):
        parse_weak_order("A>B>Q", AlternativeSet(3))
    with pytest.raises(ValueError, match="empty"):
        parse_weak_order("A>>B")
    with pytest.raises(ValueError, match="default letters"):
        parse_weak_order("left>right")


def test_alternative_set_validation():
    with pytest.raises(ValueError):
        AlternativeSet(0)
    with pytest.raises(ValueError):
        AlternativeSet(2, ("A",))
    with pytest.raises(ValueError):
        AlternativeSet(2, ("A", "A"))
    with pytest.raises(ValueError):
        AlternativeSet(2, ("A", "B>C"))
    assert AlternativeSet(2).all_labels() == ("A", "B")
    assert default_labels(27)[26] == "x26"


def test_binary_relation_validation():
    with pytest.raises(ValueError):
        BinaryRelation(())
    with pytest.raises(ValueError):
        BinaryRelation(((False, True),))
    rel = relation_from_pairs(2, [(0, 1)])
    assert rel.edges() == [(0, 1)]
    assert rel.m == 2
