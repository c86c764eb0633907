"""Decisive-coalition extraction and the ultrafilter correspondence."""

import pytest

from arrovian import ks_bridge
from arrovian.filters import CoalitionFamily, classify, is_ultrafilter_complement
from arrovian.ks_bridge import (
    NotArrovianError,
    extract_decisive_family,
    swf_from_ultrafilter,
    verify_ks2,
)
from arrovian.profiles import Domain
from arrovian.relations import WeakOrder
from arrovian.swf import audit_columns
from arrovian.arrow_search import search_arrovian
from swf_oracle import constant_explicit, dictator_explicit, dictator_rules, principal


TIE_ALL = WeakOrder(((0, 1, 2),))


# --- extraction ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_linear_dictator_extracts_principal(n):
    for v in range(n):
        dec = extract_decisive_family(dictator_rules(v, 3, n, Domain.LINEAR))
        assert dec.family == principal(n, v)
        assert dec.provenance == f"pairwise-rule swf, m=3, n={n}, domain=linear"


@pytest.mark.parametrize("n", [1, 2])
def test_weak_dictator_extracts_principal(n):
    for v in range(n):
        dec = extract_decisive_family(dictator_explicit(v, 3, n, Domain.WEAK))
        assert dec.family == principal(n, v)


def test_non_arrovian_rule_is_refused_with_report():
    swf = constant_explicit(TIE_ALL, 2, Domain.LINEAR)
    with pytest.raises(NotArrovianError, match="a3") as exc_info:
        extract_decisive_family(swf)
    report = exc_info.value.report
    assert not report.a3
    assert report.a1 and report.a2


def test_diagnostic_extraction_of_constant_rule_is_empty():
    swf = constant_explicit(TIE_ALL, 2, Domain.LINEAR)
    _, k, facts = audit_columns(swf)
    dec = ks_bridge._decisive_family(swf, k, facts)
    assert dec.family.masks == frozenset()


def test_extraction_from_search_survivors():
    cert = search_arrovian(3, 2, Domain.LINEAR)
    for rec in cert.survivors:
        dec = extract_decisive_family(rec.swf)
        assert dec.family == principal(2, rec.dictator)


# --- rebuilding a rule from an ultrafilter ------------------------------------


@pytest.mark.parametrize("domain", [Domain.LINEAR, Domain.WEAK])
def test_principal_ultrafilter_reconstructs_the_dictator(domain):
    for v in range(2):
        u = principal(2, v)
        swf = swf_from_ultrafilter(u, 3, 2, domain)
        assert swf.verdicts == dictator_explicit(v, 3, 2, domain).verdicts


def test_round_trip_family_identity():
    for n in (1, 2, 3):
        for v in range(n):
            u = principal(n, v)
            assert is_ultrafilter_complement(u)
            swf = swf_from_ultrafilter(u, 3, n, Domain.LINEAR)
            assert extract_decisive_family(swf).family == u


def test_round_trip_on_weak_domain():
    for v in range(2):
        u = principal(2, v)
        swf = swf_from_ultrafilter(u, 3, 2, Domain.WEAK)
        assert extract_decisive_family(swf).family == u


def test_rebuild_rejects_bad_input():
    with pytest.raises(ValueError, match="does not match"):
        swf_from_ultrafilter(principal(3, 0), 3, 2, Domain.LINEAR)
    just_top = CoalitionFamily(2, frozenset({0b11}))
    with pytest.raises(ValueError, match="not an ultrafilter"):
        swf_from_ultrafilter(just_top, 3, 2, Domain.LINEAR)


# --- the finite consistency check ----------------------------------------------


def test_ks2_on_a_dictatorship():
    rep = verify_ks2(dictator_rules(1, 3, 2, Domain.LINEAR))
    assert rep.dictator == 1
    assert rep.classification.fixed
    assert rep.consistent
    assert rep.generator == frozenset({1})


def test_ks2_json_shape():
    doc = verify_ks2(dictator_rules(0, 3, 2, Domain.LINEAR)).to_json_dict()
    assert doc["dictator"] == 0
    assert doc["consistent"] is True
    assert doc["generator"] == [0]
    assert doc["classification"]["fixedness"] == "FIXED"
    assert doc["classification"]["is_ultrafilter"] is True
    assert "provenance" in doc


def test_every_two_voter_ultrafilter_is_principal_here():
    families = [
        fam
        for code in range(1 << 4)
        for fam in [CoalitionFamily(2, frozenset(i for i in range(4) if code >> i & 1))]
        if classify(fam).is_ultrafilter
    ]
    assert sorted(f.masks for f in families) == sorted(
        principal(2, v).masks for v in range(2)
    )
