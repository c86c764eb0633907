"""Aggregation rules, the five-axiom audit and SWF serialization."""

import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrovian import swf as swf_module
from arrovian._util import canonical_json
from arrovian.kernel import MISSING, domain_kernel
from arrovian.profiles import (
    BudgetExceededError,
    Domain,
    Profile,
    ProfileFormatError,
    TriPartition,
    enumerate_profiles,
    enumerate_tripartitions,
    pair_partition,
    parse_profile_json,
    profile_from_texts,
)
from arrovian.relations import (
    AlternativeSet,
    PairStance,
    WeakOrder,
    enumerate_weak_orders,
    format_weak_order,
    parse_weak_order,
    unordered_pairs,
)
from arrovian.swf import (
    CompositionFailure,
    ExplicitSwf,
    PairwiseRuleSwf,
    SwfFormatError,
    check_independence,
    check_unanimity,
    derive_rules,
    expand_to_explicit,
    find_dictator,
    full_report,
    parse_swf_json,
    swf_to_json_dict,
)
from swf_oracle import (
    anti_dictator_explicit,
    anti_dictator_rules,
    borda_explicit,
    constant_explicit,
    constant_rules,
    dictator_explicit,
    dictator_rules,
    majority_rules,
    parse_pairwise_rules,
)

ABC = parse_weak_order("A>B>C")


# --- composition -------------------------------------------------------------


def test_dictator_rules_assemble_to_the_dictators_order():
    swf = dictator_rules(1, 3, 2, Domain.WEAK)
    for f in enumerate_profiles(swf.m, swf.n, swf.domain):
        assert swf.assemble(f) == f.prefs[1]


def test_majority_rules_hit_a_composition_failure():
    swf = majority_rules(3, 2, Domain.LINEAR)
    f = profile_from_texts(["A>B>C", "B>C>A"])
    out = swf.assemble(f)
    assert isinstance(out, CompositionFailure)
    assert out.validation.axiom == "O2"
    # the half-agreed pair (B, C) is decided, the crossed pairs tie
    assert out.relation.edges() == [(1, 2)]


def test_stance_flips_for_non_canonical_pair():
    swf = dictator_rules(0, 3, 2, Domain.LINEAR)
    f = profile_from_texts(["B>A>C", "A>B>C"])
    assert swf.stance(f, 0, 1) is PairStance.SECOND_PREFERRED
    assert swf.stance(f, 1, 0) is PairStance.FIRST_PREFERRED


def test_rule_stance_errors():
    swf = dictator_rules(0, 3, 2, Domain.LINEAR)
    t = pair_partition(profile_from_texts(["A>B>C", "A>B>C"]), 0, 1)
    with pytest.raises(ValueError, match="canonical"):
        swf.rule_stance((1, 0), t)
    with pytest.raises(LookupError, match="no rule table"):
        swf.rule_stance((0, 3), t)
    tie = TriPartition(2, frozenset(), frozenset(), frozenset({0, 1}))
    with pytest.raises(LookupError, match="no rule for pair"):
        swf.rule_stance((0, 1), tie)
    with pytest.raises(LookupError, match=r"^no rule for pair \(0, 1\) at tri-partition code 0$"):
        swf.rule_stance((0, 1), TriPartition.from_code(3, 0))


def test_an_absent_pair_and_an_empty_table_keep_their_errors():
    """A rule with no table for (1, 2) and an empty one for (0, 2) reads both as undefined, yet
    names them apart, lays them out as b"" and as MISSING, and writes both back as they were."""
    rules = {(0, 1): dict(dictator_rules(0, 3, 2, Domain.LINEAR).rules[(0, 1)]), (0, 2): {}}
    swf = PairwiseRuleSwf(3, 2, Domain.LINEAR, rules)
    assert swf.layout[1:] == (bytes([MISSING]) * 4, b"")
    t = pair_partition(profile_from_texts(["A>B>C", "A>B>C"]), 0, 1)
    with pytest.raises(LookupError, match=r"^no rule table for pair \(1, 2\)$"):
        swf.rule_stance((1, 2), t)
    with pytest.raises(LookupError, match=rf"^no rule for pair \(0, 2\) at tri-partition code {t.code()}$"):
        swf.rule_stance((0, 2), t)
    k = domain_kernel(3, 2, Domain.LINEAR)
    assert swf.stance_columns(k)[1:] == [bytes([MISSING]) * k.size] * 2
    report = full_report(swf)
    gap = "no rule for pair (0, 2) at tri-partition code 0"
    assert report.witnesses["a2"] == {"profile": k.profile(0), "error": gap}
    doc = swf_to_json_dict(swf)
    assert doc["rules"]["A,C"] == [] and "B,C" not in doc["rules"]
    back, _ = parse_swf_json(canonical_json(doc))
    assert back.rules == rules and back.layout == swf.layout
    assert full_report(back).to_json_dict() == report.to_json_dict()


def test_explicit_verdict_lookup_error():
    swf = dictator_explicit(0, 3, 2, Domain.LINEAR)
    tied = profile_from_texts(["A~B>C", "A>B>C"])
    with pytest.raises(LookupError):
        swf.verdict(tied)


# --- unanimity ----------------------------------------------------------------


def test_dictator_satisfies_unanimity():
    assert check_unanimity(dictator_explicit(0, 3, 2, Domain.WEAK)).ok


def test_anti_dictator_fails_unanimity_with_replayable_witness():
    swf = anti_dictator_explicit(0, 3, 2, Domain.LINEAR)
    res = check_unanimity(swf)
    assert not res.ok
    a, b = res.pair
    f = res.profile
    assert all(f.stance(v, a, b) is PairStance.FIRST_PREFERRED for v in range(swf.n))
    assert swf.stance(f, a, b) is not PairStance.FIRST_PREFERRED


def test_constant_rule_fails_unanimity():
    res = check_unanimity(constant_explicit(ABC, 2, Domain.LINEAR))
    assert not res.ok


def test_unanimous_indifference_is_unconstrained():
    """Only unanimous strict preference binds the verdict.

    A rule that answers FIRST whenever its single voter is indifferent
    is a tie-breaking dictatorship; it must still pass the unanimity
    check, and it survives the whole a1-a4 battery.
    """
    tris = {c: TriPartition.from_code(1, c) for c in range(3)}
    table = {
        tris[0]: PairStance.FIRST_PREFERRED,
        tris[1]: PairStance.SECOND_PREFERRED,
        tris[2]: PairStance.FIRST_PREFERRED,
    }
    swf = PairwiseRuleSwf(3, 1, Domain.WEAK, {pair: dict(table) for pair in unordered_pairs(3)})
    report = full_report(swf)
    assert report.arrovian()
    assert report.dictator == 0


# --- independence ---------------------------------------------------------------


def test_pairwise_rules_are_independent_by_construction():
    res = check_independence(majority_rules(3, 2, Domain.WEAK))
    assert res.ok and res.by_construction


def test_dictator_explicit_is_independent():
    res = check_independence(dictator_explicit(1, 3, 2, Domain.LINEAR))
    assert res.ok and not res.by_construction


def test_borda_fails_independence_with_replayable_witness():
    swf = borda_explicit(3, 2, Domain.LINEAR)
    res = check_independence(swf)
    assert not res.ok
    x, y = res.pair
    f, g = res.profile_a, res.profile_b
    assert all(f.stance(v, x, y) is g.stance(v, x, y) for v in range(swf.n))
    assert swf.stance(f, x, y) is not swf.stance(g, x, y)


# --- dictators -------------------------------------------------------------------


@pytest.mark.parametrize("v", [0, 1])
def test_find_dictator_on_dictatorships(v):
    assert find_dictator(dictator_explicit(v, 3, 2, Domain.LINEAR)) == v
    assert find_dictator(dictator_rules(v, 3, 2, Domain.WEAK)) == v


def test_find_dictator_negative_cases():
    assert find_dictator(anti_dictator_explicit(0, 3, 2, Domain.LINEAR)) is None
    assert find_dictator(constant_explicit(ABC, 2, Domain.LINEAR)) is None
    assert find_dictator(majority_rules(3, 2, Domain.LINEAR)) is None


def test_majority_with_one_voter_is_a_dictatorship():
    assert find_dictator(majority_rules(3, 1, Domain.WEAK)) == 0


# --- the full audit -----------------------------------------------------------------


def test_report_dictator():
    report = full_report(dictator_explicit(1, 3, 2, Domain.LINEAR))
    assert report.failed() == ["a5"]
    assert report.dictator == 1
    assert report.arrovian()
    assert report.witnesses["a5"] == {"dictator": 1}


def test_report_majority_three_voters_fails_totality():
    report = full_report(majority_rules(3, 3, Domain.LINEAR))
    assert report.failed() == ["a2"]
    witness = report.witnesses["a2"]
    assert witness["axiom"] == "O2"
    # the witness profile really is a majority cycle
    swf = majority_rules(3, 3, Domain.LINEAR)
    assert isinstance(swf.assemble(witness["profile"]), CompositionFailure)


def test_report_two_alternatives_fails_a1():
    report = full_report(dictator_explicit(0, 2, 2, Domain.LINEAR))
    assert "a1" in report.failed()
    assert not report.arrovian()


def test_report_borda():
    report = full_report(borda_explicit(3, 2, Domain.LINEAR))
    assert "a4" in report.failed()


def test_report_json_rendering():
    report = full_report(dictator_explicit(1, 3, 2, Domain.LINEAR))
    doc = report.to_json_dict()
    assert doc["axioms"] == {"a1": "PASS", "a2": "PASS", "a3": "PASS", "a4": "PASS", "a5": "FAIL"}
    assert doc["dictator"] == 1
    assert doc["witnesses"]["a5"] == {"dictator": 1}
    report2 = full_report(anti_dictator_explicit(0, 3, 2, Domain.LINEAR))
    doc2 = report2.to_json_dict()
    w = doc2["witnesses"]["a3"]
    assert isinstance(w["profile"], list) and all(isinstance(t, str) for t in w["profile"])
    assert w["pair"] == ["A", "B"]


def test_incomplete_explicit_table_fails_a2():
    complete = dictator_explicit(0, 3, 2, Domain.LINEAR)
    verdicts = dict(complete.verdicts)
    verdicts.pop(next(iter(verdicts)))
    report = full_report(ExplicitSwf(3, 2, Domain.LINEAR, verdicts))
    assert "a2" in report.failed()


def test_verdicts_is_a_read_only_view_of_the_domain_profiles():
    complete = dictator_explicit(0, 3, 2, Domain.LINEAR)
    f = next(iter(complete.verdicts))
    with pytest.raises(TypeError):
        del complete.verdicts[f]
    with pytest.raises(TypeError):
        complete.verdicts[f] = ABC
    # Profiles outside the domain (a weak ballot, a third voter) are dropped.
    outside = {profile_from_texts(["A~B>C", "A>B>C"]): ABC, profile_from_texts(["A>B>C"] * 3): ABC}
    swf = ExplicitSwf(3, 2, Domain.LINEAR, {**complete.verdicts, **outside})
    assert swf.verdicts == complete.verdicts
    assert full_report(swf).to_json_dict() == full_report(complete).to_json_dict()


def test_verdicts_reads_the_row_and_keeps_no_profiles():
    def profiles_alive() -> int:
        gc.collect()
        return sum(isinstance(o, Profile) for o in gc.get_objects())

    first, *rest = enumerate_profiles(3, 2, Domain.LINEAR)
    swf = ExplicitSwf(3, 2, Domain.LINEAR, {f: f.prefs[0] for f in rest})  # voter 0 dictates; one profile absent
    alive = profiles_alive()
    view = swf.verdicts
    assert len(view) == 35 and list(view) == rest
    assert dict(view.items()) == {f: f.prefs[0] for f in rest} == view
    assert view[rest[0]] == rest[0].prefs[0] and (rest[0], rest[0].prefs[0]) in view.items()
    for absent in (first, profile_from_texts(["A~B>C", "A>B>C"]), profile_from_texts(["A>B>C"] * 3), "A>B>C"):
        assert absent not in view and view.get(absent) is None
        with pytest.raises(KeyError):
            view[absent]
    assert profiles_alive() == alive


def test_pairwise_stance_columns_grow_with_the_domain_not_with_3_to_the_n():
    """An empty m=2 linear table at n=14 has 2**14 profiles but 3**14 tri-partition codes."""
    swf = PairwiseRuleSwf(2, 14, Domain.LINEAR, {})
    k = domain_kernel(2, 14, Domain.LINEAR)
    k.splits  # built with the kernel, outside the measurement
    tracemalloc.start()
    try:
        cols = swf.stance_columns(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [tuple(c) for c in cols] == [(3,) * 2**14]
    assert peak < 5 * 2**20


# --- representation changes ------------------------------------------------------------


def test_expand_then_derive_round_trip():
    rules = dictator_rules(1, 3, 2, Domain.WEAK)
    explicit = expand_to_explicit(rules)
    assert explicit.verdicts == dictator_explicit(1, 3, 2, Domain.WEAK).verdicts
    back = derive_rules(explicit)
    assert back.rules == rules.rules


def test_expand_reports_composition_failure():
    with pytest.raises(ValueError, match="do not assemble"):
        expand_to_explicit(majority_rules(3, 2, Domain.LINEAR))


def test_derive_rejects_dependent_rule():
    with pytest.raises(ValueError, match="independence fails"):
        derive_rules(borda_explicit(3, 2, Domain.LINEAR))


def test_constant_rules_assemble_to_the_constant():
    swf = constant_rules(parse_weak_order("B>A~C"), 2, Domain.LINEAR)
    for f in enumerate_profiles(swf.m, swf.n, swf.domain):
        assert swf.assemble(f) == parse_weak_order("B>A~C")


# --- JSON ---------------------------------------------------------------------------------


def test_explicit_json_round_trip():
    swf = dictator_explicit(1, 3, 2, Domain.LINEAR)
    doc = swf_to_json_dict(swf)
    assert doc["kind"] == "explicit"
    parsed, alts = parse_swf_json(json.dumps(doc))
    assert isinstance(parsed, ExplicitSwf)
    assert parsed.verdicts == swf.verdicts
    assert alts.all_labels() == ("A", "B", "C")


@pytest.mark.parametrize("domain", list(Domain))
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_domain_orders_are_sorted_by_classes(m, domain):
    """So enumeration order is the order of the explicit writer's entries."""
    orders = domain.orders(m)
    assert [w.classes for w in orders] == sorted(w.classes for w in orders)


@st.composite
def partial_tables(draw):
    """A random partial explicit table, with weak verdicts whatever the domain."""
    m, n, domain = draw(st.sampled_from([(3, 2, Domain.LINEAR), (3, 2, Domain.WEAK), (2, 3, Domain.WEAK)]))
    verdicts = st.sampled_from(enumerate_weak_orders(m))
    table = {f: draw(verdicts) for f in enumerate_profiles(m, n, domain) if draw(st.booleans())}
    return ExplicitSwf(m, n, domain, table)


@settings(max_examples=60, deadline=None)
@given(partial_tables(), st.booleans())
def test_explicit_json_round_trip_on_partial_tables(swf, labelled):
    alts = AlternativeSet(swf.m, ("P", "Q", "R")[: swf.m]) if labelled else AlternativeSet(swf.m)
    entries = sorted(swf.verdicts.items(), key=lambda kv: tuple(w.classes for w in kv[0].prefs))
    doc = swf_to_json_dict(swf, alts)
    assert doc["entries"] == [
        [[format_weak_order(w, alts) for w in f.prefs], format_weak_order(v, alts)] for f, v in entries
    ]
    text = canonical_json(doc)
    parsed, parsed_alts = parse_swf_json(text)
    assert parsed.verdicts == swf.verdicts
    assert canonical_json(swf_to_json_dict(parsed, parsed_alts)).splitlines(True) == text.splitlines(True)


@st.composite
def partial_rules(draw):
    """A random partial pairwise table: some pairs without a table, some splits without a rule."""
    m, n, domain = draw(st.sampled_from([(3, 2, Domain.LINEAR), (3, 2, Domain.WEAK), (2, 3, Domain.WEAK)]))
    stances = st.sampled_from(list(PairStance))
    tris = enumerate_tripartitions(n, domain)
    rules = {
        pair: {t: draw(stances) for t in tris if draw(st.booleans())}
        for pair in unordered_pairs(m)
        if draw(st.booleans())
    }
    return PairwiseRuleSwf(m, n, domain, rules)


@settings(max_examples=60, deadline=None)
@given(partial_rules(), st.booleans())
def test_pairwise_json_round_trip_on_partial_tables(swf, labelled):
    alts = AlternativeSet(swf.m, ("P", "Q", "R")[: swf.m]) if labelled else AlternativeSet(swf.m)
    text = canonical_json(swf_to_json_dict(swf, alts))
    parsed, parsed_alts = parse_swf_json(text)
    assert parsed.rules == swf.rules
    assert canonical_json(swf_to_json_dict(parsed, parsed_alts)).splitlines(True) == text.splitlines(True)
    with pytest.raises(TypeError):
        parsed.rules[(0, 1)] = {}


def test_pairwise_json_round_trip():
    swf = majority_rules(3, 2, Domain.WEAK)
    doc = swf_to_json_dict(swf)
    assert doc["kind"] == "pairwise"
    assert set(doc["rules"]) == {"A,B", "A,C", "B,C"}
    parsed, _ = parse_swf_json(doc)
    assert isinstance(parsed, PairwiseRuleSwf)
    assert parsed.rules == swf.rules


@pytest.mark.parametrize("m,domain", [(4, Domain.WEAK), (5, Domain.WEAK), (5, Domain.LINEAR)])
def test_explicit_parse_formats_each_weak_order_once(monkeypatch, m, domain):
    """One parse of a table in the writer's texts renders each weak order of m once, as ballot and verdict alike."""
    swf = dictator_explicit(0, m, 1, domain)
    doc, calls = swf_to_json_dict(swf), []
    monkeypatch.setattr(swf_module, "format_weak_order", lambda *args: calls.append(args) or format_weak_order(*args))
    parsed, _ = parse_swf_json(doc)
    assert len(calls) == len(enumerate_weak_orders(m))
    assert parsed.row == swf.row


@pytest.mark.parametrize(
    "swf",
    [
        majority_rules(3, 2, Domain.LINEAR),
        dictator_explicit(0, 3, 2, Domain.LINEAR),
        ExplicitSwf(3, 2, Domain.LINEAR, {}),
    ],
    ids=["pairwise", "explicit", "empty-explicit"],
)
def test_swf_json_refuses_labels_for_other_m(swf):
    """A label set that does not fit the SWF would give a document its own parser refuses."""
    with pytest.raises(ValueError, match="4 labels for an swf on m=3 alternatives"):
        swf_to_json_dict(swf, AlternativeSet(4))


def test_swf_json_is_deterministic():
    a = json.dumps(swf_to_json_dict(dictator_explicit(0, 3, 2, Domain.WEAK)), sort_keys=True)
    b = json.dumps(swf_to_json_dict(dictator_explicit(0, 3, 2, Domain.WEAK)), sort_keys=True)
    assert a == b


def test_swf_json_errors():
    with pytest.raises(SwfFormatError, match="kind"):
        parse_swf_json({"kind": "table", "m": 3, "n": 1, "domain": "weak"})
    with pytest.raises(SwfFormatError, match="missing"):
        parse_swf_json({"kind": "explicit", "m": 3, "n": 1})
    with pytest.raises(SwfFormatError, match="domain"):
        parse_swf_json({"kind": "explicit", "m": 3, "n": 1, "domain": "semi", "entries": []})
    with pytest.raises(SwfFormatError, match="invalid JSON"):
        parse_swf_json("{")
    with pytest.raises(SwfFormatError, match=r"^unknown keys \['extra'\]$"):
        parse_swf_json({"kind": "explicit", "m": 3, "n": 1, "domain": "weak", "entries": [], "extra": 1})
    with pytest.raises(SwfFormatError, match=r"^unknown keys \['entries'\]$"):  # once silently dropped
        parse_swf_json({"kind": "pairwise", "m": 3, "n": 1, "domain": "weak", "rules": {}, "entries": []})
    # a repeated key, at any depth, once kept its last value
    with pytest.raises(SwfFormatError, match=r"^duplicate key 'A,B'$"):
        parse_swf_json('{"kind": "pairwise", "m": 3, "n": 1, "domain": "weak", "rules": {"A,B": [], "A,B": []}}')
    with pytest.raises(SwfFormatError, match=r"^duplicate key 'm'$"):
        parse_swf_json('{"kind": "explicit", "m": 3, "n": 1, "domain": "weak", "entries": [], "m": 4}')
    with pytest.raises(SwfFormatError, match=r"^duplicate key 'x'$"):
        parse_swf_json('{"kind": "explicit", "m": 3, "n": 1, "domain": "weak", "entries": [{"x": 1, "x": 1}]}')

    base = {"kind": "pairwise", "m": 3, "n": 1, "domain": "weak"}
    with pytest.raises(SwfFormatError, match="canonical"):
        parse_swf_json({**base, "rules": {"B,A": []}})
    with pytest.raises(SwfFormatError, match="stance|INDIFFERENT"):
        parse_swf_json({**base, "rules": {"A,B": [[[[0], [], []], "MAYBE"]]}})
    with pytest.raises(SwfFormatError, match=r"^rules\['A,B'\]\[0\]: voter 0 listed twice$"):
        parse_swf_json({**base, "n": 2, "rules": {"A,B": [[[[0, 0], [1], []], "FIRST"]]}})
    with pytest.raises(SwfFormatError, match="duplicate tri-partition"):
        parse_swf_json(
            {
                **base,
                "rules": {"A,B": [[[[0], [], []], "FIRST"], [[[0], [], []], "SECOND"]]},
            }
        )

    dup = swf_to_json_dict(dictator_explicit(0, 3, 1, Domain.LINEAR))
    dup["entries"].append(dup["entries"][0])
    with pytest.raises(SwfFormatError, match="duplicate profile"):
        parse_swf_json(dup)


@pytest.mark.parametrize(
    "header, message",
    [
        ({"m": "3"}, "m: must be an integer"),
        ({"m": True}, "m: must be an integer"),
        ({"m": 6}, "m: must be between 1 and 5, got 6"),
        ({"n": 2.0}, "n: must be an integer"),
        ({"n": 0}, "n: need at least one voter, got 0"),
        ({"labels": None}, "labels: must be a list of strings"),
        ({"labels": ["A", "A", "C"]}, "labels: "),
    ],
)
def test_swf_and_profile_headers_fail_alike(header, message):
    """One header parser: the same defect gives the same located text."""
    swf_doc = {"kind": "explicit", "m": 3, "n": 1, "domain": "weak", "entries": [], **header}
    profile_doc = {"m": 3, "n": 1, "prefs": ["A>B>C"], **header}
    with pytest.raises(SwfFormatError) as swf_err:
        parse_swf_json(swf_doc)
    with pytest.raises(ProfileFormatError) as profile_err:
        parse_profile_json(profile_doc)
    assert str(swf_err.value) == str(profile_err.value)
    assert str(swf_err.value).startswith(message)
    assert swf_err.value.location == profile_err.value.location == message.split(":")[0]


_SWF_DOC = {"kind": "explicit", "m": 3, "n": 1, "domain": "weak", "entries": []}
_PROFILE_DOC = {"m": 3, "n": 1, "prefs": ["A>B>C"]}


@pytest.mark.parametrize(
    "parse, error, doc, key",
    [(parse_swf_json, SwfFormatError, _SWF_DOC, key) for key in ("m", "n", "domain")]
    + [(parse_profile_json, ProfileFormatError, _PROFILE_DOC, key) for key in ("m", "n", "prefs")],
    ids=["swf-m", "swf-n", "swf-domain", "profile-m", "profile-n", "profile-prefs"],
)
def test_swf_and_profile_documents_name_a_missing_key_alike(parse, error, doc, key):
    """Each parser's required keys: a missing one is located at the key, in one text for both parsers."""
    doc = dict(doc)
    del doc[key]
    with pytest.raises(error) as err:
        parse(doc)
    assert str(err.value) == f"{key}: required key missing"
    assert err.value.location == key


@pytest.mark.parametrize("bad", ["A>B>Z", "A>A>C", "A>B", ""])
def test_explicit_json_error_names_the_first_entry_with_a_bad_order(bad):
    """Each order text is parsed once per document; a repeat still fails where it first occurs."""
    doc = swf_to_json_dict(dictator_explicit(0, 3, 2, Domain.LINEAR))
    doc["entries"][4][1] = bad
    for i in (9, 17):
        doc["entries"][i][0][1] = bad
    with pytest.raises(ValueError) as direct:
        parse_weak_order(bad, AlternativeSet(3))
    with pytest.raises(SwfFormatError) as parsed:
        parse_swf_json(doc)
    assert str(parsed.value) == f"entries[4]: {direct.value}"


def test_explicit_json_names_the_entry_of_a_duplicate_profile():
    doc = swf_to_json_dict(dictator_explicit(0, 3, 2, Domain.LINEAR))
    doc["entries"].insert(7, doc["entries"][30])
    with pytest.raises(SwfFormatError, match=r"^entries\[31\]: duplicate profile$"):
        parse_swf_json(doc)


def test_explicit_json_reports_an_entry_defect_before_the_domain_size():
    doc = {"kind": "explicit", "m": 3, "n": 30, "domain": "linear", "entries": [[["A>B>C"], "A>B>C"]]}
    with pytest.raises(SwfFormatError, match=r"^entries\[0\]: profile must list 30 orders$"):
        parse_swf_json(doc)
    with pytest.raises(BudgetExceededError, match=r"^30 voters: 2\*\*30 coalitions"):
        parse_swf_json({**doc, "entries": []})


def test_explicit_json_refuses_a_profile_outside_the_domain():
    """A linear table may have weak verdicts, but not weak ballots."""
    doc = swf_to_json_dict(dictator_explicit(0, 3, 1, Domain.LINEAR))
    doc["entries"][2][1] = "A~B~C"
    assert parse_swf_json(doc)[0].verdicts[profile_from_texts(["B>A>C"])] == WeakOrder(((0, 1, 2),))
    doc["entries"].append([["A~B>C"], "C>B>A"])
    with pytest.raises(SwfFormatError, match=r"^entries\[6\]: profile outside the linear domain$"):
        parse_swf_json(doc)
    weak = {**doc, "domain": "weak"}
    assert len(parse_swf_json(weak)[0].verdicts) == 7


def counted_parses(monkeypatch) -> list[str]:
    """The texts `parse_swf_json` sends to `parse_weak_order`, in call order."""
    texts: list[str] = []

    def parse(text, alts=None):
        texts.append(text)
        return parse_weak_order(text, alts)

    monkeypatch.setattr(swf_module, "parse_weak_order", parse)
    return texts


@pytest.mark.parametrize(
    "swf", [dictator_explicit(1, 4, 2, Domain.WEAK), borda_explicit(3, 2, Domain.LINEAR)], ids=["m4-weak", "m3-linear"]
)
def test_explicit_json_reads_the_writers_texts_without_parsing_them(monkeypatch, swf):
    """Every text `swf_to_json_dict` emits is found among the texts the parser starts from."""
    texts = counted_parses(monkeypatch)
    parsed, _ = parse_swf_json(canonical_json(swf_to_json_dict(swf)))
    assert texts == []
    assert parsed.row == swf.row


def test_explicit_json_parses_each_unwritten_text_once(monkeypatch):
    """Spaces around ">" and class members out of index order read to the same row; each such text
    is parsed on its first occurrence and looked up after that."""
    swf = dictator_explicit(1, 3, 2, Domain.WEAK)
    doc = swf_to_json_dict(swf)
    written = {text for profile, verdict in doc["entries"] for text in (*profile, verdict)}
    spaced = {text: text.replace(">", " > ") for text in written}
    reordered = {text: text.replace("A~B", "B~A") for text in written}
    doc["entries"] = [[[spaced[t] for t in profile], reordered[v]] for profile, v in doc["entries"]]
    texts = counted_parses(monkeypatch)
    parsed, _ = parse_swf_json(doc)
    assert parsed.row == swf.row
    unwritten = {t for t in (*spaced.values(), *reordered.values()) if t not in written}
    assert sorted(texts) == sorted(unwritten)
    assert any("B~A" in t for t in texts) and any(" > " in t for t in texts)


def test_pairwise_json_refuses_a_tri_partition_outside_the_domain():
    doc = swf_to_json_dict(dictator_rules(0, 3, 2, Domain.LINEAR))
    doc["rules"]["A,B"].append([[[0], [], [1]], "SECOND"])
    with pytest.raises(SwfFormatError, match=r"^rules\['A,B'\]\[4\]: tri-partition outside the linear domain$"):
        parse_swf_json(doc)
    assert len(parse_swf_json({**doc, "domain": "weak"})[0].rules[(0, 1)]) == 5


def test_pairwise_rules_outside_the_domain_are_dropped():
    """A cell the audit never reads would give a document its own parser refuses."""
    rules = {pair: dict(table) for pair, table in dictator_rules(0, 3, 2, Domain.LINEAR).rules.items()}
    rules[(0, 1)][TriPartition(2, frozenset({0}), frozenset(), frozenset({1}))] = PairStance.SECOND_PREFERRED
    rules[(0, 2)][TriPartition.from_code(3, 0)] = PairStance.FIRST_PREFERRED
    rules[(1, 3)] = {}
    swf = PairwiseRuleSwf(3, 2, Domain.LINEAR, rules)
    assert swf.rules == dictator_rules(0, 3, 2, Domain.LINEAR).rules
    parsed, _ = parse_swf_json(canonical_json(swf_to_json_dict(swf)))
    assert parsed.rules == swf.rules


# --- pairwise JSON against the cell-by-cell reader -------------------------------------------


def outcome(read, doc):
    """What read(doc) gives, or the type, message and location of what it raises."""
    try:
        return read(doc)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "location", None)


def respelled(doc: dict) -> dict:
    """The document with each part's voters in descending order and each table's cells reversed."""

    def cell(t: list[list[int]], stance: str) -> list:
        return [[sorted(p, reverse=True) for p in t], stance]

    return {**doc, "rules": {key: [cell(*c) for c in cells[::-1]] for key, cells in doc["rules"].items()}}


PARITY_SIZES = [
    *((3, n, Domain.LINEAR) for n in (1, 2, 3)),
    *((3, n, Domain.WEAK) for n in (1, 2, 3)),
    *((4, n, Domain.WEAK) for n in (1, 2)),
    (5, 1, Domain.WEAK),
]


@pytest.mark.parametrize("m, n, domain", PARITY_SIZES, ids=[f"m{m}-{d.value}-n{n}" for m, n, d in PARITY_SIZES])
def test_pairwise_json_reads_the_layout_the_reference_lays_out(m, n, domain):
    """Each sample rule, as the writer spells it and re-spelled, reads to the layout the cell-by-cell reader gives."""
    rules = {
        "dictator": dictator_rules(n - 1, m, n, domain),
        "anti-dictator": anti_dictator_rules(0, m, n, domain),
        "constant": constant_rules(WeakOrder(((m - 1,), tuple(range(m - 1)))), n, domain),
        "majority": majority_rules(m, n, domain),
    }
    for kind, swf in rules.items():
        doc = swf_to_json_dict(swf)
        for spelling in (doc, respelled(doc)):
            parsed, _ = parse_swf_json(json.dumps(spelling))
            reference = parse_pairwise_rules(spelling)
            assert (parsed.m, parsed.n, parsed.domain) == (m, n, domain), kind
            assert parsed.layout == reference.layout == swf.layout, kind
    assert respelled(doc) != doc


# Each case puts a cell into the A,B table of the m=3 n=2 dictator document: in place of cell 1, or
# after the last, where a duplicate of the writer's cell [[0, 1], [], []] goes.
MALFORMED_CELLS = {
    "true voter": (Domain.WEAK, 1, [[[True], [0], []], "FIRST"]),
    "float voter": (Domain.WEAK, 1, [[[0.0], [1], []], "FIRST"]),
    "voter n": (Domain.WEAK, 1, [[[0], [2], []], "FIRST"]),
    "voter -1": (Domain.WEAK, 1, [[[-1], [1], []], "FIRST"]),
    "missing voter": (Domain.WEAK, 1, [[[0], [], []], "FIRST"]),
    "voter in two parts": (Domain.WEAK, 1, [[[0], [0, 1], []], "FIRST"]),
    "two parts": (Domain.WEAK, 1, [[[0], [1]], "FIRST"]),
    "four parts": (Domain.WEAK, 1, [[[0], [1], [], []], "FIRST"]),
    "part not a list": (Domain.WEAK, 1, [[[0], 1, []], "FIRST"]),
    "string tri-partition": (Domain.WEAK, 1, ["0,1", "FIRST"]),
    "dict tri-partition": (Domain.WEAK, 1, [{"first": [0, 1]}, "FIRST"]),
    "list stance": (Domain.WEAK, 1, [[[0], [1], []], ["FIRST"]]),
    "null stance": (Domain.WEAK, 1, [[[0], [1], []], None]),
    "unknown stance": (Domain.WEAK, 1, [[[0], [1], []], "MAYBE"]),
    "bad voter and unknown stance": (Domain.WEAK, 1, [[[0], [5], []], "MAYBE"]),
    "linear tie": (Domain.LINEAR, 1, [[[0], [], [1]], "FIRST"]),
    "duplicate as written": (Domain.WEAK, None, [[[0, 1], [], []], "SECOND"]),
    "duplicate re-spelled": (Domain.WEAK, None, [[[1, 0], [], []], "SECOND"]),
}


@pytest.mark.parametrize("domain, at, cell", MALFORMED_CELLS.values(), ids=MALFORMED_CELLS)
def test_pairwise_json_refuses_a_malformed_cell_as_the_reference_does(domain, at, cell):
    doc = swf_to_json_dict(dictator_rules(0, 3, 2, domain))
    cells = doc["rules"]["A,B"]
    at = len(cells) if at is None else at
    cells[at : at + 1] = [cell]  # past the last cell, this appends it
    expected = outcome(lambda d: parse_pairwise_rules(d).layout, doc)
    assert expected[0] is SwfFormatError and expected[1].startswith(f"rules['A,B'][{at}]: ")
    assert outcome(lambda d: parse_swf_json(d)[0].layout, doc) == expected
    assert outcome(lambda d: parse_swf_json(d)[0].layout, json.dumps(doc)) == expected


def test_pairwise_json_reports_a_bad_cell_before_the_profile_budget():
    """m=3 weak n=10 holds 13**10 profiles: a defective cell is named, a valid one ends on the budget."""
    cell = [[list(range(10)), [], []], "FIRST"]
    doc = {"kind": "pairwise", "m": 3, "n": 10, "domain": "weak", "rules": {"A,B": [cell]}}
    bad = {**doc, "rules": {"A,C": [cell, [[list(range(9)), [10], []], "FIRST"]]}}
    with pytest.raises(SwfFormatError, match=r"^rules\['A,C'\]\[1\]: parts must partition the voters 0..n-1$"):
        parse_swf_json(bad)
    with pytest.raises(BudgetExceededError, match=r"^domain holds 137858491849 profiles, over the budget of 10000000"):
        parse_swf_json(doc)


@pytest.mark.parametrize(
    "doc, layout",
    [
        ({"m": 2, "n": 14, "domain": "linear", "rules": {"A,B": []}}, (bytes([MISSING]) * 2**14,)),
        ({"m": 2, "n": 14, "domain": "weak", "rules": {}}, (b"",)),
        ({"m": 1, "n": 23, "domain": "weak", "rules": {}}, ()),
    ],
    ids=["m2-linear-n14", "m2-weak-n14", "m1-weak-n23"],
)
def test_pairwise_json_reads_a_large_sparse_document_in_small_memory(doc, layout):
    """Nothing is built per split but the layouts the document's tables ask for: 3**14 is 4.8 million
    splits and 3**23 is 94 billion."""
    tracemalloc.start()
    try:
        swf, _ = parse_swf_json({"kind": "pairwise", **doc})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert swf.layout == layout
    assert peak < 2**20


def test_pairwise_json_refuses_a_voter_far_past_a_small_cell_in_small_memory():
    """A cell that lists fewer voters than n is refused before any voter's bit is set: 2**29 would take 64 MB."""
    doc = {"kind": "pairwise", "m": 3, "n": 2**30, "domain": "weak", "rules": {"A,B": [[[[2**29], [], []], "FIRST"]]}}
    tracemalloc.start()
    try:
        with pytest.raises(SwfFormatError, match=r"^rules\['A,B'\]\[0\]: parts must partition the voters 0..n-1$"):
            parse_swf_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20

def test_verdict_of_weak_order_constructor():
    w = WeakOrder(((1,), (0, 2)))
    swf = constant_explicit(w, 1, Domain.LINEAR)
    for f in enumerate_profiles(swf.m, swf.n, swf.domain):
        assert swf.verdict(f) == w
