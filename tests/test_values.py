"""Value semantics of the package's record classes, and what importing a module loads.

Each record class is equal to another instance exactly when both are of
the same class and their compared fields are equal, and a hashable one
hashes as the tuple of those fields.  The fields are named here, so a
class that starts comparing another field, or stops comparing one, fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import arrovian
from arrovian.arrow_search import SearchCertificate, SearchProblem, SurvivorRecord, build_problem
from arrovian.cli import RunContext
from arrovian.fc_infinite import EventuallyConstantProfile, FcMode, FcSet, FcTriple, FrechetAxiomReport
from arrovian.filters import CoalitionFamily, FilterCheck, FilterClassification
from arrovian.kernel import DomainKernel, domain_kernel
from arrovian.ks_bridge import DecisiveFamily, Ks2Report
from arrovian.profiles import Domain, Profile, TriPartition
from arrovian.relations import AlternativeSet, BinaryRelation, ValidationResult, WeakOrder
from arrovian.swf import AxiomReport, CompositionFailure, IndependenceCheck, UnanimityCheck


def _order(*classes):
    return WeakOrder(tuple(map(tuple, classes)))


def _profile():
    return Profile((_order([0], [1], [2]), _order([2], [0, 1])))


def _family():
    return CoalitionFamily(2, frozenset({1, 3}))


def _classification():
    return FilterClassification(FilterCheck(True), False, True, frozenset({0}))


def _certificate(build_s=0.0, audit_s=0.0, distinct_columns=0):
    survivors = [SurvivorRecord(b"\x00\x01", 0, 3, 2, Domain.LINEAR)]
    return SearchCertificate(3, 2, Domain.LINEAR, 12, 2, 1024, 10, 30, 1014, 40, survivors,
                             build_s, audit_s, distinct_columns)


# (make, compared fields, hashable, a different instance of the class)
CASES = {
    "AlternativeSet": (lambda: AlternativeSet(3, ["A", "B", "C"]), ("m", "labels"), True, lambda: AlternativeSet(3)),
    "BinaryRelation": (
        lambda: BinaryRelation([[0, 1], [0, 0]]), ("holds",), True, lambda: BinaryRelation([[0, 0], [1, 0]])
    ),
    "ValidationResult": (
        lambda: ValidationResult(False, "O1", (0, 1)), ("ok", "axiom", "witness"), True, lambda: ValidationResult(True)
    ),
    "WeakOrder": (lambda: _order([1, 0], [2]), ("classes",), True, lambda: _order([0], [1, 2])),
    "Profile": (_profile, ("prefs",), True, lambda: Profile((_order([0, 1, 2]),))),
    "TriPartition": (
        lambda: TriPartition(3, {0}, {2}, {1}), ("n", "first", "second", "tie"), True,
        lambda: TriPartition(3, {2}, {0}, {1}),
    ),
    "CompositionFailure": (
        lambda: CompositionFailure(_profile(), BinaryRelation([[1]]), ValidationResult(False, "O1", (0, 0))),
        ("profile", "relation", "validation"), True,
        lambda: CompositionFailure(_profile(), BinaryRelation([[1]]), ValidationResult(False, "O2", (0, 0, 0))),
    ),
    "UnanimityCheck": (
        lambda: UnanimityCheck(False, _profile(), (0, 1)), ("ok", "profile", "pair"), True,
        lambda: UnanimityCheck(False, _profile(), (1, 0)),
    ),
    "IndependenceCheck": (
        lambda: IndependenceCheck(False, _profile(), _profile(), (0, 2)),
        ("ok", "profile_a", "profile_b", "pair", "by_construction"), True,
        lambda: IndependenceCheck(True, by_construction=True),
    ),
    "AxiomReport": (
        lambda: AxiomReport(True, True, True, True, False, 0, {"a5": {"dictator": 0}}),
        ("a1", "a2", "a3", "a4", "a5", "dictator", "witnesses"), False,
        lambda: AxiomReport(True, True, True, True, False, 0),
    ),
    "SearchProblem": (
        lambda: SearchProblem(3, 1, Domain.LINEAR, [(0, 1)], [0, 1], (), ((),), ((),), {0: 0}),
        ("m", "n", "domain", "pairs", "splits", "constraints", "watchers", "later", "forced"), False,
        lambda: SearchProblem(3, 1, Domain.LINEAR, [(0, 1)], [0, 1], (), ((),), ((),), {0: 1}),
    ),
    "SurvivorRecord": (
        lambda: SurvivorRecord(b"\x00\x01", 0, 3, 2, Domain.LINEAR), ("stances", "dictator", "m", "n", "domain"), True,
        lambda: SurvivorRecord(b"\x00\x01", 1, 3, 2, Domain.LINEAR),
    ),
    "SearchCertificate": (
        _certificate,
        ("m", "n", "domain", "cell_count", "forced_cells", "space", "explored_leaves", "pruned_events",
         "pruned_total", "nodes", "survivors"), False,
        lambda: SearchCertificate(3, 2, Domain.LINEAR, 12, 2, 1024, 10, 30, 1014, 40, []),
    ),
    "CoalitionFamily": (_family, ("n", "masks"), True, lambda: CoalitionFamily(2, frozenset({3}))),
    "FilterCheck": (
        lambda: FilterCheck(False, "F1", (frozenset({0}), frozenset({0, 1}))), ("ok", "axiom", "witness"), True,
        lambda: FilterCheck(False, "F3", (frozenset(),)),
    ),
    "FilterClassification": (
        _classification, ("filter_check", "is_ultrafilter", "fixed", "core"), True,
        lambda: FilterClassification(FilterCheck(True), True, True, frozenset({0})),
    ),
    "DecisiveFamily": (
        lambda: DecisiveFamily(_family(), "explicit swf"), ("family", "provenance"), False,
        lambda: DecisiveFamily(_family(), "pairwise-rule swf"),
    ),
    "Ks2Report": (
        lambda: Ks2Report(0, DecisiveFamily(_family(), "x"), _classification(), True, frozenset({0})),
        ("dictator", "family", "classification", "consistent", "generator"), False,
        lambda: Ks2Report(0, DecisiveFamily(_family(), "x"), _classification(), False, frozenset({0})),
    ),
    "FcSet": (lambda: FcSet(FcMode.FINITE, {2, 1}), ("mode", "exceptions"), True, lambda: FcSet.cofinite({1, 2})),
    "FcTriple": (
        lambda: FcTriple(FcSet.finite({0}), FcSet.finite({1}), FcSet.cofinite({0, 1})), ("first", "second", "tie"),
        True, lambda: FcTriple(FcSet.finite({1}), FcSet.finite({0}), FcSet.cofinite({0, 1})),
    ),
    "FrechetAxiomReport": (
        lambda: FrechetAxiomReport(0, 5, {"proper": True}, []), ("seed", "samples", "checks", "failures"), False,
        lambda: FrechetAxiomReport(1, 5, {"proper": True}, []),
    ),
    "EventuallyConstantProfile": (
        lambda: EventuallyConstantProfile(_order([0], [1]), ((4, _order([1], [0])), (2, _order([0, 1])))),
        ("tail", "overrides"), True,
        lambda: EventuallyConstantProfile(_order([0], [1]), ((4, _order([1], [0])),)),
    ),
    "RunContext": (
        lambda: RunContext("orders", {"alternatives": 3}),
        ("command", "parameters", "inputs", "outputs", "seed", "phases", "counters", "_parts"), False,
        lambda: RunContext("orders", {"alternatives": 3}, seed=0),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_records_compare_by_class_and_compared_fields(name):
    make, fields, hashable, other = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert a != other() and other() != a
    assert a != tuple(getattr(a, f) for f in fields)
    assert a != object() and a != None  # noqa: E711
    if hashable:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
        assert {a: 1}[b] == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_records_of_different_classes_are_never_equal():
    made = [make() for make, *_ in CASES.values()]
    for i, a in enumerate(made):
        for b in made[i + 1 :]:
            assert a != b and b != a
    # the same field values in two classes
    assert ValidationResult(True) != FilterCheck(True)
    assert UnanimityCheck(True) != FilterCheck(True)


def test_uncompared_fields_are_ignored():
    assert _certificate() == _certificate(build_s=1.5, audit_s=2.5, distinct_columns=7)
    w = _order([1, 0], [2])
    assert w.m == 3 and hash(w) == hash((w.classes,))
    t = TriPartition(2, {1}, {0}, set())
    assert t.code() == 1 and hash(t) == hash((2, frozenset({1}), frozenset({0}), frozenset()))


def test_weak_orders_stay_normalized():
    assert WeakOrder(((1, 0),)) == WeakOrder(((0, 1),))
    assert WeakOrder(((1, 0),)).classes == ((0, 1),)
    assert hash(WeakOrder(((2, 0), (1,)))) == hash(WeakOrder(((0, 2), (1,))))


def test_a_domain_kernel_equals_only_itself():
    k = domain_kernel(3, 1, Domain.LINEAR)
    names = ("m", "n", "domain", "orders", "pairs", "canonical", "slot", "order_codes", "tri", "_order_index")
    twin = DomainKernel(*(getattr(k, name) for name in names))
    assert k == k and k != twin
    assert hash(k) == object.__hash__(k)


def test_records_keep_constructor_defaults_and_keywords():
    assert AlternativeSet(2).labels is None
    assert (IndependenceCheck(True).pair, IndependenceCheck(True).by_construction) == (None, False)
    assert AxiomReport(True, True, True, True, True, None).witnesses == {}
    assert SearchCertificate(3, 1, Domain.WEAK, 0, 0, 1, 1, 0, 0, 1, []).build_s == 0.0
    assert build_problem(3, 1, Domain.LINEAR) == build_problem(3, 1, Domain.LINEAR)
    ctx = RunContext(command="orders", parameters={})
    assert (ctx.inputs, ctx.outputs, ctx.seed, ctx.phases, ctx.counters) == ({}, {}, None, {}, {})


@pytest.mark.parametrize(
    "module, loaded",
    [
        (
            "arrovian.cli",
            [
                "arrovian", "arrovian._util", "arrovian.arrow_search", "arrovian.cli", "arrovian.fc_infinite",
                "arrovian.filters", "arrovian.kernel", "arrovian.ks_bridge", "arrovian.profiles", "arrovian.relations",
                "arrovian.swf",
            ],
        ),
        ("arrovian", ["arrovian"]),
        ("arrovian.relations", ["arrovian", "arrovian._util", "arrovian.relations"]),
    ],
    ids=["arrovian.cli", "arrovian", "arrovian.relations"],
)
def test_importing_a_module_loads_only_what_it_uses(module, loaded):
    """A fresh import adds neither `dataclasses` nor `inspect` to `sys.modules`, and of the
    package only the module, its parents and what it imports: the root re-exports nothing."""
    src = str(Path(arrovian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        f"import sys; before = set(sys.modules); import {module}; added = set(sys.modules) - before; "
        "print(sorted({'dataclasses', 'inspect'} & added)); "
        "print(sorted(name for name in added if name.partition('.')[0] == 'arrovian'))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", str(loaded)]
