"""Command-line behaviour: outputs, exit codes, manifests."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path
from random import Random

import pytest

import arrovian
import swf_oracle as oracle
from arrovian import cli, fc_infinite
from arrovian.arrow_search import SearchCertificate, SurvivorRecord, search_arrovian
from arrovian._util import canonical_json, sha256_hex
from arrovian.cli import RunContext, _build_parser, main
from arrovian.filters import CoalitionFamily
from arrovian.profiles import Domain, Profile, TriPartition
from arrovian.relations import WeakOrder, enumerate_weak_orders, format_weak_order
from arrovian.swf import ExplicitSwf, PairwiseRuleSwf, swf_to_json_dict
from swf_oracle import (
    borda_explicit,
    constant_explicit,
    constant_rules,
    dictator_explicit,
    dictator_rules,
    majority_rules,
)


def run(capsys, *argv):
    """Invoke the entry point and split stdout / manifest / other stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    manifest = json.loads(err_lines[-1])
    assert manifest["schema"] == "arrovian/manifest/v1"
    return code, captured.out, manifest, "\n".join(err_lines[:-1])


@pytest.fixture
def dictator_file(tmp_path):
    doc = swf_to_json_dict(dictator_rules(1, 3, 2, Domain.LINEAR))
    path = tmp_path / "dictator.json"
    path.write_text(canonical_json(doc))
    return str(path)


# --- orders ----------------------------------------------------------------


def test_orders_human(capsys):
    code, out, manifest, _ = run(capsys, "orders", "-m", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A>B>C"
    assert lines[-1] == "13 weak orders on 3 alternatives"
    assert manifest["command"] == "orders"
    assert len(manifest["outputs"]["stdout"]) == 64


def test_orders_linear_json(capsys):
    code, out, _, _ = run(capsys, "orders", "-m", "3", "--linear", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "arrovian/orders/v1"
    assert doc["count"] == 6
    assert doc["domain"] == "linear"
    assert "A~B>C" not in doc["orders"]


def test_orders_out_of_range(capsys):
    code, out, manifest, err = run(capsys, "orders", "-m", "9")
    assert code == 2
    assert out == ""
    assert "error:" in err and "between 1 and" in err
    assert manifest["command"] == "orders"


def test_repeated_runs_are_byte_identical(capsys):
    _, out_a, man_a, _ = run(capsys, "orders", "-m", "4", "--json")
    _, out_b, man_b, _ = run(capsys, "orders", "-m", "4", "--json")
    assert out_a == out_b
    assert man_a["outputs"]["stdout"] == man_b["outputs"]["stdout"]


def test_an_in_memory_stdout_takes_the_same_text_and_digest(capsys, tmp_path):
    """A redirected stdout gets the same text as the captured one, and the manifest names the
    same digest for it and for the certificate file, which holds that text as UTF-8."""
    cert = tmp_path / "cert.json"
    argv = ["arrow-search", "--voters", "2", "--domain", "linear", "--json", "--certificate", str(cert)]
    _, out, manifest, _ = run(capsys, *argv)
    memory = io.StringIO()
    with contextlib.redirect_stdout(memory):
        main(argv)
    again = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert memory.getvalue() == out == cert.read_text(encoding="utf-8")
    digest = sha256_hex(cert.read_bytes())
    assert again["outputs"] == manifest["outputs"] == {"stdout": digest, str(cert): digest}


# --- condorcet-demo -----------------------------------------------------------


def test_condorcet_demo_names_the_cycle(capsys):
    code, out, _, _ = run(capsys, "condorcet-demo")
    assert code == 0
    assert "majority relation: A>B, B>C, C>A" in out
    assert "weak-order check: FAIL (O2) witness (A,B,C)" in out


def test_condorcet_demo_json(capsys):
    code, out, _, _ = run(capsys, "condorcet-demo", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weak_order"] == "FAIL"
    assert doc["violated"] == "O2"
    assert doc["witness"] == ["A", "B", "C"]
    assert doc["verdict"] is None


def test_condorcet_demo_with_transitive_profile(capsys, tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"m": 3, "n": 2, "prefs": ["A>B>C", "A>B>C"]}))
    code, out, manifest, _ = run(capsys, "condorcet-demo", "--profile", str(path))
    assert code == 0
    assert "weak-order check: PASS" in out
    assert "verdict: A>B>C" in out
    assert str(path) in manifest["inputs"]


def test_condorcet_demo_bad_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"m": 3, "n": 2}))
    code, out, _, err = run(capsys, "condorcet-demo", "--profile", str(path))
    assert code == 2
    assert "prefs" in err


def test_condorcet_demo_rejects_m_out_of_range(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"m": 10**9, "n": 1, "prefs": ["A"]}))
    code, out, _, err = run(capsys, "condorcet-demo", "--profile", str(path))
    assert code == 2
    assert out == ""
    assert "wide.json: m: must be between 1 and 5, got 1000000000" in err


def test_condorcet_demo_rejects_an_empty_electorate(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"m": 3, "n": 0, "prefs": []}))
    code, out, _, err = run(capsys, "condorcet-demo", "--profile", str(path))
    assert code == 2
    assert out == ""
    assert "empty.json: n: need at least one voter, got 0" in err
    assert "Traceback" not in err


def test_condorcet_demo_json_is_the_margin_count(capsys, tmp_path):
    """Edges from the test's own margin count; the verdict is the weak order whose strict part they are, if any."""
    verdicts = set()
    for seed in range(8):
        rng = Random(seed)
        m, n = rng.randint(2, 5), rng.randint(1, 9)
        f = Profile(tuple(rng.choice(enumerate_weak_orders(m)) for _ in range(n)))
        path = tmp_path / f"profile{seed}.json"
        path.write_text(json.dumps(oracle.profile_to_json_dict(f)))
        code, out, _, _ = run(capsys, "condorcet-demo", "--profile", str(path), "--json")
        doc = json.loads(out)
        edges = oracle.majority_edges(f)
        assert code == 0
        assert doc["majority_edges"] == [["ABCDE"[x], "ABCDE"[y]] for x, y in edges]
        strict = {w: oracle.strict_relation(w).edges() for w in enumerate_weak_orders(m)}
        assert doc["verdict"] == next((format_weak_order(w) for w, e in strict.items() if e == edges), None)
        verdicts.add(doc["weak_order"])
    assert verdicts == {"PASS", "FAIL"}


# --- axioms ---------------------------------------------------------------------


def test_axioms_flags_the_dictator(capsys, dictator_file):
    code, out, _, _ = run(capsys, "axioms", "--swf", dictator_file)
    assert code == 1
    assert "a3 unanimity: PASS" in out
    assert "a5 non-dictatorship: FAIL" in out
    assert "dictator: voter 1" in out
    assert "verdict: FAIL [a5]" in out


def test_axioms_json_on_borda(capsys, tmp_path):
    path = tmp_path / "borda.json"
    path.write_text(canonical_json(swf_to_json_dict(borda_explicit(3, 2, Domain.LINEAR))))
    code, out, _, _ = run(capsys, "axioms", "--swf", str(path), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == "arrovian/axioms/v1"
    assert doc["axioms"]["a4"] == "FAIL"
    assert "a4" in doc["witnesses"]


def test_axioms_bad_swf_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _, err = run(capsys, "axioms", "--swf", str(path))
    assert code == 2
    assert "error:" in err


def _axioms_on(capsys, tmp_path, doc):
    path = tmp_path / "swf.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "axioms", "--swf", str(path))


def test_axioms_rejects_m_out_of_range(capsys, tmp_path):
    doc = {"kind": "explicit", "m": 6, "n": 2, "domain": "weak", "entries": []}
    code, out, _, err = _axioms_on(capsys, tmp_path, doc)
    assert code == 2
    assert out == ""
    assert "m: must be between 1 and 5, got 6" in err
    assert "Traceback" not in err


def test_axioms_rejects_n_below_one(capsys, tmp_path):
    doc = {"kind": "explicit", "m": 3, "n": 0, "domain": "weak", "entries": []}
    code, out, _, err = _axioms_on(capsys, tmp_path, doc)
    assert code == 2
    assert out == ""
    assert "n: need at least one voter, got 0" in err


@pytest.mark.parametrize("labels", ["ABC", [0, 1, 2]])
def test_axioms_rejects_labels_that_are_not_a_list_of_strings(capsys, tmp_path, labels):
    doc = swf_to_json_dict(dictator_rules(1, 3, 2, Domain.LINEAR))
    code, out, _, err = _axioms_on(capsys, tmp_path, {**doc, "labels": labels})
    assert code == 2
    assert out == ""
    assert "labels: must be a list of strings" in err


def test_axioms_rejects_a_huge_electorate(capsys, tmp_path):
    """Before a pairwise document is laid out, one byte per split, its domain's size is checked;
    the refusal names the file, as every other defect of a document does."""
    for m, body in product((1, 3), ({"kind": "explicit", "entries": []}, {"kind": "pairwise", "rules": {}})):
        doc = {"m": m, "n": 10**30, "domain": "weak", **body}
        code, out, _, err = _axioms_on(capsys, tmp_path, doc)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'swf.json'}: ")
        assert "over the budget" in err
        assert "Traceback" not in err


def test_axioms_rejects_a_tri_partition_that_is_not_three_lists(capsys, tmp_path):
    doc = swf_to_json_dict(dictator_rules(1, 3, 2, Domain.LINEAR))
    for cell in ([{"0": [0], "1": [1], "2": []}, "FIRST"], [[[0], [True], []], "FIRST"]):
        code, out, _, err = _axioms_on(capsys, tmp_path, {**doc, "rules": {"A,B": [cell]}})
        assert code == 2
        assert out == ""
        assert "rules['A,B'][0]: " in err
        assert "Traceback" not in err


@pytest.mark.parametrize("case", ["deep", "long int"])
@pytest.mark.parametrize(
    "argv",
    [["axioms", "--swf"], ["bridge", "ks2", "--swf"], ["condorcet-demo", "--profile"], ["filters", "--family"]],
)
def test_json_the_decoder_cannot_hold_exits_2(capsys, tmp_path, case, argv):
    if case == "deep":
        text, reason = "[" * 100_000 + "]" * 100_000, "nested too deeply"
    else:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integer literals of any length")
        text, reason = '{"n": ' + "1" * (limit + 1) + "}", "integer string conversion"
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert "doc.json: invalid JSON" in err and reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entry,kind",
    [([[5], "A>B>C"], "int"), ([["A>B>C"], 7], "int"), ([[["A"]], "A>B>C"], "list"), ([["A>B>C"], {}], "dict")],
)
def test_axioms_rejects_order_texts_that_are_not_strings(capsys, tmp_path, entry, kind):
    doc = {"kind": "explicit", "m": 3, "n": 1, "domain": "linear", "entries": [entry]}
    code, out, _, err = _axioms_on(capsys, tmp_path, doc)
    assert code == 2
    assert out == ""
    assert f"entries[0]: order must be a string, got {kind}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["axioms"], ["bridge", "extract"], ["bridge", "ks2"]])
def test_content_outside_the_declared_domain_exits_2(capsys, tmp_path, command):
    explicit = swf_to_json_dict(dictator_explicit(0, 3, 1, Domain.LINEAR))
    explicit["entries"].append([["A~B>C"], "C>B>A"])
    pairwise = swf_to_json_dict(dictator_rules(0, 3, 2, Domain.LINEAR))
    pairwise["rules"]["A,B"].append([[[0], [], [1]], "SECOND"])
    for doc, message in (
        (explicit, "entries[6]: profile outside the linear domain"),
        (pairwise, "rules['A,B'][4]: tri-partition outside the linear domain"),
    ):
        path = tmp_path / "swf.json"
        path.write_text(json.dumps(doc))
        code, out, _, err = run(capsys, *command, "--swf", str(path))
        assert code == 2
        assert out == ""
        assert f"swf.json: {message}" in err


# --- filters ----------------------------------------------------------------------


def test_filters_enumerate_human(capsys):
    code, out, _, _ = run(capsys, "filters", "--enumerate", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "3 filters on 2 voters"
    assert any("ultrafilter FIXED core={0}" in line for line in lines)


def test_filters_family_failure(capsys, tmp_path):
    fam = CoalitionFamily(2, frozenset({0b01, 0b10, 0b11}))
    path = tmp_path / "family.json"
    path.write_text(canonical_json(fam.to_json_dict()))
    code, out, _, _ = run(capsys, "filters", "--family", str(path))
    assert code == 1
    assert "filter axioms: FAIL (F2) witness ({0}, {1})" in out


def test_filters_enumerate_json(capsys):
    code, out, _, _ = run(capsys, "filters", "--enumerate", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "arrovian/filters/v1"
    assert doc["count"] == 7 == len(doc["filters"])


def test_filters_family_json(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 2, "members": [[0], [0, 1]]}))
    code, out, _, _ = run(capsys, "filters", "--family", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "arrovian/filter-check/v1"
    assert doc["members"] == [[0], [0, 1]]
    keys = {"is_filter", "violated", "witness", "is_ultrafilter", "fixedness", "core"}
    assert keys <= set(doc)
    assert (doc["is_filter"], doc["is_ultrafilter"], doc["fixedness"], doc["core"]) == (True, True, "FIXED", [0])


def test_filters_requires_a_mode(capsys):
    assert main(["filters"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("members", [[[0, "a"]], [[0], [True]]])
def test_filters_family_rejects_voters_that_are_not_integers(capsys, tmp_path, members):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 2, "members": members}))
    code, out, _, err = run(capsys, "filters", "--family", str(path))
    assert code == 2
    assert out == ""
    where = len(members) - 1
    assert f"family.json: members[{where}]: voter must be an integer" in err
    assert "Traceback" not in err


def test_filters_family_rejects_a_huge_ground_set(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 2**70, "members": [[0]]}))
    code, out, _, err = run(capsys, "filters", "--family", str(path))
    assert code == 2
    assert out == ""
    assert "n must be at most 64" in err


# --- bridge ----------------------------------------------------------------------


def test_bridge_extract_human(capsys, dictator_file):
    code, out, _, _ = run(capsys, "bridge", "extract", "--swf", dictator_file)
    assert code == 0
    assert "decisive family (2 coalitions): {1}, {0,1}" in out
    assert "ultrafilter: yes" in out
    assert "generator: voter 1" in out


def test_bridge_extract_refuses_borda(capsys, tmp_path):
    path = tmp_path / "borda.json"
    path.write_text(canonical_json(swf_to_json_dict(borda_explicit(3, 2, Domain.LINEAR))))
    code, out, _, _ = run(capsys, "bridge", "extract", "--swf", str(path))
    assert code == 1
    assert out.startswith("not arrovian:")


def test_bridge_ks2(capsys, dictator_file):
    code, out, _, _ = run(capsys, "bridge", "ks2", "--swf", dictator_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "arrovian/bridge-ks2/v1"
    assert doc["consistent"] is True
    assert doc["dictator"] == 1


def _pinned_document(name: str):
    """The SWF a pinned document holds: '<kind> <m> <n> <domain>' or a partial table."""
    if name == "partial explicit":
        # The dictator's table without its first profile's verdict.
        full = dictator_explicit(1, 3, 2, Domain.LINEAR)
        return ExplicitSwf(3, 2, Domain.LINEAR, dict(list(full.verdicts.items())[1:]))
    if name == "partial rules":
        # The dictator's rules without the cell of pair (A, B) at tri-partition code 0.
        rules = {pair: dict(table) for pair, table in dictator_rules(1, 3, 2, Domain.WEAK).rules.items()}
        del rules[(0, 1)][TriPartition.from_code(2, 0)]
        return PairwiseRuleSwf(3, 2, Domain.WEAK, rules)
    kind, m, n, domain = name.split()
    m, n, domain = int(m), int(n), Domain(domain)
    tied = WeakOrder(((1,), tuple(x for x in range(m) if x != 1)))
    return {
        "dictator-explicit": lambda: dictator_explicit(1, m, n, domain),
        "dictator-rules": lambda: dictator_rules(0, m, n, domain),
        "majority-rules": lambda: majority_rules(m, n, domain),
        "borda-explicit": lambda: borda_explicit(m, n, domain),
        "constant-explicit": lambda: constant_explicit(tied, n, domain),
        "constant-rules": lambda: constant_rules(tied, n, domain),
    }[kind]()


# sha256 per document of one line "<command> <exit code> <sha256 of stdout>"
# for each of axioms, bridge extract and bridge ks2, text then --json.
PINNED_AUDITS = {
    "dictator-explicit 3 2 linear": (
        "21692b52f5a945beff5fad9e14555c8aaa99eae360cd00ea9cd1bc648e792ff0"
    ),
    "dictator-explicit 3 3 weak": (
        "dac7caa8fcddfd8d4180ebf706cab30ab4fd79da4a07ed410092117906f4c39d"
    ),
    "dictator-explicit 4 2 weak": (
        "ec1d450f8d66448b1a49d431473b603867ad96d0c898bf7fd96ccd0137327451"
    ),
    "dictator-rules 3 2 linear": (
        "e70e8fe87e7ff7327c84a34d00c0c9b36abc79024198fc22fa8500b794e51401"
    ),
    "dictator-rules 3 3 weak": (
        "3d607e6c2fece64e29ef7e74a426b95f7775b3d9c89409e1b7c4792a23a26275"
    ),
    "dictator-rules 4 2 weak": (
        "cd1946f6dade79c7cfea96d7a10bbd7cb9f20959a04914f85dccb06e907edc11"
    ),
    "majority-rules 3 2 linear": (
        "0e0ac11897a9fe6446714d3405ccdcb62f49363df420f464ae0cab78fa638be9"
    ),
    "majority-rules 3 3 weak": (
        "0cf1d16d6a3d77576eb5feabf4c6488a1d3b4d21f7b270b2b316645b27947ef3"
    ),
    "majority-rules 4 2 weak": (
        "1517a4626cd2e9d0fd2db938c11b76be1f33c6dc7cfe0987fab42a67c6919856"
    ),
    "borda-explicit 3 2 linear": (
        "add211b10f6def593eabdb788f477d919b93c90ca02b4a7701c26e5592123908"
    ),
    "borda-explicit 3 3 weak": (
        "33b36f9018a585bf2ed3575c9dc55abd5ba681311d76325352ccfc0dfb0373b9"
    ),
    "borda-explicit 4 2 weak": (
        "05c29dabb5f05a8367195a132f5911f66ea43cebbed3215b8fa48d3de74ac904"
    ),
    "constant-explicit 3 2 linear": (
        "e306116e2c11b3c81f5fc6519d7071f8dbe2be0bf83c8fb3f82ceafcb055a0f0"
    ),
    "constant-explicit 3 3 weak": (
        "ab64ca0edd17b903f7c64b7844c4c8e6a61a21665552d7e3deae44f956818e66"
    ),
    "constant-explicit 4 2 weak": (
        "c4dbc3800de72802fefc07c5568e83c906ab29983c52072ce6e9d22d313e9bcb"
    ),
    "constant-rules 3 2 linear": (
        "fe7023e7ffa7ee87ec12208044eef429856462a242ca37b724489f5ac588bdc8"
    ),
    "constant-rules 3 3 weak": (
        "e535d7c66981f975aec6d0c7d38f084fb159dc9011c0138cf3e08137facc13d1"
    ),
    "constant-rules 4 2 weak": (
        "303e6b860df9584e29b5bfedf7f1b91c03d63272ede9450f345646a5a7bb25f1"
    ),
    "partial explicit": (
        "6d1637d2ef0d2a1f405a657737064e8396e24596a491c74fa61295f56cc81463"
    ),
    "partial rules": (
        "645b1d902d2ec43b6d57cc3fc67799986b645c0144a1911541c8e2bd2d4c3b27"
    ),
}


@pytest.mark.parametrize("name", PINNED_AUDITS)
def test_audit_output_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "swf.json").write_text(canonical_json(swf_to_json_dict(_pinned_document(name))))
    lines = []
    for command in (["axioms"], ["bridge", "extract"], ["bridge", "ks2"]):
        for fmt in ([], ["--json"]):
            argv = [*command, "--swf", "swf.json", *fmt]
            code = main(argv)
            lines.append(f"{' '.join(argv)} {code} {sha256_hex(capsys.readouterr().out)}\n")
    assert sha256_hex("".join(lines)) == PINNED_AUDITS[name]


# Input files of the pinned command lines below, written to the working directory.
_PINNED_INPUTS = {
    "labelled.json": {"m": 4, "n": 3, "labels": ["w", "x", "y", "z"], "prefs": ["w>x>y>z", "x>y>z>w", "y~z>w>x"]},
    "single.json": {"m": 1, "n": 2, "prefs": ["A", "A"]},
    "filter.json": {"n": 3, "members": [[1], [0, 1], [1, 2], [0, 1, 2]]},
    "not-upward.json": {"n": 3, "members": [[0], [0, 1]]},
    "empty.json": {"n": 2, "members": []},
}

_PINNED_COMMAND_LINES = {
    "orders": [f"orders -m {m}{linear}" for m in range(1, 6) for linear in ("", " --linear")],
    "condorcet-demo": [
        "condorcet-demo",
        "condorcet-demo --profile labelled.json",
        "condorcet-demo --profile single.json",
    ],
    "filters": [
        *(f"filters --enumerate {n}" for n in range(1, 5)),
        *(f"filters --family {name}" for name in ("filter.json", "not-upward.json", "empty.json")),
    ],
    "infinite-demo": [
        "infinite-demo",
        "infinite-demo --witness 7",
        "infinite-demo --dictator 3 --samples 50 --seed 9",
    ],
}

# sha256 per command of one line "<argv> <exit code> <sha256 of stdout>"
# for each of its command lines above, text then --json.
PINNED_COMMANDS = {
    "orders": (
        "50176cb0b5f2f63f9e393d6a621c7b55e5010864a58ed0dc9fcb76ed196c66fb"
    ),
    "condorcet-demo": (
        "3778954efbc67dbd9bdcf0dafb020eba38a1ca62885d7994795700873a9edc71"
    ),
    "filters": (
        "d9de25bcf574e3414b9c67be97dcbb24576b4a3ba3cc3264494a3513475346dc"
    ),
    "infinite-demo": (
        "21b03d3931b66b37e9ba5ae710fb7b267924910c92be0ca73274a7bf7476bb07"
    ),
}


@pytest.mark.parametrize("command", PINNED_COMMANDS)
def test_command_output_bytes_are_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in _PINNED_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    lines = []
    for line in _PINNED_COMMAND_LINES[command]:
        for fmt in ([], ["--json"]):
            argv = [*line.split(), *fmt]
            code = main(argv)
            lines.append(f"{' '.join(argv)} {code} {sha256_hex(capsys.readouterr().out)}\n")
    assert sha256_hex("".join(lines)) == PINNED_COMMANDS[command]


# --- arrow-search -------------------------------------------------------------------


def test_search_human_and_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, manifest, _ = run(
        capsys,
        "arrow-search",
        "--voters", "2",
        "--domain", "linear",
        "--certificate", str(cert_path),
    )
    assert code == 0
    assert "search m=3 n=2 domain=linear" in out
    assert "cells=12 (forced 6), space=531441" in out
    assert "survivors: 2, all dictatorial" in out
    assert str(cert_path) in manifest["outputs"]
    doc = json.loads(cert_path.read_text())
    assert doc["survivor_count"] == 2


def test_search_json_matches_certificate_file(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _, _ = run(
        capsys,
        "arrow-search",
        "--voters", "2",
        "--domain", "weak",
        "--certificate", str(cert_path),
        "--json",
    )
    assert code == 0
    assert out.encode("utf-8") == cert_path.read_bytes()


def test_a_certificate_is_written_without_its_whole_text(tmp_path):
    """The m=3 weak n=2 certificate, 2.2 MB of text, is rendered, hashed and written a slice at a
    time: tracemalloc's peak over the write stays under 1 MB."""
    cert = search_arrovian(3, 2, Domain.WEAK)
    ctx, path = RunContext("arrow-search", {}), str(tmp_path / "cert.json")
    tracemalloc.start()
    try:
        ctx.write_text(path, cert.json_slices())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) == 2_223_818
    assert ctx.outputs == {path: "9da50675d21a9c0b1c0bbf5e8b40af9cab73894073d0947a2885f6d2fef709a7"}
    assert peak < 1 << 20


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_certificate_write_that_fails_midway_exits_2(capsys):
    """The file opens, then a full device refuses the first slice while the rest is still to be
    rendered: an error line and the manifest, no traceback, and no digest named for the file."""
    argv = ["arrow-search", "--voters", "2", "--domain", "weak", "--certificate", "/dev/full"]
    code, out, manifest, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: cannot write /dev/full: No space left on device")
    assert manifest["outputs"] == {}


@pytest.mark.parametrize("argv", [["orders", "-m", "3"], ["arrow-search", "--voters", "2", "--domain", "linear"]])
def test_the_manifest_reports_the_peak_rss(capsys, argv):
    pytest.importorskip("resource")  # where it is missing, the manifest's peak_rss_kb is null
    peak = run(capsys, *argv)[2]["peak_rss_kb"]
    assert type(peak) is int and peak > 0


def test_the_manifest_reports_the_package_and_python_versions(capsys):
    versions = run(capsys, "orders", "-m", "3")[2]["versions"]
    assert sorted(versions) == ["arrovian", "python"]
    assert versions["arrovian"] == arrovian.__version__
    assert tuple(map(int, versions["python"].split("."))) == sys.version_info[:3]


@pytest.mark.parametrize("render", [[], ["--json"]])
def test_search_manifest_reports_phase_times(capsys, render):
    code, out, manifest, _ = run(capsys, "arrow-search", "--voters", "2", "--domain", "linear", *render)
    assert code == 0
    phases = manifest["phases"]
    assert sorted(phases) == ["audit_s", "build_s", "render_s", "search_s"]
    assert all(isinstance(s, float) and s >= 0 for s in phases.values())
    assert phases["build_s"] + phases["search_s"] + phases["audit_s"] <= manifest["wall_time_s"]
    if not render:
        assert phases["render_s"] == 0.0
    assert manifest["counters"] == {
        "nodes": 66, "leaves": 2, "pruned_events": 43, "survivors": 2, "distinct_columns": 6,
    }
    # other commands time their rendering, and reading their input file, and count nothing yet
    other = run(capsys, "orders", "-m", "3")[2]
    assert list(other["phases"]) == ["render_s"]
    assert other["counters"] == {}


def test_a_command_reading_a_file_times_its_parse_and_its_rendering(capsys, dictator_file, tmp_path):
    """An SWF command also times its audit, the bridge commands' coalition scan included."""
    for command, expected in ((["axioms"], 1), (["bridge", "extract"], 0), (["bridge", "ks2"], 0)):
        code, _, manifest, _ = run(capsys, *command, "--swf", dictator_file, "--json")
        assert code == expected
        phases = manifest["phases"]
        assert sorted(phases) == ["audit_s", "parse_s", "render_s"]
        assert all(isinstance(s, float) and s >= 0 for s in phases.values())
        assert phases["parse_s"] + phases["audit_s"] + phases["render_s"] <= manifest["wall_time_s"]
    # a refused document still reports the time spent reading it, and neither audits nor renders
    broken = tmp_path / "broken.json"
    broken.write_text('{"m": 3,')
    assert list(run(capsys, "axioms", "--swf", str(broken))[2]["phases"]) == ["parse_s"]


SEARCH_REFUSALS = [
    ("--alternatives 2 --voters 2", "the search needs 3 to 5 alternatives, got m=2"),
    ("--alternatives 6 --voters 2", "the search needs 3 to 5 alternatives, got m=6"),
    ("--voters 0", "need at least one voter, got n=0"),
    ("--voters 40", "40 voters: 2**40 coalitions, over the budget of 10000000"),
    ("--alternatives 5 --voters 4", "domain holds 207360000 profiles, over the budget of 10000000"),
    ("--voters 7", "domain holds 279936 profiles, over the search limit of 100000"),
    ("--voters 2 --max-nodes 5", "node budget 5 exhausted with the space not yet covered"),
    ("--voters 2 --max-nodes 0", "max_nodes must be at least 1, got 0"),
    ("--voters 2 --max-nodes -5", "max_nodes must be at least 1, got -5"),
]


def test_search_guardrails(capsys):
    """The m range, the size limits and the node budget exit 2 at once."""
    for args, message in SEARCH_REFUSALS:
        code, out, _, err = run(capsys, "arrow-search", *args.split(), "--domain", "linear")
        assert (code, out, err) == (2, "", f"error: {message}")
    code, _, _, err = run(capsys, "arrow-search", "--voters", "3", "--domain", "weak", "--max-nodes", "2000")
    assert (code, err) == (2, "error: node budget 2000 exhausted with the space not yet covered")
    # the largest weak size admitted at m=3 (243 cells) stops on the node
    # budget; one voter more is refused before anything is built
    code, _, _, err = run(capsys, "arrow-search", "--voters", "4", "--domain", "weak", "--max-nodes", "2000")
    assert (code, err) == (2, "error: node budget 2000 exhausted with the space not yet covered")
    code, _, _, err = run(capsys, "arrow-search", "--voters", "5", "--domain", "weak")
    assert (code, err) == (2, "error: domain holds 371293 profiles, over the search limit of 100000")
    code, _, _, err = run(capsys, "arrow-search", "--voters", "2", "--domain", "total")
    assert code == 2
    assert "unknown domain 'total'" in err


def test_search_budget_stop_reports_its_counters(capsys):
    """A run that ends on the node budget writes the counters and the phase it reached; stdout stays empty."""
    code, out, manifest, err = run(capsys, "arrow-search", "--voters", "2", "--domain", "weak", "--max-nodes", "2000")
    assert (code, out, err) == (2, "", "error: node budget 2000 exhausted with the space not yet covered")
    assert manifest["counters"] == {"nodes": 2000, "leaves": 90, "pruned_events": 1235}
    assert list(manifest["phases"]) == ["search_s"]
    assert manifest["phases"]["search_s"] > 0


def test_search_default_node_budget_and_ignored_allow_long(capsys):
    code, out, manifest, _ = run(capsys, "arrow-search", "--voters", "2", "--domain", "linear")
    assert code == 0
    assert manifest["parameters"]["max_nodes"] == 1_000_000
    assert "allow_long" not in manifest["parameters"]
    assert run(capsys, "arrow-search", "--voters", "2", "--domain", "linear", "--allow-long")[1] == out
    assert main(["arrow-search", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--max-nodes MAX_NODES" in help_text
    assert "--allow-long" not in help_text


def test_search_with_a_non_dictatorial_survivor_exits_1(capsys, monkeypatch):
    """A survivor with no dictator would refute Arrow's theorem at that size: the run says so and exits 1."""
    cert = search_arrovian(3, 2, Domain.LINEAR)
    first = cert.survivors[0]
    survivors = [SurvivorRecord(first.stances, None, first.m, first.n, first.domain), *cert.survivors[1:]]
    counts = (cert.cell_count, cert.forced_cells, cert.space, cert.explored_leaves, cert.pruned_events, cert.pruned_total)
    times = (cert.build_s, cert.audit_s, cert.distinct_columns)
    edited = SearchCertificate(cert.m, cert.n, cert.domain, *counts, cert.nodes, survivors, *times)
    monkeypatch.setattr(cli, "search_arrovian", lambda *args, **kwargs: edited)
    code, out, _, _ = run(capsys, "arrow-search", "--voters", "2", "--domain", "linear")
    assert code == 1
    lines = out.splitlines()
    assert "survivors: 2, 1 NON-DICTATORIAL" in lines
    assert "  survivor 0: dictator none" in lines
    assert "  survivor 1: dictator voter 0" in lines


def test_a_closed_stdout_exits_2_with_an_error_line_and_the_manifest():
    """A reader that stops after 10 bytes (`| head -c 10`) ends the run as any other refusal: no traceback."""
    src = str(Path(arrovian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "arrovian.cli", "arrow-search", "--voters", "2", "--domain", "weak", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b'{\n  "cells'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    lines = err.splitlines()
    assert code == 2
    assert len(lines) == 2
    assert lines[0] == "error: stdout was closed before the output was written"
    assert json.loads(lines[1])["schema"] == "arrovian/manifest/v1"


# --- infinite-demo ------------------------------------------------------------------


def test_infinite_demo_default(capsys):
    code, out, manifest, _ = run(capsys, "infinite-demo")
    assert code == 0
    assert "witness against voter 0: (fin{0}, cof{0}, fin{})" in out
    assert "overruled: yes" in out
    assert "verdict: PASS" in out
    assert manifest["seed"] == 0


def test_infinite_demo_witness_and_json(capsys):
    code, out, _, _ = run(capsys, "infinite-demo", "--witness", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["voter"] == 7
    assert doc["witness"]["overruled"] is True
    assert doc["axioms"]["failures"] == []
    assert doc["verdict"] == "PASS"


def test_infinite_demo_dictator_mode(capsys):
    code, out, _, _ = run(capsys, "infinite-demo", "--dictator", "3", "--seed", "11")
    assert code == 0
    assert "dictator rule for voter 3" in out
    assert "500 of 500 seeded coalitions agree (seed=11)" in out
    assert "verdict: PASS" in out


@pytest.mark.parametrize("mode", [(), ("--dictator", "3")])
def test_infinite_demo_rejects_negative_samples(capsys, mode):
    code, out, _, err = run(capsys, "infinite-demo", *mode, "--samples", "-5")
    assert code == 2
    assert out == ""
    assert "--samples must be at least 0, got -5" in err


def test_infinite_demo_has_no_frechet_flag(capsys):
    assert main(["infinite-demo", "--frechet"]) == 2
    assert "unrecognized arguments: --frechet" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, samples, expected",
    [((), "40", 200), ((), "0", 0), (("--dictator", "3"), "40", 40), (("--dictator", "3"), "0", 0)],
)
def test_infinite_demo_counts_its_seeded_coalitions(capsys, monkeypatch, mode, samples, expected):
    """The manifest's `coalitions` counter is the number of seeded coalitions the run drew."""
    drawn = []
    draw = fc_infinite._random_exceptions

    def counting(*args):
        drawn.append(None)
        return draw(*args)

    monkeypatch.setattr(fc_infinite, "_random_exceptions", counting)
    code, out, manifest, _ = run(capsys, "infinite-demo", *mode, "--samples", samples)
    assert code == 0
    assert "verdict: PASS" in out
    assert manifest["counters"] == {"coalitions": expected}
    assert len(drawn) == expected


@pytest.mark.parametrize(
    "member, failing",
    [(True, ["properness", "complement exclusivity"]),
     (False, ["upward closure", "intersection closure", "complement exclusivity", "freeness"])],
    ids=["everything", "nothing"],
)
def test_infinite_demo_exits_1_on_a_failed_spot_check(capsys, monkeypatch, member, failing):
    monkeypatch.setattr(fc_infinite, "decide_frechet_membership", lambda a: member)
    code, out, _, _ = run(capsys, "infinite-demo", "--samples", "5")
    assert code == 1
    lines = out.splitlines()
    assert "ultrafilter spot-check (seed=0, samples=5): FAIL" in lines
    assert [line.split(":")[0].strip() for line in lines if line.startswith("  ") and line.endswith(": FAIL")] == failing
    assert lines[-1] == "verdict: FAIL"


def test_infinite_demo_seeded_json_is_deterministic(capsys):
    args = ("infinite-demo", "--seed", "5", "--samples", "200", "--json")
    _, out_a, _, _ = run(capsys, *args)
    _, out_b, _, _ = run(capsys, *args)
    assert out_a == out_b


# --- the frame -----------------------------------------------------------------------


_EXPLICIT = {"kind": "explicit", "m": 3, "n": 1, "domain": "weak"}
_PAIRWISE = {"kind": "pairwise", "m": 3, "n": 1, "domain": "weak"}


@pytest.mark.parametrize(
    "argv,content,message",
    [
        (["axioms", "--swf", "{dir}"], None, "cannot read {dir}: Is a directory"),
        (["axioms", "--swf", "{file}"], b"\xff", "{file} is not UTF-8 text: invalid start byte"),
        (
            ["arrow-search", "--voters", "2", "--domain", "linear", "--certificate", "{dir}/missing/cert.json"],
            None,
            "cannot write {dir}/missing/cert.json: No such file or directory",
        ),
        (["filters", "--enumerate", "5"], None, "ground set size must be between 1 and 4, got 5"),
        (["infinite-demo", "--dictator", "-1"], None, "voter must be a natural number, got -1"),
        (["infinite-demo", "--witness", "-1"], None, "witness voter must be a natural number, got -1"),
        (["axioms", "--swf", "{file}"], {**_EXPLICIT, "entries": {}}, "{file}: entries must be a list"),
        (
            ["axioms", "--swf", "{file}"],
            {**_EXPLICIT, "entries": [[1]]},
            "{file}: entries[0]: expected [profile, verdict]",
        ),
        (["axioms", "--swf", "{file}"], {**_PAIRWISE, "rules": {"A": []}}, "{file}: rules key 'A': expected 'X,Y'"),
        (
            ["axioms", "--swf", "{file}"],
            {**_PAIRWISE, "rules": {"A,Z": []}},
            "{file}: rules key 'A,Z': unknown alternative label 'Z'",
        ),
        (
            ["axioms", "--swf", "{file}"],
            {**_PAIRWISE, "rules": {"A,B": {}}},
            "{file}: rules['A,B'] must be a list of [tri-partition, stance]",
        ),
        (
            ["axioms", "--swf", "{file}"],
            {**_PAIRWISE, "rules": {"A,B": [[1]]}},
            "{file}: rules['A,B'][0]: expected [tri-partition, stance]",
        ),
        (
            ["condorcet-demo", "--profile", "{file}"],
            {"m": 3, "n": 1, "prefs": [5]},
            "{file}: prefs[0]: must be an order string",
        ),
        (
            ["filters", "--family", "{file}"],
            {"n": 2, "members": [[0], [0, 5]]},
            "{file}: members[1]: voter 5 out of range for n=2",
        ),
        (
            ["filters", "--family", "{file}"],
            {"n": 0, "members": []},
            "{file}: ground set needs at least one voter, got n=0",
        ),
        (["axioms", "--swf", "{file}"], {**_PAIRWISE, "rules": []}, "{file}: rules must be an object keyed by pair"),
        (
            ["condorcet-demo", "--profile", "{file}"],
            {"m": 3, "n": 1, "prefs": "A>B>C"},
            "{file}: prefs: must be a list of order strings",
        ),
        (  # as sets, the parts [0, 0], [1], [] would partition the voters
            ["axioms", "--swf", "{file}"],
            {**_PAIRWISE, "n": 2, "rules": {"A,B": [[[[0, 0], [1], []], "FIRST"]]}},
            "{file}: rules['A,B'][0]: voter 0 listed twice",
        ),
        (
            ["axioms", "--swf", "{file}"],
            {**_EXPLICIT, "entries": [], "extra": 1},
            "{file}: unknown keys ['extra']",
        ),
        (
            ["axioms", "--swf", "{file}"],
            {**_PAIRWISE, "rules": {}, "entries": []},
            "{file}: unknown keys ['entries']",
        ),
        (  # as a set, [0, 0] would be the coalition {0}
            ["filters", "--family", "{file}"],
            {"n": 3, "members": [[0, 0]]},
            "{file}: members[0]: voter 0 listed twice",
        ),
        (
            ["filters", "--family", "{file}"],
            {"n": 3, "members": [[0, 1], [1, 0]]},
            "{file}: members[1]: duplicate coalition",
        ),
        (  # a repeated key, at any depth, is refused rather than read as its last value
            ["axioms", "--swf", "{file}"],
            b'{"kind": "pairwise", "m": 3, "n": 1, "domain": "weak", "rules": {"A,B": [], "A,B": []}}',
            "{file}: duplicate key 'A,B'",
        ),
        (
            ["condorcet-demo", "--profile", "{file}"],
            b'{"m": 3, "n": 1, "prefs": ["A>B>C"], "prefs": ["C>B>A"]}',
            "{file}: duplicate key 'prefs'",
        ),
        (["filters", "--family", "{file}"], b'{"n": 2, "members": [], "n": 3}', "{file}: duplicate key 'n'"),
    ],
)
def test_refused_input_exits_2_with_one_error_line(capsys, tmp_path, argv, content, message):
    file = tmp_path / "input.json"
    if content is not None:
        file.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    code = main([arg.format(dir=tmp_path, file=file) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error, manifest = captured.err.splitlines()  # no traceback, one manifest line
    assert error == "error: " + message.format(dir=tmp_path, file=file)
    assert json.loads(manifest)["schema"] == "arrovian/manifest/v1"


def test_unknown_subcommand(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_manifest_carries_parameters(capsys):
    _, _, manifest, _ = run(capsys, "orders", "-m", "3", "--json")
    assert manifest["parameters"]["alternatives"] == 3
    assert manifest["parameters"]["json"] is True
    assert "wall_time_s" in manifest


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def _parsed(parse, argv: list[str]):
    """What parse(argv) gives: the Namespace's fields or the exit code, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


HELP_PATHS = [[], *([c] for c in cli._COMMANDS), ["bridge", "extract"], ["bridge", "ks2"]]
PARSER_ARGVS = [
    *(path + [flag] for path in HELP_PATHS for flag in ("--help", "-h")),
    [],
    ["no-such-command"],
    ["orders"],  # a missing required flag
    ["bridge"],
    ["bridge", "ks2"],
    ["orders", "-m", "three"],  # a bad int
    ["orders", "-m", "3", "--bogus"],  # an unrecognized flag
    ["bridge", "extract", "--swf", "a.json", "extra"],
    ["orders", "--alt", "3", "--lin"],  # abbreviated flags
    ["filters", "--family", "f.json", "--enumerate", "3"],  # the mutually exclusive pair
    ["filters"],
    ["orders", "-m", "3", "--linear", "--json"],
    ["condorcet-demo", "--profile", "p.json"],
    ["axioms", "--swf", "s.json", "--json"],
    ["filters", "--enumerate", "2"],
    ["bridge", "ks2", "--swf", "s.json"],
    ["arrow-search", "--voters", "2", "--domain", "weak", "--allow-long", "--certificate", "c.json"],
    ["infinite-demo", "--dictator", "3", "--samples", "40"],
    ["-h", "orders"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_command_parsers_parse_as_the_full_tree(argv):
    """A command's own parser, with the full tree behind it, gives the full tree's Namespace, output and exit code."""
    assert _parsed(cli._parse, argv) == _parsed(_build_parser().parse_args, argv)


def test_a_command_line_naming_a_command_skips_the_full_tree(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("the full tree was built"))
    assert main(["orders", "-m", "1"]) == 0
    assert capsys.readouterr().out == "A\n1 weak orders on 1 alternatives\n"
    assert main(["bridge", "ks2", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: arrovian bridge ks2 [-h] --swf SWF [--json]")


def test_back_to_back_runs_share_no_state(capsys, tmp_path):
    _, _, first, _ = run(capsys, "infinite-demo", "--dictator", "3", "--json")
    code, out, second, _ = run(capsys, "infinite-demo", "--json")
    assert code == 0
    assert first["parameters"]["dictator"] == 3
    assert "dictator" not in second["parameters"]
    assert json.loads(out)["mode"] == "frechet"

    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 2, "members": [[0], [0, 1]]}))
    run(capsys, "filters", "--enumerate", "2")
    code, out, manifest, _ = run(capsys, "filters", "--family", str(path))
    assert code == 0
    assert out.startswith("family on n=2: {0}, {0,1}\n")
    assert "enumerate" not in manifest["parameters"]
    assert list(manifest["inputs"]) == [str(path)]

    _, out_json, _, _ = run(capsys, "orders", "-m", "2", "--json")
    _, out_text, manifest, _ = run(capsys, "orders", "-m", "2")
    assert out_json.startswith("{") and not out_text.startswith("{")
    assert manifest["parameters"]["json"] is False
