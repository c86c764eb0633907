"""Seeded operation lists for the four workloads.

`build(workload, seed, workdir)` writes every input file into `workdir`
and returns the operations as JSON-ready dicts.  A CLI operation holds
the `argv` for `arrovian.cli.main`, the expected exit code and a
`check` naming what the result must show; a library operation (the
`construct` workload) holds the parameters of one construct chain.
Expected answers come from `oracle`, never from the package.

The seed varies the content of each input (which voter dictates, the
labels, the constant order, profiles, families, operation order), never the
mix or the sizes, so that runs with different seeds do the same amount
of work and their times can be compared.
"""

from __future__ import annotations

import json
import os
from random import Random

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# (m, n, domain) of the SWF documents in `audit` and the chains in `construct`.
SIZES = ((3, 3, "weak"), (4, 2, "weak"), (3, 2, "linear"))


def _pins() -> dict:
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _op(label: str, argv: list[str], exit_code: int, check: str, **extra) -> dict:
    return {"label": label, "argv": argv, "exit": exit_code, "check": check, **extra}


def _pinned(op: dict, pins: dict) -> dict:
    """Attach the pinned digests of an operation whose argv is unseeded."""
    op["pin"] = op["label"] = " ".join(op["argv"])
    op["digests"] = pins.get(op["pin"], {})
    return op


def _write(workdir: str, name: str, doc) -> str:
    text = doc if isinstance(doc, str) else json.dumps(doc, separators=(",", ":"))
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _labels(rng: Random, m: int) -> list[str]:
    return rng.sample(LETTERS, m)


# -------------------------------------------------------------- search

# (voters, domain, extra flags, survivors, cells): survivors from
# Tang & Lin's base case (every survivor dictatorial); cells are
# 3 pairs times the reachable tri-partitions (2**n linear, 3**n weak).
LADDER = (
    (2, "linear", [], 2, 12),
    (3, "linear", ["--allow-long"], 3, 24),
    (2, "weak", [], 366, 27),
)


def _search(rng: Random, workdir: str, pins: dict) -> list[dict]:
    ops = []
    for n, domain, flags, survivors, cells in LADDER:
        cert = f"cert-{domain}-{n}.json"
        argv = ["arrow-search", "--voters", str(n), "--domain", domain, *flags, "--certificate", cert]
        op = _op(f"arrow-search {domain} n={n}", argv, 0, "search",
                 certificate=cert, survivors=survivors, cells=cells, n=n)
        ops.append(_pinned(op, pins))
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------- audit

KINDS = (
    ("explicit", "dictator"), ("explicit", "anti-dictator"), ("explicit", "constant"),
    ("explicit", "borda"), ("pairwise", "dictator"), ("pairwise", "anti-dictator"),
    ("pairwise", "constant"), ("pairwise", "majority"),
)
# Commands per document.  Every kind is audited at the two m=3 sizes;
# the bridge runs on the dictators (extraction proper) and on one
# non-Arrovian rule per form (the refusal path).  At m=4/n=2 one
# explicit dictator (a 200 kB table, the real independence pass and an
# extraction) and one pairwise rule keep the pass near ten seconds.
BRIDGE = {
    ((3, 2, "linear"), "explicit", "dictator"): ("extract", "ks2"),
    ((3, 2, "linear"), "explicit", "borda"): ("extract", "ks2"),
    ((3, 2, "linear"), "pairwise", "dictator"): ("extract", "ks2"),
    ((3, 2, "linear"), "pairwise", "majority"): ("extract", "ks2"),
    ((3, 3, "weak"), "explicit", "dictator"): ("extract",),
    ((3, 3, "weak"), "explicit", "borda"): ("extract",),
    ((3, 3, "weak"), "pairwise", "dictator"): ("ks2",),
    ((3, 3, "weak"), "pairwise", "majority"): ("ks2",),
    ((4, 2, "weak"), "explicit", "dictator"): ("extract",),
}
AUDIT_PLAN = tuple(
    (size, rep, kind, ("axioms",) + BRIDGE.get((size, rep, kind), ()))
    for size in ((3, 2, "linear"), (3, 3, "weak"))
    for rep, kind in KINDS
) + (
    ((4, 2, "weak"), "explicit", "dictator", ("axioms",) + BRIDGE[((4, 2, "weak"), "explicit", "dictator")]),
    ((4, 2, "weak"), "pairwise", "majority", ("axioms",)),
)
COMMANDS = {"axioms": ["axioms"], "extract": ["bridge", "extract"], "ks2": ["bridge", "ks2"]}


def _audit(rng: Random, workdir: str) -> list[dict]:
    ops = []
    for (m, n, domain), rep, kind, commands in AUDIT_PLAN:
        v = rng.randrange(n)
        const = rng.choice(oracle.weak_orders(m))
        doc = oracle.swf_document(kind, rep, m, n, domain, _labels(rng, m), v, const, rng)
        name = _write(workdir, f"swf-{rep}-{kind}-{m}-{n}-{domain}.json", doc)
        facts = {"failed": oracle.FAILED_AXIOMS[kind],
                 "dictator": v if kind == "dictator" else None,
                 "family": oracle.principal(n, v)}
        for command in commands:
            # Every total SWF on three alternatives fails some axiom (exit 1);
            # the bridge succeeds on a dictator and refuses the rest.
            code = 1 if command == "axioms" or kind != "dictator" else 0
            argv = [*COMMANDS[command], "--swf", name, "--json"]
            ops.append(_op(f"{' '.join(COMMANDS[command])} {rep} {kind} m={m} n={n} {domain}",
                           argv, code, command, **facts))
    ops += _malformed_swf(rng, workdir)
    rng.shuffle(ops)
    return ops


def _malformed_swf(rng: Random, workdir: str) -> list[dict]:
    """Malformed SWF documents; each must end with exit 2.

    The first three are known defects of the parser (an out-of-range m
    or n escapes as a traceback, a label string is split into letters);
    they fail until the parser rejects them, and count in pass_share.
    """
    labels = _labels(rng, 3)
    good = oracle.swf_document("dictator", "explicit", 3, 2, "linear", labels,
                               rng.randrange(2), oracle.weak_orders(3)[0], rng)
    cases = [
        ("m=6", {"kind": "explicit", "m": 6, "n": 2, "domain": "weak", "entries": []}, True),
        ("n=0", {"kind": "explicit", "m": 3, "n": 0, "domain": "weak", "entries": []}, True),
        ("labels string", {**good, "labels": "".join(labels)}, True),
        ("bad JSON", json.dumps(good)[: 40 + rng.randrange(40)], False),
        ("unknown domain", {**good, "domain": "cardinal"}, False),
        ("unknown kind", {**good, "kind": "implicit"}, False),
        ("repeated label", {**good, "entries": [[good["entries"][0][0], f"{labels[0]}>{labels[0]}"]]
                            + good["entries"][1:]}, False),
    ]
    ops = []
    for i, (what, doc, defect) in enumerate(cases):
        name = _write(workdir, f"malformed-{i}.json", doc)
        ops.append(_op(f"axioms malformed {what}", ["axioms", "--swf", name], 2, "exit", defect=defect))
    ops.append(_op("axioms missing file", ["axioms", "--swf", "absent.json"], 2, "exit", defect=False))
    return ops


# ------------------------------------------------------------- lattice


def _lattice(rng: Random, workdir: str, pins: dict) -> list[dict]:
    ops = []
    for m in range(1, 6):
        for domain, flags in (("weak", []), ("linear", ["--linear"])):
            argv = ["orders", "-m", str(m), *flags]
            ops.append(_pinned(_op(f"orders {domain}", argv, 0, "orders", m=m, domain=domain), pins))
    for n in range(1, 5):
        argv = ["filters", "--enumerate", str(n)]
        ops.append(_pinned(_op("filters --enumerate", argv, 0, "enumerate", n=n), pins))
    ops.append(_pinned(_op("condorcet-demo", ["condorcet-demo"], 0, "condorcet-builtin"), pins))
    ops.append(_pinned(_op("infinite-demo", ["infinite-demo"], 0, "infinite-text"), pins))

    for i in range(40):
        m, n = 2 + i % 4, 1 + i % 9
        profile = tuple(rng.choice(oracle.weak_orders(m)) for _ in range(n))
        labels = _labels(rng, m)
        name = _write(workdir, f"profile-{i}.json",
                      {"m": m, "n": n, "labels": labels,
                       "prefs": [oracle.text(o, labels) for o in profile]})
        beats = oracle.majority(profile, m)
        order = oracle.from_relation(m, beats)
        ops.append(_op("condorcet-demo --profile", ["condorcet-demo", "--profile", name, "--json"], 0,
                       "condorcet", edges=sorted([labels[x], labels[y]] for x, y in beats),
                       verdict=None if order is None else oracle.text(order, labels)))

    for i in range(30):
        n = 1 + i % 4
        full = (1 << n) - 1
        if i % 2:
            core = 1 + rng.randrange(full)
            masks = {a for a in range(full + 1) if a & core == core}
        else:
            masks = {a for a in range(full + 1) if rng.random() < 0.5}
        members = [[v for v in range(n) if a >> v & 1] for a in sorted(masks)]
        rng.shuffle(members)
        name = _write(workdir, f"family-{i}.json", {"n": n, "members": members})
        facts = oracle.filter_facts(n, masks)
        ops.append(_op("filters --family", ["filters", "--family", name, "--json"],
                       0 if facts["is_filter"] else 1, "family", **facts))

    for i in range(8):
        seed, samples = str(rng.randrange(10**6)), str(100 + 25 * i)
        ops.append(_op("infinite-demo frechet",
                       ["infinite-demo", "--seed", seed, "--samples", samples,
                        "--witness", str(rng.randrange(1000)), "--json"], 0, "infinite"))
        ops.append(_op("infinite-demo dictator",
                       ["infinite-demo", "--dictator", str(rng.randrange(200)), "--seed", seed,
                        "--samples", samples, "--json"], 0, "infinite"))

    ops += _malformed_cli(rng, workdir)
    rng.shuffle(ops)
    return ops


def _malformed_cli(rng: Random, workdir: str) -> list[dict]:
    """Out-of-range flags and bad profiles; each must end with exit 2.

    `--samples` below zero is a known defect: the demo reports PASS on
    zero samples and exits 0.
    """
    bad_json = _write(workdir, "profile-bad.json", '{"m": 3, "n": 2, "prefs": ["A>B>C"')
    bad_label = _write(workdir, "profile-label.json", {"m": 3, "n": 1, "prefs": ["A>B>Z"]})
    cases = [
        (["infinite-demo", "--samples", str(-1 - rng.randrange(9))], True),
        (["orders", "-m", "6"], False),
        (["orders", "-m", "0"], False),
        (["filters", "--enumerate", "5"], False),
        (["condorcet-demo", "--profile", bad_json], False),
        (["condorcet-demo", "--profile", bad_label], False),
        (["infinite-demo", "--witness", str(-1 - rng.randrange(9))], False),
        (["infinite-demo", "--dictator", str(-1 - rng.randrange(9))], False),
    ]
    return [_op(f"malformed {argv[0]}", argv, 2, "exit", defect=defect) for argv, defect in cases]


# ----------------------------------------------------------- construct


def _construct(rng: Random, workdir: str) -> list[dict]:
    """One chain per size and rule kind, plus Fréchet verdict batches.

    A chain parses a pairwise document, expands it to a verdict table,
    derives the rules back, builds the same table from the principal
    ultrafilter of the rule's voter (dictators only), and round-trips
    the table through JSON.  A Borda chain parses an explicit document
    and expects `derive_rules` to refuse it, since Borda is not
    independent.
    """
    ops = []
    for m, n, domain in SIZES:
        for kind in ("dictator", "anti-dictator"):
            v = rng.randrange(n)
            labels = _labels(rng, m)
            doc = oracle.swf_document(kind, "pairwise", m, n, domain, labels, v, (), rng)
            name = _write(workdir, f"rules-{kind}-{m}-{n}-{domain}.json", doc)
            ops.append({"label": f"chain {kind} m={m} n={n} {domain}", "chain": "rules",
                        "file": name, "kind": kind, "m": m, "n": n, "domain": domain, "v": v})
        labels = _labels(rng, m)
        doc = oracle.swf_document("borda", "explicit", m, n, domain, labels, 0, (), rng)
        name = _write(workdir, f"borda-{m}-{n}-{domain}.json", doc)
        ops.append({"label": f"chain borda m={m} n={n} {domain}", "chain": "borda",
                    "file": name, "m": m, "n": n, "domain": domain})
    for i in range(8):
        m = 3 + i % 3
        profiles = []
        for _ in range(25):
            voters = rng.sample(range(200), rng.randrange(7))
            profiles.append({"tail": rng.choice(oracle.weak_orders(m)),
                             "overrides": [[u, rng.choice(oracle.weak_orders(m))] for u in voters]})
        ops.append({"label": f"frechet_verdict m={m}", "chain": "frechet", "profiles": profiles})
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    rng = Random(f"{workload}/{seed}")
    if workload == "search":
        return _search(rng, workdir, _pins())
    if workload == "audit":
        return _audit(rng, workdir)
    if workload == "lattice":
        return _lattice(rng, workdir, _pins())
    if workload == "construct":
        return _construct(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("search", "audit", "lattice", "construct")
