"""Command-line surface for batch verification, search and demonstrations.

Subcommands:

  orders          enumerate weak or linear orders
  condorcet-demo  the three-voter majority cycle, or a profile from a file
  axioms          five-axiom audit of an SWF document
  filters         classify a coalition family, or enumerate all filters
  bridge          decisive-family extraction and the dictator correspondence
  arrow-search    complete search of the pairwise-rule space
  infinite-demo   the finite-or-cofinite electorate rules

Exit codes: 0 when every check performed passed, 1 when a verification
produced a genuine FAIL verdict (so CI can gate on it), 2 on usage,
range, budget and parse errors.  Note that `axioms` exits 1 for every
total SWF on three or more alternatives with at least two voters: one
of the five axioms always fails, which is the point of the exercise.

Every run prints one manifest line to stderr recording the command, its
parameters, a sha256 digest of each input and output (stdout included),
the wall time, per-phase times and the seed where one is used.  Stdout
for a given command line and seed is byte-stable, so the digests make
any published number regenerable by a single command.  JSON documents
carry a versioned "schema" key of the form "arrovian/<kind>/v1".
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from random import Random

from ._util import canonical_json, sha256_hex, slices
from .arrow_search import DEFAULT_MAX_NODES, SearchIncompleteError, search_arrovian
from .fc_infinite import (
    decisive_coalition_test,
    dictator_rule,
    dictator_stance,
    fc_member,
    format_fc,
    frechet_stance,
    non_dictatorship_witness,
    random_fc_set,
    validate_fc_filter_axioms,
)
from .filters import MAX_GROUND, CoalitionFamily, classify, enumerate_filters
from .kernel import compose, majority_codes
from .ks_bridge import NotArrovianError, extract_decisive_family, verify_ks2
from .profiles import (
    BudgetExceededError,
    Domain,
    ProfileFormatError,
    condorcet_profile,
    parse_profile_json,
)
from .relations import (
    MAX_ALTERNATIVES,
    AlternativeSet,
    PairStance,
    format_weak_order,
)
from .swf import SwfFormatError, full_report, parse_swf_json


class CliError(Exception):
    """Anything that should stop the run with a usage-class exit code."""

    def __init__(self, message: str, exit_code: int = 2):
        self.exit_code = exit_code
        super().__init__(message)


@dataclass
class RunContext:
    """Collects stdout and digests so the manifest can be emitted last."""

    command: str
    parameters: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    seed: int | None = None
    phases: dict[str, float] = field(default_factory=dict)
    _parts: list[str] = field(default_factory=list)

    def say(self, text: str) -> None:
        self._parts.append(text)

    def read_text(self, path: str) -> str:
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
        self.inputs[path] = sha256_hex(raw)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CliError(f"{path} is not UTF-8 text: {exc.reason}") from None

    def write_text(self, path: str, text: str) -> None:
        try:
            with open(path, "w", encoding="utf-8") as out:
                out.writelines(slices(text))  # encoded a slice at a time, like the digest below
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None
        self.outputs[path] = sha256_hex(text)

    def flush(self) -> None:
        text = "".join(self._parts)
        self.outputs["stdout"] = sha256_hex(text)
        sys.stdout.writelines(slices(text))
        sys.stdout.flush()

    def manifest_line(self, wall_time_s: float) -> str:
        doc = {
            "schema": "arrovian/manifest/v1",
            "command": self.command,
            "parameters": self.parameters,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "wall_time_s": round(wall_time_s, 6),
            "seed": self.seed,
            "phases": {name: round(s, 6) for name, s in self.phases.items()},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _set_text(s) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def _family_text(fam: CoalitionFamily) -> str:
    return "{" + ", ".join(_set_text(s) for s in fam.member_sets()) + "}"


def _load_swf(ctx: RunContext, path: str):
    text = ctx.read_text(path)
    try:
        return parse_swf_json(text)
    except SwfFormatError as exc:
        raise CliError(f"{path}: {exc}") from None


# -------------------------------------------------------------- commands


def _cmd_orders(args: argparse.Namespace, ctx: RunContext) -> int:
    m = args.alternatives
    if not 1 <= m <= MAX_ALTERNATIVES:
        raise CliError(f"alternatives must be between 1 and {MAX_ALTERNATIVES}, got {m}")
    domain = Domain.LINEAR if args.linear else Domain.WEAK
    alts = AlternativeSet(m)
    texts = [format_weak_order(w, alts) for w in domain.orders(m)]
    if args.json:
        ctx.say(
            canonical_json(
                {
                    "schema": "arrovian/orders/v1",
                    "m": m,
                    "domain": domain.value,
                    "count": len(texts),
                    "orders": texts,
                }
            )
        )
    else:
        for text in texts:
            ctx.say(text + "\n")
        ctx.say(f"{len(texts)} {domain.value} orders on {m} alternatives\n")
    return 0


def _cmd_condorcet_demo(args: argparse.Namespace, ctx: RunContext) -> int:
    if args.profile is not None:
        text = ctx.read_text(args.profile)
        try:
            f, alts = parse_profile_json(text)
        except ProfileFormatError as exc:
            raise CliError(f"{args.profile}: {exc}") from None
    else:
        f = condorcet_profile()
        alts = AlternativeSet(3)
    rel, res, verdict = compose(f.m, majority_codes(f))
    edge_labels = [[alts.label(x), alts.label(y)] for x, y in rel.edges()]
    verdict_text = format_weak_order(verdict, alts) if res.ok else None
    witness_labels = [alts.label(x) for x in res.witness] if res.witness is not None else None

    if args.json:
        ctx.say(
            canonical_json(
                {
                    "schema": "arrovian/condorcet/v1",
                    "profile": [format_weak_order(w, alts) for w in f.prefs],
                    "majority_edges": edge_labels,
                    "weak_order": "PASS" if res.ok else "FAIL",
                    "violated": res.axiom,
                    "witness": witness_labels,
                    "verdict": verdict_text,
                }
            )
        )
    else:
        ctx.say("profile:\n")
        for v, w in enumerate(f.prefs):
            ctx.say(f"  voter {v}: {format_weak_order(w, alts)}\n")
        edges = ", ".join(">".join(e) for e in edge_labels) or "(none)"
        ctx.say(f"majority relation: {edges}\n")
        if res.ok:
            ctx.say(f"weak-order check: PASS\nverdict: {verdict_text}\n")
        else:
            witness = ",".join(witness_labels)
            ctx.say(f"weak-order check: FAIL ({res.axiom}) witness ({witness})\n")
    return 0


_AXIOM_TITLES = {
    "a1": "enough alternatives",
    "a2": "totality",
    "a3": "unanimity",
    "a4": "independence",
    "a5": "non-dictatorship",
}


def _cmd_axioms(args: argparse.Namespace, ctx: RunContext) -> int:
    swf, alts = _load_swf(ctx, args.swf)
    report = full_report(swf)
    doc = report.to_json_dict(alts)
    failed = report.failed()
    if args.json:
        ctx.say(
            canonical_json(
                {
                    "schema": "arrovian/axioms/v1",
                    "swf": swf.describe(),
                    "verdict": "PASS" if not failed else "FAIL",
                    **doc,
                }
            )
        )
    else:
        ctx.say(swf.describe() + "\n")
        for name in ("a1", "a2", "a3", "a4", "a5"):
            ctx.say(f"{name} {_AXIOM_TITLES[name]}: {doc['axioms'][name]}\n")
            if name in doc["witnesses"]:
                ctx.say(f"  witness: {json.dumps(doc['witnesses'][name], sort_keys=True)}\n")
        dictator = "none" if report.dictator is None else f"voter {report.dictator}"
        ctx.say(f"dictator: {dictator}\n")
        ctx.say("verdict: PASS\n" if not failed else f"verdict: FAIL [{', '.join(failed)}]\n")
    return 0 if not failed else 1


def _cmd_filters(args: argparse.Namespace, ctx: RunContext) -> int:
    if args.enumerate is not None:
        n = args.enumerate
        if not 1 <= n <= MAX_GROUND:
            raise CliError(f"ground set size must be between 1 and {MAX_GROUND}, got {n}")
        fams = enumerate_filters(n)
        classified = [(fam, classify(fam)) for fam in fams]
        if args.json:
            ctx.say(
                canonical_json(
                    {
                        "schema": "arrovian/filters/v1",
                        "n": n,
                        "count": len(fams),
                        "filters": [
                            {
                                "members": [sorted(s) for s in fam.member_sets()],
                                "is_ultrafilter": cls.is_ultrafilter,
                                "fixedness": "FIXED" if cls.fixed else "FREE",
                                "core": sorted(cls.core),
                            }
                            for fam, cls in classified
                        ],
                    }
                )
            )
        else:
            for fam, cls in classified:
                kind = "ultrafilter" if cls.is_ultrafilter else "filter"
                fixed = "FIXED" if cls.fixed else "FREE"
                ctx.say(f"{_family_text(fam)}  {kind} {fixed} core={_set_text(cls.core)}\n")
            ctx.say(f"{len(fams)} filters on {n} voters\n")
        return 0

    text = ctx.read_text(args.family)
    try:
        fam = CoalitionFamily.from_json_dict(text)
    except ValueError as exc:
        raise CliError(f"{args.family}: {exc}") from None
    cls = classify(fam)
    check = cls.filter_check
    if args.json:
        ctx.say(
            canonical_json(
                {
                    "schema": "arrovian/filter-check/v1",
                    "n": fam.n,
                    "members": [sorted(s) for s in fam.member_sets()],
                    **cls.to_json_dict(),
                }
            )
        )
    else:
        members = ", ".join(_set_text(s) for s in fam.member_sets()) or "(empty)"
        ctx.say(f"family on n={fam.n}: {members}\n")
        if check.ok:
            ctx.say("filter axioms: PASS\n")
            ctx.say(f"ultrafilter: {'yes' if cls.is_ultrafilter else 'no'}\n")
            fixed = "FIXED" if cls.fixed else "FREE"
            ctx.say(f"fixedness: {fixed} core={_set_text(cls.core)}\n")
        else:
            witness = ", ".join(_set_text(s) for s in check.witness or ())
            ctx.say(f"filter axioms: FAIL ({check.axiom}) witness ({witness})\n")
    return 0 if check.ok else 1


def _refuse_not_arrovian(
    args: argparse.Namespace, ctx: RunContext, schema: str, exc: NotArrovianError, alts: AlternativeSet
) -> int:
    """Report that a bridge command's SWF fails a1-a4; exit code 1."""
    if args.json:
        ctx.say(
            canonical_json(
                {
                    "schema": schema,
                    "ok": False,
                    "error": str(exc),
                    "axioms": exc.report.to_json_dict(alts)["axioms"],
                }
            )
        )
    else:
        ctx.say(f"not arrovian: {exc}\n")
    return 1


def _cmd_bridge_extract(args: argparse.Namespace, ctx: RunContext) -> int:
    swf, alts = _load_swf(ctx, args.swf)
    try:
        dec = extract_decisive_family(swf)
    except NotArrovianError as exc:
        return _refuse_not_arrovian(args, ctx, "arrovian/bridge-extract/v1", exc, alts)
    cls = classify(dec.family)
    core = sorted(cls.core)
    generator_voter = core[0] if cls.is_ultrafilter and len(core) == 1 else None
    if args.json:
        ctx.say(
            canonical_json(
                {
                    "schema": "arrovian/bridge-extract/v1",
                    "ok": True,
                    "provenance": dec.provenance,
                    "family": dec.family.to_json_dict(),
                    "classification": cls.to_json_dict(),
                    "generator_voter": generator_voter,
                }
            )
        )
    else:
        ctx.say(dec.provenance + "\n")
        members = ", ".join(_set_text(s) for s in dec.family.member_sets()) or "(empty)"
        ctx.say(f"decisive family ({len(dec.family.masks)} coalitions): {members}\n")
        ctx.say(f"filter axioms: {'PASS' if cls.filter_check.ok else 'FAIL'}\n")
        ctx.say(f"ultrafilter: {'yes' if cls.is_ultrafilter else 'no'}\n")
        fixed = "FIXED" if cls.fixed else "FREE"
        ctx.say(f"fixedness: {fixed} core={_set_text(cls.core)}\n")
        if generator_voter is not None:
            ctx.say(f"generator: voter {generator_voter}\n")
        else:
            ctx.say(f"generator: none (core {_set_text(cls.core)})\n")
    return 0


def _cmd_bridge_ks2(args: argparse.Namespace, ctx: RunContext) -> int:
    swf, alts = _load_swf(ctx, args.swf)
    try:
        rep = verify_ks2(swf)
    except NotArrovianError as exc:
        return _refuse_not_arrovian(args, ctx, "arrovian/bridge-ks2/v1", exc, alts)
    if args.json:
        ctx.say(
            canonical_json({"schema": "arrovian/bridge-ks2/v1", "ok": True, **rep.to_json_dict()})
        )
    else:
        dictator = "none" if rep.dictator is None else f"voter {rep.dictator}"
        fixed = "FIXED" if rep.classification.fixed else "FREE"
        ctx.say(f"dictator: {dictator}\n")
        ctx.say(f"decisive family: {fixed} core={_set_text(rep.generator)}\n")
        verdict = "PASS" if rep.consistent else "FAIL"
        ctx.say(f"consistency (dictator absent <=> family free): {verdict}\n")
    return 0 if rep.consistent else 1


def _cmd_arrow_search(args: argparse.Namespace, ctx: RunContext) -> int:
    try:
        domain = Domain.from_name(args.domain)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    start = time.perf_counter()
    try:
        cert = search_arrovian(args.alternatives, args.voters, domain, max_nodes=args.max_nodes)
    except (ValueError, SearchIncompleteError) as exc:
        raise CliError(str(exc)) from None
    searched = time.perf_counter()
    text = cert.to_json_text() if args.certificate or args.json else None
    ctx.phases = {"search_s": searched - start, "render_s": 0.0 if text is None else time.perf_counter() - searched}
    if args.certificate:
        ctx.write_text(args.certificate, text)
    non_dictatorial = [i for i, rec in enumerate(cert.survivors) if rec.dictator is None]
    if args.json:
        ctx.say(text)
    else:
        ctx.say(f"search m={cert.m} n={cert.n} domain={cert.domain.value}\n")
        ctx.say(f"cells={cert.cell_count} (forced {cert.forced_cells}), space={cert.space}\n")
        ctx.say(
            f"nodes={cert.nodes} leaves={cert.explored_leaves} "
            f"pruned={cert.pruned_total} (events {cert.pruned_events})\n"
        )
        survivors = len(cert.survivors)
        if non_dictatorial:
            ctx.say(f"survivors: {survivors}, {len(non_dictatorial)} NON-DICTATORIAL\n")
        else:
            tail = ", all dictatorial" if survivors else ""
            ctx.say(f"survivors: {survivors}{tail}\n")
        for i, rec in enumerate(cert.survivors):
            who = "none" if rec.dictator is None else f"voter {rec.dictator}"
            ctx.say(f"  survivor {i}: dictator {who}\n")
        if args.certificate:
            ctx.say(f"certificate written to {args.certificate}\n")
    return 1 if non_dictatorial else 0


def _triple_text(t) -> str:
    return f"({format_fc(t.first)}, {format_fc(t.second)}, {format_fc(t.tie)})"


def _cmd_infinite_demo(args: argparse.Namespace, ctx: RunContext) -> int:
    ctx.seed = args.seed
    if args.samples < 0:
        raise CliError(f"--samples must be at least 0, got {args.samples}")
    if args.dictator is not None:
        v0 = args.dictator
        if v0 < 0:
            raise CliError(f"voter must be a natural number, got {v0}")
        rule = dictator_rule(v0)
        rng = Random(args.seed)
        disagreements = []
        for _ in range(args.samples):
            a = random_fc_set(rng)
            if decisive_coalition_test(rule, a) != fc_member(a, v0):
                disagreements.append(format_fc(a))
        probe = non_dictatorship_witness(v0)
        probe_stance = dictator_stance(v0, probe)
        ok = not disagreements and probe_stance is PairStance.FIRST_PREFERRED
        if args.json:
            ctx.say(
                canonical_json(
                    {
                        "schema": "arrovian/infinite/v1",
                        "mode": "dictator",
                        "voter": v0,
                        "seed": args.seed,
                        "samples": args.samples,
                        "disagreements": disagreements,
                        "probe_triple": probe.to_json_dict(),
                        "probe_stance": probe_stance.value,
                        "verdict": "PASS" if ok else "FAIL",
                    }
                )
            )
        else:
            ctx.say(f"dictator rule for voter {v0}\n")
            agreed = args.samples - len(disagreements)
            ctx.say(
                f"decisive membership vs fc_member: {agreed} of {args.samples} "
                f"seeded coalitions agree (seed={args.seed})\n"
            )
            ctx.say(f"probe {_triple_text(probe)}: rule follows voter {v0} with FIRST\n")
            ctx.say(f"verdict: {'PASS' if ok else 'FAIL'}\n")
        return 0 if ok else 1

    rep = validate_fc_filter_axioms(seed=args.seed, samples=args.samples)
    w = args.witness
    if w < 0:
        raise CliError(f"witness voter must be a natural number, got {w}")
    triple = non_dictatorship_witness(w)
    voter_stance = dictator_stance(w, triple)
    rule_stance = frechet_stance(triple)
    overruled = (
        voter_stance is PairStance.FIRST_PREFERRED
        and rule_stance is PairStance.SECOND_PREFERRED
    )
    ok = rep.all_ok() and overruled
    if args.json:
        ctx.say(
            canonical_json(
                {
                    "schema": "arrovian/infinite/v1",
                    "mode": "frechet",
                    "axioms": rep.to_json_dict(),
                    "witness": {
                        "voter": w,
                        "triple": triple.to_json_dict(),
                        "voter_stance": voter_stance.value,
                        "rule_stance": rule_stance.value,
                        "overruled": overruled,
                    },
                    "verdict": "PASS" if ok else "FAIL",
                }
            )
        )
    else:
        ctx.say("frechet rule on the finite-or-cofinite coalitions\n")
        ctx.say(
            f"ultrafilter spot-check (seed={rep.seed}, samples={rep.samples}): "
            f"{'PASS' if rep.all_ok() else 'FAIL'}\n"
        )
        for label, value in (
            ("upward closure", rep.upward_closed_ok),
            ("intersection closure", rep.intersection_closed_ok),
            ("properness", rep.proper_ok),
            ("complement exclusivity", rep.complement_exclusive_ok),
            ("freeness", rep.free_ok),
        ):
            ctx.say(f"  {label}: {'PASS' if value else 'FAIL'}\n")
        ctx.say(f"witness against voter {w}: {_triple_text(triple)}\n")
        ctx.say(f"  voter {w} says {voter_stance.value}; the rule says {rule_stance.value}\n")
        ctx.say(f"overruled: {'yes' if overruled else 'no'}\n")
        ctx.say(f"verdict: {'PASS' if ok else 'FAIL'}\n")
    return 0 if ok else 1


# ------------------------------------------------------------ the parser


# Built once per process: the parser holds no per-run state, and each
# parse_args call returns a fresh Namespace.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrovian",
        description="verification toolkit for preference aggregation axioms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orders", help="enumerate weak or linear orders")
    p.add_argument("-m", "--alternatives", type=int, required=True)
    p.add_argument("--linear", action="store_true", help="restrict to linear orders")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_orders, command_name="orders")

    p = sub.add_parser("condorcet-demo", help="majority cycle on three voters")
    p.add_argument("--profile", help="profile JSON file replacing the built-in example")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_condorcet_demo, command_name="condorcet-demo")

    p = sub.add_parser("axioms", help="five-axiom audit of an SWF document")
    p.add_argument("--swf", required=True, help="SWF JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_axioms, command_name="axioms")

    p = sub.add_parser("filters", help="classify a family or enumerate all filters")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="coalition-family JSON file")
    group.add_argument("--enumerate", type=int, metavar="N", help="scan all families on N voters")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_filters, command_name="filters")

    p = sub.add_parser("bridge", help="decisive coalitions and the dictator correspondence")
    bridge_sub = p.add_subparsers(dest="bridge_command", required=True)
    b = bridge_sub.add_parser("extract", help="extract and classify the decisive family")
    b.add_argument("--swf", required=True, help="SWF JSON file")
    b.add_argument("--json", action="store_true")
    b.set_defaults(handler=_cmd_bridge_extract, command_name="bridge extract")
    b = bridge_sub.add_parser("ks2", help="dictator absent versus free decisive family")
    b.add_argument("--swf", required=True, help="SWF JSON file")
    b.add_argument("--json", action="store_true")
    b.set_defaults(handler=_cmd_bridge_ks2, command_name="bridge ks2")

    p = sub.add_parser("arrow-search", help="complete search of the pairwise-rule space")
    p.add_argument("--alternatives", type=int, default=3)
    p.add_argument("--voters", type=int, required=True)
    p.add_argument("--domain", required=True, help="'weak' or 'linear'")
    # Accepted and ignored: the budgets alone bound a search.
    p.add_argument("--allow-long", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES, help="node budget (default %(default)s)")
    p.add_argument("--certificate", help="write the certificate JSON to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_arrow_search, command_name="arrow-search")

    p = sub.add_parser("infinite-demo", help="finite-or-cofinite electorate rules")
    p.add_argument("--dictator", type=int, metavar="V", help="the rule echoing voter V (default: the Frechet rule)")
    p.add_argument("--witness", type=int, default=0, help="candidate dictator to overrule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_infinite_demo, command_name="infinite-demo")

    return parser


def _manifest_parameters(args: argparse.Namespace) -> dict:
    skip = {"handler", "command_name", "command", "bridge_command"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    ctx = RunContext(command=args.command_name, parameters=_manifest_parameters(args))
    start = time.perf_counter()
    try:
        code = args.handler(args, ctx)
        ctx.flush()
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exc.exit_code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    print(ctx.manifest_line(time.perf_counter() - start), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
