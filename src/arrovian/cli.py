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
the wall time, per-phase times, the peak RSS, the package and Python
versions and any seed used.  Stdout for a given command line and seed is
byte-stable, so the digests make any published number regenerable by a
single command.  Each subcommand builds one JSON result document, with
a versioned "schema" key of the form "arrovian/<kind>/v1": --json prints
it, and the text output is rendered from it alone (`arrow-search` prints
its certificate instead).

A command line that starts with a command is parsed by that command's
parser alone, built from the one function that adds its arguments, so a
run builds no other.  The full tree, the root parser with every command
under it, parses only what that parser leaves over, a command line with
no command or an unknown one, so the root's usage and messages, such as
"unrecognized arguments", read as they would from the full tree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from pathlib import Path
from random import Random
from typing import Iterable

from . import __version__
from ._util import FormatError, Value, canonical_json, sha256_hex, slices
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
from .ks_bridge import NotArrovianError, extract_decisive_family, verify_ks2
from .profiles import (
    BudgetExceededError,
    Domain,
    condorcet_profile,
    pairwise_majority,
    parse_profile_json,
)
from .relations import (
    MAX_ALTERNATIVES,
    AlternativeSet,
    PairStance,
    format_weak_order,
    to_canonical,
    validate_weak_order,
)
from .swf import full_report, parse_swf_json

try:
    from resource import RUSAGE_SELF, getrusage  # ru_maxrss is in KB on Linux, in bytes on macOS
except ImportError:  # Windows has no resource module: the manifest's peak_rss_kb is null
    getrusage = None


class CliError(Exception):
    """Anything that should stop the run with exit code 2."""


class RunContext(Value):
    """Collects stdout and digests so the manifest can be emitted last."""

    __slots__ = ("command", "parameters", "inputs", "outputs", "seed", "phases", "counters", "_parts")
    __hash__ = None  # mutable

    def __init__(
        self, command: str, parameters: dict, inputs: dict[str, str] | None = None,
        outputs: dict[str, str] | None = None, seed: int | None = None, phases: dict[str, float] | None = None,
        counters: dict[str, int] | None = None, _parts: list[str] | None = None,
    ) -> None:
        self.command, self.parameters, self.seed = command, parameters, seed
        self.inputs, self.outputs = {} if inputs is None else inputs, {} if outputs is None else outputs
        self.phases, self.counters = {} if phases is None else phases, {} if counters is None else counters
        self._parts = [] if _parts is None else _parts

    def say(self, *texts: str) -> None:
        self._parts += texts

    def load(self, path: str, parse):
        """parse(the text of the file at path), timed as `phases.parse_s`; an unreadable file, a
        malformed document or one over the profile budget stops the run."""
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
        self.inputs[path] = sha256_hex(raw)
        try:
            return self.timed("parse_s", lambda: parse(raw.decode("utf-8")))
        except UnicodeDecodeError as exc:
            raise CliError(f"{path} is not UTF-8 text: {exc.reason}") from None
        except (FormatError, BudgetExceededError) as exc:
            raise CliError(f"{path}: {exc}") from None

    def timed(self, phase: str, call, *args):
        """call(*args), its time added to `phases[phase]` whether it returns or raises."""
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.phases[phase] = self.phases.get(phase, 0.0) + time.perf_counter() - start

    def write_text(self, path: str, text: Iterable[str]) -> None:
        """Write text, given in slices, to the file at path, each slice encoded, hashed and written as it comes."""
        try:
            with open(path, "wb") as out:
                self.outputs[path] = sha256_hex(text, out.write)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None

    def flush(self) -> None:
        """Hash and write what was said, a slice at a time, without joining it into one text."""
        self.outputs["stdout"] = sha256_hex(self._parts)
        try:
            for text in self._parts:
                sys.stdout.writelines(slices(text))
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader has gone; send what is still buffered to devnull, so the
            # interpreter's own flush at exit does not fail on the closed pipe too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise CliError("stdout was closed before the output was written") from None

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
            "counters": self.counters,
            "peak_rss_kb": getrusage and getrusage(RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == "darwin" else 1),
            "versions": {"arrovian": __version__, "python": "%d.%d.%d" % sys.version_info[:3]},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _set_text(s: list[int]) -> str:
    return "{" + ",".join(map(str, s)) + "}"


def _voter(v: int | None) -> str:
    return "none" if v is None else f"voter {v}"


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# -------------------------------------------------------------- commands


def _cmd_orders(args: argparse.Namespace, ctx: RunContext) -> tuple[int, dict]:
    m = args.alternatives
    if not 1 <= m <= MAX_ALTERNATIVES:
        raise CliError(f"alternatives must be between 1 and {MAX_ALTERNATIVES}, got {m}")
    domain = Domain.LINEAR if args.linear else Domain.WEAK
    alts = AlternativeSet(m)
    texts = [format_weak_order(w, alts) for w in domain.orders(m)]
    return 0, {"schema": "arrovian/orders/v1", "m": m, "domain": domain.value, "count": len(texts), "orders": texts}


def _text_orders(doc: dict) -> str:
    lines = [text + "\n" for text in doc["orders"]]
    lines.append(f"{doc['count']} {doc['domain']} orders on {doc['m']} alternatives\n")
    return "".join(lines)


def _cmd_condorcet_demo(args: argparse.Namespace, ctx: RunContext) -> tuple[int, dict]:
    if args.profile is not None:
        f, alts = ctx.load(args.profile, parse_profile_json)
    else:
        f = condorcet_profile()
        alts = AlternativeSet(3)
    rel = pairwise_majority(f)
    res = validate_weak_order(rel)
    return 0, {
        "schema": "arrovian/condorcet/v1",
        "profile": [format_weak_order(w, alts) for w in f.prefs],
        "majority_edges": [[alts.label(x), alts.label(y)] for x, y in rel.edges()],
        "weak_order": _verdict(res.ok),
        "violated": res.axiom,
        "witness": [alts.label(x) for x in res.witness] if res.witness is not None else None,
        "verdict": format_weak_order(to_canonical(rel), alts) if res.ok else None,
    }


def _text_condorcet_demo(doc: dict) -> str:
    lines = ["profile:\n", *(f"  voter {v}: {w}\n" for v, w in enumerate(doc["profile"]))]
    edges = ", ".join(">".join(e) for e in doc["majority_edges"]) or "(none)"
    lines.append(f"majority relation: {edges}\n")
    if doc["weak_order"] == "PASS":
        lines.append(f"weak-order check: PASS\nverdict: {doc['verdict']}\n")
    else:
        lines.append(f"weak-order check: FAIL ({doc['violated']}) witness ({','.join(doc['witness'])})\n")
    return "".join(lines)


_AXIOM_TITLES = {
    "a1": "enough alternatives",
    "a2": "totality",
    "a3": "unanimity",
    "a4": "independence",
    "a5": "non-dictatorship",
}


def _cmd_axioms(args: argparse.Namespace, ctx: RunContext) -> tuple[int, dict]:
    swf, alts = ctx.load(args.swf, parse_swf_json)
    report = ctx.timed("audit_s", full_report, swf)
    ok = not report.failed()
    return 0 if ok else 1, {
        "schema": "arrovian/axioms/v1",
        "swf": swf.describe(),
        "verdict": _verdict(ok),
        **report.to_json_dict(alts),
    }


def _text_axioms(doc: dict) -> str:
    lines = [doc["swf"] + "\n"]
    for name, title in _AXIOM_TITLES.items():
        lines.append(f"{name} {title}: {doc['axioms'][name]}\n")
        if name in doc["witnesses"]:
            lines.append(f"  witness: {json.dumps(doc['witnesses'][name], sort_keys=True)}\n")
    lines.append(f"dictator: {_voter(doc['dictator'])}\n")
    failed = [name for name in _AXIOM_TITLES if doc["axioms"][name] == "FAIL"]
    lines.append(f"verdict: FAIL [{', '.join(failed)}]\n" if failed else "verdict: PASS\n")
    return "".join(lines)


def _members_text(members: list[list[int]]) -> str:
    return ", ".join(map(_set_text, members))


def _classification_lines(cls: dict) -> str:
    """The filter-axiom verdict and, for a filter, its kind and core."""
    if not cls["is_filter"]:
        return f"filter axioms: FAIL ({cls['violated']}) witness ({_members_text(cls['witness'])})\n"
    return (
        "filter axioms: PASS\n"
        f"ultrafilter: {'yes' if cls['is_ultrafilter'] else 'no'}\n"
        f"fixedness: {cls['fixedness']} core={_set_text(cls['core'])}\n"
    )


def _cmd_filters(args: argparse.Namespace, ctx: RunContext) -> tuple[int, dict]:
    if args.enumerate is not None:
        n = args.enumerate
        if not 1 <= n <= MAX_GROUND:
            raise CliError(f"ground set size must be between 1 and {MAX_GROUND}, got {n}")
        filters = []
        for fam in enumerate_filters(n):
            cls = classify(fam).to_json_dict()
            kind = {key: cls[key] for key in ("is_ultrafilter", "fixedness", "core")}
            filters.append({"members": [sorted(s) for s in fam.member_sets()], **kind})
        return 0, {"schema": "arrovian/filters/v1", "n": n, "count": len(filters), "filters": filters}

    fam = ctx.load(args.family, CoalitionFamily.from_json_dict)
    cls = classify(fam).to_json_dict()
    return 0 if cls["is_filter"] else 1, {"schema": "arrovian/filter-check/v1", **fam.to_json_dict(), **cls}


def _text_filters(doc: dict) -> str:
    if doc["schema"] == "arrovian/filter-check/v1":
        return f"family on n={doc['n']}: {_members_text(doc['members']) or '(empty)'}\n" + _classification_lines(doc)
    lines = [
        f"{{{_members_text(f['members'])}}}  {'ultrafilter' if f['is_ultrafilter'] else 'filter'} "
        f"{f['fixedness']} core={_set_text(f['core'])}\n"
        for f in doc["filters"]
    ]
    lines.append(f"{doc['count']} filters on {doc['n']} voters\n")
    return "".join(lines)


def _not_arrovian(schema: str, exc: NotArrovianError, alts: AlternativeSet) -> tuple[int, dict]:
    """The document of a bridge command whose SWF fails a1-a4; exit code 1."""
    return 1, {"schema": schema, "ok": False, "error": str(exc), "axioms": exc.report.to_json_dict(alts)["axioms"]}


def _cmd_bridge_extract(args: argparse.Namespace, ctx: RunContext) -> tuple[int, dict]:
    swf, alts = ctx.load(args.swf, parse_swf_json)
    try:
        dec = ctx.timed("audit_s", extract_decisive_family, swf)
    except NotArrovianError as exc:
        return _not_arrovian("arrovian/bridge-extract/v1", exc, alts)
    cls = classify(dec.family)
    core = sorted(cls.core)
    return 0, {
        "schema": "arrovian/bridge-extract/v1",
        "ok": True,
        "provenance": dec.provenance,
        "family": dec.family.to_json_dict(),
        "classification": cls.to_json_dict(),
        "generator_voter": core[0] if cls.is_ultrafilter and len(core) == 1 else None,
    }


def _text_bridge_extract(doc: dict) -> str:
    if not doc["ok"]:
        return f"not arrovian: {doc['error']}\n"
    members = doc["family"]["members"]
    cls = doc["classification"]
    generator = doc["generator_voter"]
    core = "" if generator is not None else f" (core {_set_text(cls['core'])})"
    return (
        f"{doc['provenance']}\n"
        f"decisive family ({len(members)} coalitions): {_members_text(members) or '(empty)'}\n"
        f"{_classification_lines(cls)}"
        f"generator: {_voter(generator)}{core}\n"
    )


def _cmd_bridge_ks2(args: argparse.Namespace, ctx: RunContext) -> tuple[int, dict]:
    swf, alts = ctx.load(args.swf, parse_swf_json)
    try:
        rep = ctx.timed("audit_s", verify_ks2, swf)
    except NotArrovianError as exc:
        return _not_arrovian("arrovian/bridge-ks2/v1", exc, alts)
    return 0 if rep.consistent else 1, {"schema": "arrovian/bridge-ks2/v1", "ok": True, **rep.to_json_dict()}


def _text_bridge_ks2(doc: dict) -> str:
    if not doc["ok"]:
        return f"not arrovian: {doc['error']}\n"
    return (
        f"dictator: {_voter(doc['dictator'])}\n"
        f"decisive family: {doc['classification']['fixedness']} core={_set_text(doc['generator'])}\n"
        f"consistency (dictator absent <=> family free): {_verdict(doc['consistent'])}\n"
    )


def _cmd_arrow_search(args: argparse.Namespace, ctx: RunContext) -> tuple[int, None]:
    """Writes its own output: under --json the certificate text, otherwise a summary of its counters.
    The certificate is rendered a slice at a time, and `render_s` times its rendering, hashing and writing together."""
    try:
        domain = Domain.from_name(args.domain)
        start = time.perf_counter()
        cert = search_arrovian(args.alternatives, args.voters, domain, max_nodes=args.max_nodes)
    except SearchIncompleteError as exc:
        ctx.phases = {"search_s": time.perf_counter() - start}
        ctx.counters = {key: exc.counters[key] for key in ("nodes", "leaves", "pruned_events")}
        raise CliError(str(exc)) from None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    ctx.phases = {
        "build_s": cert.build_s,
        "search_s": time.perf_counter() - start - cert.build_s - cert.audit_s,
        "audit_s": cert.audit_s,
        "render_s": 0.0,
    }
    ctx.counters = {
        "nodes": cert.nodes,
        "leaves": cert.explored_leaves,
        "pruned_events": cert.pruned_events,
        "survivors": len(cert.survivors),
        "distinct_columns": cert.distinct_columns,
    }
    text = cert.json_slices()  # rendered once: under --json stdout keeps the slices, and the file takes them from it
    if args.json:
        text = ctx.timed("render_s", list, text)
        ctx.say(*text)
    if args.certificate:
        ctx.timed("render_s", ctx.write_text, args.certificate, text)
    non_dictatorial = [i for i, rec in enumerate(cert.survivors) if rec.dictator is None]
    code = 1 if non_dictatorial else 0
    if args.json:
        return code, None
    ctx.say(
        f"search m={cert.m} n={cert.n} domain={cert.domain.value}\n",
        f"cells={cert.cell_count} (forced {cert.forced_cells}), space={cert.space}\n",
        f"nodes={cert.nodes} leaves={cert.explored_leaves} pruned={cert.pruned_total} (events {cert.pruned_events})\n",
    )
    survivors = len(cert.survivors)
    tail = f", {len(non_dictatorial)} NON-DICTATORIAL" if non_dictatorial else ", all dictatorial" if survivors else ""
    ctx.say(f"survivors: {survivors}{tail}\n")
    ctx.say("".join(f"  survivor {i}: dictator {_voter(rec.dictator)}\n" for i, rec in enumerate(cert.survivors)))
    if args.certificate:
        ctx.say(f"certificate written to {args.certificate}\n")
    return code, None


def _triple_text(t: dict) -> str:
    return f"({t['first']}, {t['second']}, {t['tie']})"


def _cmd_infinite_demo(args: argparse.Namespace, ctx: RunContext) -> tuple[int, dict]:
    ctx.seed = args.seed
    if args.samples < 0:
        raise CliError(f"--samples must be at least 0, got {args.samples}")
    if args.dictator is not None:
        v0 = args.dictator
        if v0 < 0:
            raise CliError(f"voter must be a natural number, got {v0}")
        rule = dictator_rule(v0)
        rng = Random(args.seed)
        ctx.counters = {"coalitions": args.samples}
        disagreements = []
        for _ in range(args.samples):
            a = random_fc_set(rng)
            if decisive_coalition_test(rule, a) != fc_member(a, v0):
                disagreements.append(format_fc(a))
        probe = non_dictatorship_witness(v0)
        probe_stance = dictator_stance(v0, probe)
        ok = not disagreements and probe_stance is PairStance.FIRST_PREFERRED
        return 0 if ok else 1, {
            "schema": "arrovian/infinite/v1",
            "mode": "dictator",
            "voter": v0,
            "seed": args.seed,
            "samples": args.samples,
            "disagreements": disagreements,
            "probe_triple": probe.to_json_dict(),
            "probe_stance": probe_stance.value,
            "verdict": _verdict(ok),
        }

    w = args.witness
    if w < 0:
        raise CliError(f"witness voter must be a natural number, got {w}")
    rep = validate_fc_filter_axioms(seed=args.seed, samples=args.samples)
    ctx.counters = {"coalitions": 5 * args.samples}  # two draws per upward and intersection sample, one per complement
    triple = non_dictatorship_witness(w)
    voter_stance = dictator_stance(w, triple)
    rule_stance = frechet_stance(triple)
    overruled = (
        voter_stance is PairStance.FIRST_PREFERRED
        and rule_stance is PairStance.SECOND_PREFERRED
    )
    ok = rep.all_ok() and overruled
    return 0 if ok else 1, {
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
        "verdict": _verdict(ok),
    }


_FC_AXIOM_TITLES = {
    "upward_closed": "upward closure",
    "intersection_closed": "intersection closure",
    "proper": "properness",
    "complement_exclusive": "complement exclusivity",
    "free": "freeness",
}


def _text_infinite_demo(doc: dict) -> str:
    if doc["mode"] == "dictator":
        v0, samples = doc["voter"], doc["samples"]
        return (
            f"dictator rule for voter {v0}\n"
            f"decisive membership vs fc_member: {samples - len(doc['disagreements'])} of {samples} "
            f"seeded coalitions agree (seed={doc['seed']})\n"
            f"probe {_triple_text(doc['probe_triple'])}: rule follows voter {v0} with FIRST\n"
            f"verdict: {doc['verdict']}\n"
        )
    axioms, witness = doc["axioms"], doc["witness"]
    w = witness["voter"]
    spot_check = _verdict(all(axioms[key] for key in _FC_AXIOM_TITLES))
    return "".join(
        [
            "frechet rule on the finite-or-cofinite coalitions\n",
            f"ultrafilter spot-check (seed={axioms['seed']}, samples={axioms['samples']}): {spot_check}\n",
            *(f"  {title}: {_verdict(axioms[key])}\n" for key, title in _FC_AXIOM_TITLES.items()),
            f"witness against voter {w}: {_triple_text(witness['triple'])}\n",
            f"  voter {w} says {witness['voter_stance']}; the rule says {witness['rule_stance']}\n",
            f"overruled: {'yes' if witness['overruled'] else 'no'}\n",
            f"verdict: {doc['verdict']}\n",
        ]
    )


# ------------------------------------------------------------ the parser


def _orders_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", "--alternatives", type=int, required=True)
    p.add_argument("--linear", action="store_true", help="restrict to linear orders")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_orders, text=_text_orders, command_name="orders")


def _condorcet_demo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", help="profile JSON file replacing the built-in example")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_condorcet_demo, text=_text_condorcet_demo, command_name="condorcet-demo")


def _axioms_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--swf", required=True, help="SWF JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_axioms, text=_text_axioms, command_name="axioms")


def _filters_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="coalition-family JSON file")
    group.add_argument("--enumerate", type=int, metavar="N", help="scan all families on N voters")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_filters, text=_text_filters, command_name="filters")


def _bridge_arguments(p: argparse.ArgumentParser) -> None:
    bridge_sub = p.add_subparsers(dest="bridge_command", required=True)
    for name, help_text, handler, text in (
        ("extract", "extract and classify the decisive family", _cmd_bridge_extract, _text_bridge_extract),
        ("ks2", "dictator absent versus free decisive family", _cmd_bridge_ks2, _text_bridge_ks2),
    ):
        b = bridge_sub.add_parser(name, help=help_text)
        b.add_argument("--swf", required=True, help="SWF JSON file")
        b.add_argument("--json", action="store_true")
        b.set_defaults(handler=handler, text=text, command_name=f"bridge {name}")


def _arrow_search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alternatives", type=int, default=3)
    p.add_argument("--voters", type=int, required=True)
    p.add_argument("--domain", required=True, help="'weak' or 'linear'")
    # Accepted and ignored: the budgets alone bound a search.
    p.add_argument("--allow-long", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES, help="node budget (default %(default)s)")
    p.add_argument("--certificate", help="write the certificate JSON to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_arrow_search, command_name="arrow-search")


def _infinite_demo_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dictator", type=int, metavar="V", help="the rule echoing voter V (default: the Frechet rule)")
    p.add_argument("--witness", type=int, default=0, help="candidate dictator to overrule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_infinite_demo, text=_text_infinite_demo, command_name="infinite-demo")


# Each command's line in the root help, and the function that adds its arguments to its parser.
_COMMANDS = {
    "orders": ("enumerate weak or linear orders", _orders_arguments),
    "condorcet-demo": ("majority cycle on three voters", _condorcet_demo_arguments),
    "axioms": ("five-axiom audit of an SWF document", _axioms_arguments),
    "filters": ("classify a family or enumerate all filters", _filters_arguments),
    "bridge": ("decisive coalitions and the dictator correspondence", _bridge_arguments),
    "arrow-search": ("complete search of the pairwise-rule space", _arrow_search_arguments),
    "infinite-demo": ("finite-or-cofinite electorate rules", _infinite_demo_arguments),
}


# The parsers are built once per process: they hold no per-run state, and
# each parse returns a fresh Namespace.
@cache
def _build_parser() -> argparse.ArgumentParser:
    """The full tree: the root parser with every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="arrovian",
        description="verification toolkit for preference aggregation axioms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


@cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command alone, as the full tree's subparser for it is built."""
    parser = argparse.ArgumentParser(prog=f"arrovian {name}")
    _COMMANDS[name][1](parser)
    parser.set_defaults(command=name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv's Namespace, through the named command's parser when it takes all of argv; with no
    command, an unknown one or arguments left over, through the full tree, whose root reports them."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return _build_parser().parse_args(argv)


def _manifest_parameters(args: argparse.Namespace) -> dict:
    skip = {"handler", "text", "command_name", "command", "bridge_command"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    }


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    ctx = RunContext(command=args.command_name, parameters=_manifest_parameters(args))
    start = time.perf_counter()
    try:
        code, doc = args.handler(args, ctx)
        if doc is not None:
            rendering = time.perf_counter()
            ctx.say(canonical_json(doc) if args.json else args.text(doc))
            ctx.phases["render_s"] = time.perf_counter() - rendering
        ctx.flush()
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    print(ctx.manifest_line(time.perf_counter() - start), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
