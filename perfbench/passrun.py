"""One pass of a workload, in a fresh interpreter.

    python3 passrun.py OPS_JSON TRACE

Run with the working directory holding the inputs and with the
checkout's `src` on PYTHONPATH.  Executes the operations of OPS_JSON one
after another, closed loop: CLI operations through
`arrovian.cli.main(argv)` with stdout and stderr captured, construct
chains through the library's public functions.  Each operation is timed
alone and then checked against its known answer, outside the timed
region.  With TRACE=1 the package's public functions are wrapped first
(see spans.py) and the per-layer metrics are returned as well.

Prints one JSON line: per-operation records (raw and normalized times),
the reference job times, peak RSS and, when traced, the layer metrics.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
from time import perf_counter

import oracle
import reference
import spans


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- checks
# Each returns None when the output shows the known answer, else why not.


def _check_search(op: dict, out: str) -> str | None:
    with open(op["certificate"], encoding="utf-8") as fh:
        cert = json.load(fh)
    cells, want = op["cells"], op["survivors"]
    if cert["cells"] != cells or cert["space"] != 3**cells:
        return f"cells {cert['cells']} space {cert['space']}, expected {cells} and 3**{cells}"
    if cert["explored_leaves"] + cert["pruned_total"] != 3**cells:
        return "leaves + pruned != 3**cells"
    if cert["survivor_count"] != want or len(cert["survivors"]) != want:
        return f"{cert['survivor_count']} survivors, expected {want}"
    for i, rec in enumerate(cert["survivors"]):
        d = rec["dictator"]
        if d is None:
            return f"survivor {i} reported non-dictatorial"
        for cells_of_pair in rec["rules"]["rules"].values():
            for (first, second, _), s in cells_of_pair:
                if (d in first and s != oracle.FIRST) or (d in second and s != oracle.SECOND):
                    return f"survivor {i} does not follow its dictator {d}"
    if f"survivors: {want}, all dictatorial\n" not in out:
        return "summary line missing"
    return None


def _check_orders(op: dict, out: str) -> str | None:
    m, domain = op["m"], op["domain"]
    count = oracle.ORDER_COUNTS[domain][m - 1]
    lines = out.splitlines()
    if lines[-1] != f"{count} {domain} orders on {m} alternatives":
        return f"count line {lines[-1]!r}, expected {count}"
    want = {oracle.text(o, "ABCDE") for o in oracle.orders(m, domain)}
    if len(lines) - 1 != count or set(lines[:-1]) != want:
        return "order list differs from the independent enumeration"
    return None


def _check_enumerate(op: dict, out: str) -> str | None:
    n = op["n"]
    lines = out.splitlines()
    if lines[-1] != f"{2**n - 1} filters on {n} voters":
        return f"count line {lines[-1]!r}, expected {2**n - 1}"
    ultra = [line for line in lines[:-1] if "  ultrafilter " in line]
    cores = sorted(line.rsplit("core=", 1)[1] for line in ultra)
    if cores != sorted(f"{{{v}}}" for v in range(n)):
        return f"ultrafilter cores {cores}, expected the {n} singletons"
    if any(" FIXED " not in line for line in lines[:-1]):
        return "a filter on a finite ground set reported FREE"
    return None


def _check_condorcet_builtin(op: dict, out: str) -> str | None:
    # The built-in profile A>B>C, C>A>B, B>C>A: each majority is 2 to 1.
    if "majority relation: A>B, B>C, C>A\n" not in out or "weak-order check: FAIL" not in out:
        return "the majority cycle is not reported"
    return None


def _check_condorcet(op: dict, out: str) -> str | None:
    doc = json.loads(out)
    if sorted(doc["majority_edges"]) != op["edges"]:
        return "majority edges differ from the independent count"
    if doc["weak_order"] != ("FAIL" if op["verdict"] is None else "PASS") or doc["verdict"] != op["verdict"]:
        return f"verdict {doc['weak_order']} {doc['verdict']}, expected {op['verdict']}"
    return None


def _check_family(op: dict, out: str) -> str | None:
    doc = json.loads(out)
    got = (doc["is_filter"], doc["is_ultrafilter"], doc["fixedness"], doc["core"])
    want = (op["is_filter"], op["is_ultrafilter"], "FIXED" if op["fixed"] else "FREE", op["core"])
    return None if got == want else f"classification {got}, expected {want}"


def _check_infinite(op: dict, out: str) -> str | None:
    doc = json.loads(out)
    if doc["verdict"] != "PASS":
        return "verdict FAIL"
    if doc["mode"] == "frechet" and not doc["witness"]["overruled"]:
        return "witness voter not overruled"
    if doc["mode"] == "dictator" and doc["disagreements"]:
        return "decisive membership disagrees with voter membership"
    return None


def _check_infinite_text(op: dict, out: str) -> str | None:
    return None if "overruled: yes\nverdict: PASS\n" in out else "verdict is not PASS"


def _failed_axioms(doc: dict) -> list[str]:
    return sorted(k for k, v in doc["axioms"].items() if v == "FAIL")


def _check_axioms(op: dict, out: str) -> str | None:
    doc = json.loads(out)
    got = (_failed_axioms(doc), doc["dictator"])
    want = (op["failed"], op["dictator"])
    return None if got == want else f"failed axioms and dictator {got}, expected {want}"


def _not_arrovian(op: dict, doc: dict) -> str | None:
    want = [a for a in op["failed"] if a != "a5"]
    if doc["ok"] or _failed_axioms(doc) != want:
        return f"expected a refusal naming {want}"
    return None


def _check_extract(op: dict, out: str) -> str | None:
    doc = json.loads(out)
    v = op["dictator"]
    if v is None:
        return _not_arrovian(op, doc)
    got = (doc["ok"], doc["generator_voter"], doc["family"]["members"], doc["classification"]["is_ultrafilter"])
    want = (True, v, op["family"], True)
    return None if got == want else f"extraction {got}, expected {want}"


def _check_ks2(op: dict, out: str) -> str | None:
    doc = json.loads(out)
    v = op["dictator"]
    if v is None:
        return _not_arrovian(op, doc)
    got = (doc["ok"], doc["dictator"], doc["consistent"], doc["generator"])
    want = (True, v, True, [v])
    return None if got == want else f"ks2 {got}, expected {want}"


CHECKS = {
    "search": _check_search,
    "orders": _check_orders,
    "enumerate": _check_enumerate,
    "condorcet-builtin": _check_condorcet_builtin,
    "condorcet": _check_condorcet,
    "family": _check_family,
    "infinite": _check_infinite,
    "infinite-text": _check_infinite_text,
    "axioms": _check_axioms,
    "extract": _check_extract,
    "ks2": _check_ks2,
    "exit": lambda op, out: None,
}


def _verify_cli(op: dict, code, out: str) -> str | None:
    if code != op["exit"]:
        return f"exit {code}, expected {op['exit']}"
    if "pin" in op:
        got = {"stdout": _sha(out)}
        if "certificate" in op:
            with open(op["certificate"], encoding="utf-8") as fh:
                got["certificate"] = _sha(fh.read())
        if got != op["digests"]:
            return f"digests {json.dumps(got, sort_keys=True)} differ from the pinned ones"
    return CHECKS[op["check"]](op, out)


class Timeline:
    """Operation records, timed against the reference job (reference.py).

    In an untraced pass an interval timer interrupts the program every
    tenth of a second to run the reference job, so the machine's speed is
    sampled even inside a long operation; the job's time is taken out of
    the operation's raw time `s`.  A traced pass runs the job only
    between operations, once a tenth of a second has passed, so that no span
    counts it.  At the end of the pass each record gets `n`: `s` scaled by
    the job times from the last sample before the operation to the first
    sample after it.
    """

    EVERY_S = 0.1

    def __init__(self, interrupt: bool):
        self.records: list[dict] = []
        self.samples: list[tuple[float, float]] = []  # (when taken, job seconds)
        self.stolen = 0.0
        self._spans: list[tuple[float, float]] = []
        self._interrupt = interrupt
        if interrupt:
            signal.signal(signal.SIGALRM, self._tick)
            self._tick()
        else:
            self._take()

    def _take(self) -> None:
        start = perf_counter()
        job = reference.job()
        end = perf_counter()
        self.samples.append((end, job))
        self.stolen += end - start

    def _tick(self, *_) -> None:
        self._take()
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S)

    def measure(self, call):
        """Run call(); return (result, exception or None, span) for `add`."""
        stolen, start = self.stolen, perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # the caller decides whether it is a failure
            result, error = None, exc
        end = perf_counter()
        return result, error, (start, end, end - start - (self.stolen - stolen))

    def add(self, label: str, span: tuple, why: str | None, defect: bool = False) -> None:
        self.records.append({"label": label, "s": span[2], "why": why, "defect": defect})
        self._spans.append(span[:2])
        if not self._interrupt and perf_counter() - self.samples[-1][0] >= self.EVERY_S:
            self._take()

    def finish(self) -> None:
        if self._interrupt:
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._take()
        taken = [when for when, _ in self.samples]
        for record, (start, end) in zip(self.records, self._spans):
            first = max(bisect.bisect_right(taken, start) - 1, 0)
            last = bisect.bisect_left(taken, end)
            jobs = [job for _, job in self.samples[first : last + 1]]
            record["n"] = reference.normalized(record["s"], jobs)


def run_cli(cli, op: dict, tracer, timeline: Timeline) -> None:
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(op["argv"])

    frame = tracer.enter("cli.main") if tracer else None
    code, error, span = timeline.measure(call)
    if frame is not None:
        tracer.leave(frame)
    # A traceback is a failed operation, not the end of the pass.
    why = None if error is None else f"uncaught {type(error).__name__}: {error}"
    if why is None:
        try:
            why = _verify_cli(op, code, out.getvalue())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"unreadable output: {type(exc).__name__}: {exc}"
    timeline.add(op["label"], span, why, op.get("defect", False))


# ------------------------------------------------------------ construct


def _table(swf) -> dict:
    return {tuple(w.classes for w in f.prefs): v.classes for f, v in swf.verdicts.items()}


def _expected_table(kind: str, m: int, n: int, domain: str, v: int) -> dict:
    return {f: oracle.verdict(kind, f, m, v, ()) for f in oracle.profiles(m, n, domain)}


def _rule_table(swf) -> dict:
    return {
        (pair, t.code()): s.value
        for pair, table in swf.rules.items()
        for t, s in table.items()
    }


def _expected_rules(kind: str, m: int, n: int, domain: str, v: int) -> dict:
    return {
        (pair, code): oracle.rule_stance(kind, first, second, v, None)
        for pair in oracle.pairs(m)
        for code, first, second, _ in oracle.tripartitions(n, domain)
    }


class _Chain:
    """Times the steps of one construct chain; a failed step ends it."""

    def __init__(self, label: str, timeline: Timeline):
        self.label, self.timeline = label, timeline

    def step(self, name: str, call, check=None, raises=None):
        result, error, span = self.timeline.measure(call)
        if error is None:
            why = f"expected {raises.__name__}" if raises else (check(result) if check else None)
        elif raises is not None and isinstance(error, raises):
            why = None
        else:
            why = f"uncaught {type(error).__name__}: {error}"
        self.timeline.add(f"{self.label}: {name}", span, why)
        if why is not None:
            raise _ChainStop
        return result


class _ChainStop(Exception):
    pass


def _same(want, label: str):
    return lambda got: None if got == want else f"{label} differs from the known answer"


def run_chain(arrovian, op: dict, timeline: Timeline) -> None:
    swf_mod, util = arrovian.swf, arrovian._util
    chain = _Chain(op["label"], timeline)
    try:
        if op["chain"] == "frechet":
            _frechet_chain(arrovian, op, chain)
            return
        m, n, domain = op["m"], op["n"], op["domain"]
        with open(op["file"], encoding="utf-8") as fh:
            text = fh.read()
        if op["chain"] == "borda":
            want = _expected_table("borda", m, n, domain, 0)
            explicit, _ = chain.step("parse_swf_json", lambda: swf_mod.parse_swf_json(text),
                                     lambda r: _same(want, "verdict table")(_table(r[0])))
            chain.step("derive_rules refuses", lambda: swf_mod.derive_rules(explicit), raises=ValueError)
            return
        kind, v = op["kind"], op["v"]
        want = _expected_table(kind, m, n, domain, v)
        rules, alts = chain.step("parse_swf_json", lambda: swf_mod.parse_swf_json(text),
                                 lambda r: _same(_expected_rules(kind, m, n, domain, v), "rule table")(_rule_table(r[0])))
        explicit = chain.step("expand_to_explicit", lambda: swf_mod.expand_to_explicit(rules),
                              lambda r: _same(want, "verdict table")(_table(r)))
        chain.step("derive_rules", lambda: swf_mod.derive_rules(explicit),
                   lambda r: _same(_rule_table(rules), "derived rule table")(_rule_table(r)))
        target = explicit
        if kind == "dictator":
            family = arrovian.filters.CoalitionFamily(n, frozenset(a for a in range(1 << n) if a >> v & 1))
            target = chain.step("swf_from_ultrafilter",
                                lambda: arrovian.ks_bridge.swf_from_ultrafilter(family, m, n, arrovian.profiles.Domain(domain)),
                                lambda r: _same(want, "verdict table")(_table(r)))
        doc = chain.step("swf_to_json_dict", lambda: swf_mod.swf_to_json_dict(target, alts))
        out = chain.step("canonical_json", lambda: util.canonical_json(doc))
        chain.step("parse_swf_json round trip", lambda: swf_mod.parse_swf_json(out),
                   lambda r: _same(want, "round-trip verdict table")(_table(r[0])))
    except _ChainStop:
        pass


def _frechet_chain(arrovian, op: dict, chain: _Chain) -> None:
    fc, rel = arrovian.fc_infinite, arrovian.relations

    def order(classes):
        return rel.WeakOrder(tuple(tuple(c) for c in classes))

    profiles = [
        fc.EventuallyConstantProfile(order(p["tail"]), tuple((u, order(w)) for u, w in p["overrides"]))
        for p in op["profiles"]
    ]
    # The Fréchet rule follows the cofinite part of every pair, which is
    # the part holding the tail voters, so the verdict is the tail order.
    want = [tuple(tuple(c) for c in p["tail"]) for p in op["profiles"]]
    chain.step(f"frechet_verdict x{len(profiles)}",
               lambda: [fc.frechet_verdict(p) for p in profiles],
               lambda r: _same(want, "verdicts")([w.classes for w in r]))


# ----------------------------------------------------------------- main


def main() -> int:
    ops_path, traced = sys.argv[1], sys.argv[2] == "1"
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    import arrovian
    import arrovian.cli

    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install()
    timeline = Timeline(interrupt=not traced)
    for op in ops:
        if "argv" in op:
            run_cli(arrovian.cli, op, tracer, timeline)
        else:
            run_chain(arrovian, op, timeline)
    timeline.finish()
    result = {
        "ops": timeline.records,
        "jobs": [job for _, job in timeline.samples],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": spans.layer_metrics(tracer) if tracer else None,
        "package": {"version": arrovian.__version__, "file": arrovian.__file__},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
