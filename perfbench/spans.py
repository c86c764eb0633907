"""Spans and counters around the package's public functions.

Used only in traced passes.  `Tracer.install` replaces each traced
function at every module attribute (and class attribute) of the package
that holds it, which is where callers look it up, so every call site is
counted.  A span records its inclusive time; its self time is that
minus the time of traced spans it encloses.  `.s` metrics are inclusive
and count only the outermost activation of a function, so recursion is
never counted twice; nesting of different functions is (full_report's
call to find_dictator counts in both).
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, what to record).  "span": calls, inclusive and self
# time; "count": calls only, for functions too hot to time.
TARGETS = (
    ("swf", "full_report", "span"),
    ("swf", "PairwiseRuleSwf.assemble", "span"),
    ("swf", "check_unanimity", "span"),
    ("swf", "check_independence", "span"),
    ("swf", "find_dictator", "span"),
    ("swf", "parse_swf_json", "span"),
    ("swf", "swf_to_json_dict", "span"),
    ("swf", "expand_to_explicit", "span"),
    ("swf", "derive_rules", "span"),
    ("relations", "pair_stance", "count"),
    ("relations", "validate_weak_order", "span"),
    ("relations", "to_canonical", "count"),
    ("relations", "enumerate_weak_orders", "span"),
    ("profiles", "enumerate_profiles", "count"),
    ("profiles", "pair_partition", "span"),
    ("profiles", "pairwise_majority", "span"),
    ("arrow_search", "build_problem", "span"),
    ("arrow_search", "search_arrovian", "span"),
    ("ks_bridge", "extract_decisive_family", "span"),
    ("ks_bridge", "verify_ks2", "span"),
    ("ks_bridge", "swf_from_ultrafilter", "span"),
    ("filters", "enumerate_filters", "span"),
    ("filters", "classify", "span"),
    ("filters", "is_filter", "count"),
    ("fc_infinite", "validate_fc_filter_axioms", "span"),
    ("fc_infinite", "decisive_coalition_test", "count"),
    ("fc_infinite", "frechet_verdict", "span"),
    ("_util", "canonical_json", "span"),
    ("_util", "sha256_hex", "span"),
)


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name, self.start, self.child = name, start, 0.0


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.child_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.stack: list[_Frame] = []
        self.active: dict[str, int] = {}

    # ------------------------------------------------------------ spans

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, perf_counter())
        self.stack.append(frame)
        self.active[name] = self.active.get(name, 0) + 1
        return frame

    def leave(self, frame: _Frame) -> float:
        dur = perf_counter() - frame.start
        self.stack.pop()
        name = frame.name
        self.active[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        if not self.active[name]:
            self.incl[name] = self.incl.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child
        self.child_s[name] = self.child_s.get(name, 0.0) + frame.child
        if self.stack:
            self.stack[-1].child += dur
        return dur

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    # --------------------------------------------------------- wrapping

    def _span(self, name: str, fn):
        enter, leave = self.enter, self.leave
        hook = _HOOKS.get(name)

        def wrapped(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapped

    def _count(self, name: str, fn):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        if name != "profiles.enumerate_profiles":
            return wrapped

        def tally(profiles):
            for f in profiles:
                calls["profiles.profiles_scanned"] = calls.get("profiles.profiles_scanned", 0) + 1
                yield f

        # The original validates its arguments at call time and returns a
        # generator; the wrapper keeps both.
        return lambda *args, **kwargs: tally(wrapped(*args, **kwargs))

    def install(self) -> None:
        package = {k: m for k, m in sys.modules.items() if k == "arrovian" or k.startswith("arrovian.")}
        for modname, attr, how in TARGETS:
            name = f"{modname}.{attr.split('.')[-1]}"
            owner = package[f"arrovian.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._span(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._span(name, orig) if how == "span" else self._count(name, orig)
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)


def _search_hook(tracer: Tracer, args, kwargs, cert) -> None:
    tracer.add("arrow_search.nodes", cert.nodes)
    tracer.add("arrow_search.leaves", cert.explored_leaves)
    tracer.add("arrow_search.pruned_events", cert.pruned_events)


def _filters_hook(tracer: Tracer, args, kwargs, fams) -> None:
    n = args[0] if args else kwargs["n"]
    tracer.add("filters.families_scanned", 1 << (1 << n))
    tracer.add("filters.filters_found", len(fams))


def _json_hook(tracer: Tracer, args, kwargs, text) -> None:
    tracer.add("_util.canonical_json.bytes", len(text.encode("utf-8")))


_HOOKS = {
    "arrow_search.search_arrovian": _search_hook,
    "filters.enumerate_filters": _filters_hook,
    "_util.canonical_json": _json_hook,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name.

    `cli.self_s` is the self time of the `cli.main` spans the pass runner
    opens around each CLI operation: its time outside traced functions.
    """
    c, incl, own = tracer.calls, tracer.incl, tracer.self_s
    x = tracer.extra
    nodes = x.get("arrow_search.nodes", 0)
    return {
        "swf.full_report.s": incl.get("swf.full_report", 0.0),
        "swf.assemble.calls": c.get("swf.assemble", 0),
        "swf.assemble.s": incl.get("swf.assemble", 0.0),
        "swf.check_unanimity.s": incl.get("swf.check_unanimity", 0.0),
        "swf.check_independence.s": incl.get("swf.check_independence", 0.0),
        "swf.find_dictator.s": incl.get("swf.find_dictator", 0.0),
        "swf.find_dictator.calls": c.get("swf.find_dictator", 0),
        "swf.parse_swf_json.s": incl.get("swf.parse_swf_json", 0.0),
        "swf.swf_to_json_dict.s": incl.get("swf.swf_to_json_dict", 0.0),
        "swf.expand_to_explicit.s": incl.get("swf.expand_to_explicit", 0.0),
        "swf.derive_rules.s": incl.get("swf.derive_rules", 0.0),
        "relations.pair_stance.calls": c.get("relations.pair_stance", 0),
        "relations.validate_weak_order.calls": c.get("relations.validate_weak_order", 0),
        "relations.validate_weak_order.s": incl.get("relations.validate_weak_order", 0.0),
        "relations.to_canonical.calls": c.get("relations.to_canonical", 0),
        "relations.enumerate_weak_orders.s": incl.get("relations.enumerate_weak_orders", 0.0),
        "profiles.profiles_scanned": c.get("profiles.profiles_scanned", 0),
        "profiles.pair_partition.calls": c.get("profiles.pair_partition", 0),
        "profiles.pair_partition.s": incl.get("profiles.pair_partition", 0.0),
        "profiles.pairwise_majority.s": incl.get("profiles.pairwise_majority", 0.0),
        "arrow_search.build_problem.s": incl.get("arrow_search.build_problem", 0.0),
        "arrow_search.search_arrovian.self_s": own.get("arrow_search.search_arrovian", 0.0),
        "arrow_search.survivor_audit.s": tracer.child_s.get("arrow_search.search_arrovian", 0.0)
        - incl.get("arrow_search.build_problem", 0.0),
        "arrow_search.nodes": nodes,
        "arrow_search.leaves": x.get("arrow_search.leaves", 0),
        "arrow_search.pruned_events": x.get("arrow_search.pruned_events", 0),
        "arrow_search.leaf_ratio": x.get("arrow_search.leaves", 0) / nodes if nodes else 0.0,
        "ks_bridge.extract_decisive_family.self_s": own.get("ks_bridge.extract_decisive_family", 0.0),
        "ks_bridge.verify_ks2.self_s": own.get("ks_bridge.verify_ks2", 0.0),
        "ks_bridge.swf_from_ultrafilter.s": incl.get("ks_bridge.swf_from_ultrafilter", 0.0),
        "filters.enumerate_filters.s": incl.get("filters.enumerate_filters", 0.0),
        "filters.families_scanned": x.get("filters.families_scanned", 0),
        "filters.filters_found": x.get("filters.filters_found", 0),
        "filters.classify.calls": c.get("filters.classify", 0),
        "filters.classify.s": incl.get("filters.classify", 0.0),
        "filters.is_filter.calls": c.get("filters.is_filter", 0),
        "fc_infinite.validate_fc_filter_axioms.s": incl.get("fc_infinite.validate_fc_filter_axioms", 0.0),
        "fc_infinite.decisive_coalition_test.calls": c.get("fc_infinite.decisive_coalition_test", 0),
        "fc_infinite.frechet_verdict.calls": c.get("fc_infinite.frechet_verdict", 0),
        "fc_infinite.frechet_verdict.s": incl.get("fc_infinite.frechet_verdict", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "util.canonical_json.s": incl.get("_util.canonical_json", 0.0),
        "util.canonical_json.bytes": x.get("_util.canonical_json.bytes", 0),
        "util.sha256_hex.s": incl.get("_util.sha256_hex", 0.0),
    }
