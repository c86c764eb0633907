"""Complete search for aggregation rules satisfying the first four axioms.

The search space is the independence quotient: one decision cell per
(pair of alternatives, reachable tri-partition of the voters), each
cell taking a stance FIRST, SECOND or INDIFFERENT.  A full assignment
is a `PairwiseRuleSwf`; it survives when

* unanimity holds (cells whose first part is every voter are FIRST,
  cells whose second part is every voter are SECOND; a unanimous tie
  imposes nothing), and
* every domain profile assembles into a valid weak order.

A relation of per-pair stances is a weak order exactly when it is one
on every triangle a < b < c, so each profile's constraint is the
conjunction of its C(m, 3) triangle restrictions, and those are the
three-alternative profiles: the constraints are the rows of the m=3
kernel, put on the cells of (a, b), (a, c) and (b, c) of each triangle.
A row's three cells must take one of the 13 stance triples of the weak
orders on three alternatives.  Those ternary constraints drive a
depth-first search with generalized arc consistency; the propagation
only ever deletes stances with no support, so no surviving rule can be
missed, and the leaf-plus-pruned accounting proves that the whole space
was covered.  A search is bounded by the profile budget at the requested
(m, n, domain) and by MAX_SEARCH_PROFILES, both checked before anything
is built, and by the node budget.  The backtracking keeps its own stack, so
a deep problem does not meet Python's recursion limit.

A node is one stance tried at one cell, and most cells are bound by
propagation before the search reaches them.  A bound cell j of stance b
costs b + 1 nodes and b pruned events on the way down, 2 - b of each on
the way back, and 2 * 3**(cells - j - 1) of `pruned_total` in all.  So
after each successful step the run [r, e) of bound cells that follows is
read as one base-3 digit string D, through one `bytes.translate`, and
jumped whole to the first unbound cell or the leaf: `pruned_total` gains
int(D, 3) * 3**(cells - e) on the way down, and (3**(e - r) - 1 - int(D, 3))
* 3**(cells - e) when the search backtracks from e straight to the
decision before r.  The budget stop and the progress reports fall between
nodes, so a run among whose nodes either falls is stepped cell by cell by
the same loop, and every counter they see is the one-node-per-turn count.

Propagation is table-driven: a cell's domain is a 3-bit stance mask,
and a queue holds the constraints of the cells whose masks shrank.  A
constraint (c1, c2, c3) is revised through one support table: entry
`d1 | d2 << 3 | d3 << 6` holds the supported stances
`s1 | s2 << 3 | s3 << 6`, computed once from the 13 triples, so a
revision that changes nothing is one lookup and one comparison.  Each
cell's watcher list holds references to the constraint tuples, so a
constraint is stored once however many cells watch it.  A decision at
cell d revises only the constraints that reach a cell after d: the
others join d to cells bound before it, which the previous fixpoint
already made consistent with every stance left at d, and a decision on
a cell that propagation has bound revises nothing.  Every survivor is
still audited by `swf.full_report` over the m-ary profiles, an
independent profile-level cross-check.

A cell is an integer: cell `q * len(splits) + j` is the stance of
`pairs[q]` at split position j, tri-partition code `splits[j]`.  A
survivor is its leaf, one stance byte per cell, and its dictator;
`leaf_rule` cuts the leaf into the rule's per-pair layout, which the
audit reads as it is, with no table built.

Determinism: cells are ordered by (pair, split position), stances
are tried FIRST < SECOND < INDIFFERENT, and certificates serialize with
sorted keys, a run of survivors at a time, in the same bytes each run.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from time import perf_counter
from typing import Callable, Iterator, Sequence

from ._util import _SLICE, Value, _quote, _render, canonical_json
from .kernel import STANCES, domain_kernel, triangles, verdict_codes
from .profiles import BudgetExceededError, Domain, check_profile_space, domain_size
from .relations import MAX_ALTERNATIVES, unordered_pairs
from .swf import PairwiseRuleSwf, full_report, swf_to_json_dict

DEFAULT_MAX_NODES = 1_000_000
_REPORT_EVERY = 100_000  # nodes between progress reports
# A bound cell's mask 1 << s, as its stance s.
_STANCE_OF_MASK = bytes.maketrans(b"\x01\x02\x04", b"\x00\x01\x02")
# A bound cell's stance as a base-3 digit, "-" for an unbound cell; and the stance after it.
_DIGIT_OF_MASK = bytes.maketrans(bytes(range(8)), b"-01-2---")
_NEXT_OF_MASK = bytes.maketrans(b"\x01\x02\x04", b"\x01\x02\x03")
# The survivor audit's kernel retains 34-68 bytes per m-ary profile and peaks
# below 100 (tracemalloc over `domain_kernel` and the `full_report` of a dictator
# rule, 5,625 to 371,293 profiles at m=3 and 4), so a search takes at most this
# many, under 10 MB; m=4, n=5 linear would retain about 500 MB at that rate.
# The C(m, 3) * |D3|**n triangle constraints never outnumber them.
MAX_SEARCH_PROFILES = 100_000
# An entry of the survivor audit's column memo holds about 4 bytes per m-ary profile; past this many, it starts over.
MEMO_BYTES = 1 << 23


class SearchIncompleteError(RuntimeError):
    """The node budget ran out before the space was covered; `counters` are those reached, as `progress` gets them."""

    counters = property(lambda self: self.args[0])  # the only argument, so that the error pickles

    def __str__(self) -> str:
        return f"node budget {self.counters['nodes']} exhausted with the space not yet covered"


class SearchProblem(Value):
    """Cell `q * len(splits) + j` is the stance of `pairs[q]` at split position j, code `splits[j]`.

    `watchers[x]` holds the constraints on cell x, each the very tuple of
    `constraints`; `later[x]` keeps those in which x is not the last cell,
    so some other cell comes after x.
    """

    __slots__ = ("m", "n", "domain", "pairs", "splits", "constraints", "watchers", "later", "forced")
    __hash__ = None  # mutable

    def __init__(
        self, m: int, n: int, domain: Domain, pairs: list[tuple[int, int]], splits: list[int],
        constraints: tuple[tuple[int, int, int], ...], watchers: tuple[tuple[tuple[int, int, int], ...], ...],
        later: tuple[tuple[tuple[int, int, int], ...], ...], forced: dict[int, int],
    ) -> None:
        self.m, self.n, self.domain, self.pairs, self.splits = m, n, domain, pairs, splits
        self.constraints, self.watchers, self.later, self.forced = constraints, watchers, later, forced


@lru_cache(maxsize=None)
def _allowed_triples() -> tuple[tuple[int, int, int], ...]:
    """The stance triples on (0, 1), (0, 2), (1, 2) of the weak orders on three: the columns of `verdict_codes(3)`."""
    return tuple(sorted(zip(*(codes[:-1] for codes in verdict_codes(3)))))


@lru_cache(maxsize=None)
def _support_table() -> tuple[int, ...]:
    """Supported stance masks of a constraint's three cells, by their domains, in constraint order.

    Entry `d1 | d2 << 3 | d3 << 6` is `s1 | s2 << 3 | s3 << 6`: the stances of each cell that occur
    in an allowed triple drawn from the three domain masks, each triple packed so and ORed into the
    64 keys whose masks hold it.  An entry equal to its key changes nothing, and 0 is a wipeout.
    """
    holding = [[d for d in range(8) if d >> s & 1] for s in range(3)]  # the four masks that hold stance s
    table = [0] * 512
    for s1, s2, s3 in _allowed_triples():
        for d1, d2, d3 in product(holding[s1], holding[s2], holding[s3]):
            table[d1 | d2 << 3 | d3 << 6] |= 1 << s1 | 8 << s2 | 64 << s3
    return tuple(table)


def build_problem(m: int, n: int, domain: Domain) -> SearchProblem:
    """Cells by (pair, split position), pair q's from q * len(splits) on; constraints by (triangle, m=3 profile).

    A constraint ties the cells of a triangle's pairs, their positions from `triangles(m)`, at the split
    positions that one m=3 profile has on (0, 1), (0, 2) and (1, 2): the columns of the m=3 kernel's `tri`.
    """
    if not 3 <= m <= MAX_ALTERNATIVES:
        raise ValueError(f"the search needs 3 to {MAX_ALTERNATIVES} alternatives, got m={m}")
    check_profile_space(m, n, domain)
    size = domain_size(m, n, domain)
    if size > MAX_SEARCH_PROFILES:
        raise BudgetExceededError(f"domain holds {size} profiles, over the search limit of {MAX_SEARCH_PROFILES}")
    kernel = domain_kernel(3, n, domain)
    pairs, splits = unordered_pairs(m), list(kernel.splits)
    width = len(splits)
    constraints = tuple(
        (qab * width + ab, qac * width + ac, qbc * width + bc)
        for qab, qac, qbc in triangles(m)
        for ab, ac, bc in zip(*kernel.tri)
    )
    # The pairs' cells come in pair order, so c1 < c2 < c3 in every constraint.
    cells = range(len(pairs) * width)
    later: list[list[tuple[int, int, int]]] = [[] for _ in cells]  # constraints with a cell after this one
    last: list[list[tuple[int, int, int]]] = [[] for _ in cells]
    for cons in constraints:
        c1, c2, c3 = cons
        later[c1].append(cons)
        later[c2].append(cons)
        last[c3].append(cons)
    # every voter FIRST is position 0 and every voter SECOND is 1 + b + ... + b**(n-1)
    unanimous = {0: 0, sum(domain.split_base**v for v in range(n)): 1}
    forced = {start + j: s for start in cells[::width] for j, s in unanimous.items()}
    return SearchProblem(
        m=m,
        n=n,
        domain=domain,
        pairs=pairs,
        splits=splits,
        constraints=constraints,
        watchers=tuple(tuple(w + v) for w, v in zip(later, last)),
        later=tuple(map(tuple, later)),
        forced=forced,
    )


def _propagate(
    watchers: tuple[tuple[tuple[int, int, int], ...], ...],
    domains: list[int],
    pending: list[Sequence[tuple[int, int, int]]],
    trail: list[tuple[int, int]],
) -> bool:
    """Generalized arc consistency to fixpoint; False on a domain wipeout.

    `pending` holds the watchers of the cells whose domains changed
    since the last fixpoint, `watchers[x]` for a cell x, and each
    queued constraint (x, a, b) is revised through the one support
    table, keyed and answered in constraint order.  A cell whose domain
    shrinks queues its watchers again, so the fixpoint is the one a
    revision of every constraint would reach.  Only unsupported stances
    are deleted, so every completion that was consistent stays reachable
    (pruning is sound).  Deletions are pushed onto `trail` so the caller
    can restore the exact previous state.
    """
    table = _support_table()
    queue = pending
    for group in queue:  # the loop also reaches the groups appended below
        for x, a, b in group:
            dx = domains[x]
            da = domains[a]
            db = domains[b]
            key = dx | da << 3 | db << 6
            new = table[key]
            if new == key:
                continue
            if not new:
                return False
            s = new & 7
            if s != dx:
                trail.append((x, dx))
                domains[x] = s
                queue.append(watchers[x])
            s = new >> 3 & 7
            if s != da:
                trail.append((a, da))
                domains[a] = s
                queue.append(watchers[a])
            s = new >> 6
            if s != db:
                trail.append((b, db))
                domains[b] = s
                queue.append(watchers[b])
    return True


def leaf_rule(m: int, n: int, domain: Domain, leaf: bytes) -> PairwiseRuleSwf:
    """The rule of a leaf of the (m, n, domain) search, whose layout is the leaf cut into its pairs'
    slices: pair q's stance codes start at byte q * len(splits).  Its `rules` are decoded only when read."""
    width = domain.split_base**n
    return PairwiseRuleSwf.from_layout(m, n, domain, tuple(leaf[i : i + width] for i in range(0, len(leaf), width)))


class SurvivorRecord(Value):
    """A survivor is the leaf that the search produced and its dictator; `swf` is built from the leaf on each access."""

    __slots__ = ("stances", "dictator", "m", "n", "domain")

    def __init__(self, stances: bytes, dictator: int | None, m: int, n: int, domain: Domain) -> None:
        self.stances, self.dictator, self.m, self.n, self.domain = stances, dictator, m, n, domain

    @property
    def swf(self) -> PairwiseRuleSwf:
        return leaf_rule(self.m, self.n, self.domain, self.stances)


class SearchCertificate(Value):
    """Reproducible record of one complete search run.

    `explored_leaves + pruned_total == 3 ** cell_count`: every complete
    assignment is either visited or accounted to a pruned subtree.
    `build_s` and `audit_s`, the wall times of `build_problem` and of the survivor audit, and
    `distinct_columns`, the count of (pair, column) facts the audit computed, are not part of the record.
    """

    _fields = (
        "m", "n", "domain", "cell_count", "forced_cells", "space", "explored_leaves", "pruned_events", "pruned_total",
        "nodes", "survivors",
    )
    __slots__ = (*_fields, "build_s", "audit_s", "distinct_columns")
    __hash__ = None  # mutable

    def __init__(
        self, m: int, n: int, domain: Domain, cell_count: int, forced_cells: int, space: int, explored_leaves: int,
        pruned_events: int, pruned_total: int, nodes: int, survivors: list[SurvivorRecord],
        build_s: float = 0.0, audit_s: float = 0.0, distinct_columns: int = 0,
    ) -> None:
        self.m, self.n, self.domain, self.cell_count, self.forced_cells = m, n, domain, cell_count, forced_cells
        self.space, self.explored_leaves, self.pruned_events = space, explored_leaves, pruned_events
        self.pruned_total, self.nodes, self.survivors = pruned_total, nodes, survivors
        self.build_s, self.audit_s, self.distinct_columns = build_s, audit_s, distinct_columns

    def to_json_dict(self) -> dict:
        return self._json_dict(self.survivors)

    def _json_dict(self, survivors: list[SurvivorRecord]) -> dict:
        return {
            "schema": "arrovian/certificate/v1",
            "parameters": {"m": self.m, "n": self.n, "domain": self.domain.value},
            "cells": self.cell_count,
            "forced_cells": self.forced_cells,
            "space": self.space,
            "explored_leaves": self.explored_leaves,
            "pruned_events": self.pruned_events,
            "pruned_total": self.pruned_total,
            "survivor_count": len(survivors),
            "survivors": [{"dictator": rec.dictator, "rules": swf_to_json_dict(rec.swf)} for rec in survivors],
        }

    def json_slices(self) -> Iterator[str]:
        """`canonical_json(self.to_json_dict())` in slices of about _SLICE characters, each but the last a run of
        survivors, from a template of the first survivor with a slot for the dictator and for each pair's rule list,
        each distinct list rendered once.  `survivors` is the last key, so the survivors end the text."""
        if not self.survivors:
            yield canonical_json(self.to_json_dict())
            return
        doc = self._json_dict(self.survivors[:1])
        (template,) = doc["survivors"]
        rules = template["rules"]["rules"]
        labels = list(rules)  # in pair order
        inner = "\n" + 12 * " "  # a pair's list sits five levels deep, its entries six
        entry = [[_render([split, STANCES[s].value], inner) for s in range(3)] for split, _ in rules[labels[0]]]
        pair_text = cache(lambda cut: ("," + inner).join([e[s] for e, s in zip(entry, cut)]))
        template["dictator"], template["rules"]["rules"] = "\0", dict.fromkeys(labels, ["\0"])
        doc.update(survivor_count=len(self.survivors), survivors=["\0"])
        head, tail = canonical_json(doc).split(_quote("\0"))
        first, *pieces = _render(template, "\n    ").split(_quote("\0"))  # survivors sit two levels deep
        width = len(entry)
        slots = [(labels.index(key) * width, piece) for key, piece in zip(sorted(labels), pieces)]
        out, run = [], 0
        for i, rec in enumerate(self.survivors):
            out += (pieces[-1] + ",\n    " if i else head, first, _render(rec.dictator, ""))
            for start, piece in slots:
                out += (piece, pair_text(rec.stances[start : start + width]))
            run = run or max(1, _SLICE // sum(map(len, out)))  # survivors per slice, by the first one's length
            if i % run == run - 1:
                yield "".join(out)
                out.clear()
        out += (pieces[-1], tail)
        yield "".join(out)


def search_arrovian(
    m: int,
    n: int,
    domain: Domain,
    max_nodes: int = DEFAULT_MAX_NODES,
    progress: Callable[[dict], None] | None = None,
) -> SearchCertificate:
    """Exhaust the rule space of (m, n, domain) and certify the survivors.

    Any 3 <= m <= MAX_ALTERNATIVES and any n whose domain fits both the
    profile budget and MAX_SEARCH_PROFILES is accepted, with max_nodes >= 1
    (ValueError otherwise, before anything is built).  Running out of
    `max_nodes` raises SearchIncompleteError; no partial result is returned.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    build_start = perf_counter()
    problem = build_problem(m, n, domain)
    build_s = perf_counter() - build_start
    cell_count = len(problem.pairs) * len(problem.splits)
    pow3 = [3**i for i in range(cell_count + 1)]
    space = pow3[cell_count]

    domains = [7] * cell_count
    for idx, stance in problem.forced.items():
        domains[idx] = 1 << stance

    watchers, later = problem.watchers, problem.later
    nodes = found = pruned_events = pruned_total = 0
    # one byte per cell; rules are built only once the space is covered
    leaves: list[bytes] = []

    # All-stance domains support each other, so only the forced cells start the root pass.
    if not _propagate(watchers, domains, [watchers[cell] for cell in problem.forced], []):
        pruned_events, pruned_total = 1, space
    else:
        # Backtracking on an explicit stack: level d holds the next stance to
        # try at cell d and the trail of the stance under trial, undone
        # before the next one is tried.
        next_stance = [0] * (cell_count + 1)
        trails: list[list[tuple[int, int]]] = [[] for _ in range(cell_count)]
        # runs[d]: r, and the nodes and pruned_total of stepping back to r, if d was jumped to from r.
        runs: list[tuple[int, int, int] | None] = [None] * (cell_count + 1)
        depth = 0
        while depth >= 0:
            if depth == cell_count:
                found += 1
                leaves.append(bytes(domains).translate(_STANCE_OF_MASK))
                s = 3
            else:
                trail = trails[depth]
                for cell, old in reversed(trail):
                    domains[cell] = old
                trail.clear()
                s = next_stance[depth]
            if s == 3:
                run = runs[depth]
                if run is not None:
                    start, back, total = run  # `back` nodes, each a pruned event
                    if nodes + back <= max_nodes and (nodes + back) // _REPORT_EVERY == nodes // _REPORT_EVERY:
                        nodes, pruned_events, pruned_total = nodes + back, pruned_events + back, pruned_total + total
                        depth = start
                    else:  # step back over the run: each cell has tried stances up to its own
                        next_stance[start:depth] = bytes(domains[start:depth]).translate(_NEXT_OF_MASK)
                        runs[start:depth] = [None] * (depth - start)
                depth -= 1
                continue
            next_stance[depth] = s + 1
            if nodes == max_nodes:
                counters = dict(leaves=found, pruned_events=pruned_events, pruned_total=pruned_total, nodes=nodes)
                raise SearchIncompleteError(counters)
            nodes += 1
            if progress is not None and nodes % _REPORT_EVERY == 0:
                progress(dict(leaves=found, pruned_events=pruned_events, pruned_total=pruned_total, nodes=nodes))
            bit, mask = 1 << s, domains[depth]
            if mask == bit:  # bound already, so the last fixpoint stands
                consistent = True
            elif mask & bit:
                trail.append((depth, mask))
                domains[depth] = bit
                # The cells before `depth` are bound, and the last fixpoint left only stances
                # they support here, so the constraints among them and this cell hold already.
                consistent = _propagate(watchers, domains, [later[depth]], trail)
            else:
                consistent = False
            if not consistent:
                pruned_events += 1
                pruned_total += pow3[cell_count - depth - 1]
                continue
            depth += 1
            runs[depth] = None
            next_stance[depth] = 0
            if depth == cell_count or domains[depth] not in (1, 2, 4):
                continue
            # The bound cells from `depth` on, as the base-3 digits of their stances, are jumped
            # whole unless the budget stop or a progress report falls among their nodes.
            digits = bytes(domains[depth:]).translate(_DIGIT_OF_MASK)
            end = digits.find(b"-") % (len(digits) + 1)  # find's -1: bound up to the leaf
            digits = digits[:end]
            events = digits.count(b"1") + 2 * digits.count(b"2")
            down = nodes + end + events
            if down <= max_nodes and down // _REPORT_EVERY == nodes // _REPORT_EVERY:
                below, weight = int(digits, 3), pow3[cell_count - depth - end]
                nodes, pruned_events, pruned_total = down, pruned_events + events, pruned_total + below * weight
                runs[depth + end] = (depth, 2 * end - events, (pow3[end] - 1 - below) * weight)
                depth += end
                next_stance[depth] = 0

    if found + pruned_total != space:
        raise RuntimeError("accounting mismatch: leaves + pruned does not cover the space")

    audit_start = perf_counter()
    survivors = []
    memo: dict = {}  # survivors share most columns; the memo ends with this call
    computed, cap = 0, MEMO_BYTES // (4 * domain_size(m, n, domain))
    # The DFS fixes cells in order and tries stances 0 < 1 < 2, so leaves arrive sorted.
    for leaf in leaves:
        report = full_report(leaf_rule(m, n, domain, leaf), memo)
        if not report.arrovian():
            raise RuntimeError(f"survivor failed the axiom cross-check: {report.failed()}")
        survivors.append(SurvivorRecord(leaf, report.dictator, m, n, domain))
        if len(memo) > cap:
            computed, memo = computed + len(memo), {}
    return SearchCertificate(
        m=m,
        n=n,
        domain=domain,
        cell_count=cell_count,
        forced_cells=len(problem.forced),
        space=space,
        explored_leaves=found,
        pruned_events=pruned_events,
        pruned_total=pruned_total,
        nodes=nodes,
        survivors=survivors,
        build_s=build_s,
        audit_s=perf_counter() - audit_start,
        distinct_columns=computed + len(memo),
    )
