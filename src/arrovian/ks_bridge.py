"""The bridge between aggregation rules and ultrafilters of coalitions.

A coalition U is *decisive* for an SWF when, on every domain profile
and every ordered pair (x, y), all of U strictly preferring x to y
forces the verdict to prefer x to y.  For rules satisfying axioms a1
through a4 the decisive coalitions form an ultrafilter over the voters;
on a finite electorate every ultrafilter is principal, generated by a
single voter, and that generator is precisely the dictator.  Both
directions are exercised here by explicit computation:

* `extract_decisive_family` audits the SWF, refuses one that fails a1-a4
  (`NotArrovianError`), then scans every coalition against every profile
  and pair, quantifying over the enumerated domain exactly (membership
  is read off the stated implication, all qualifying coalitions kept).
* `swf_from_ultrafilter` runs the construction the other way: the
  verdict prefers x to y exactly when the coalition of voters who do
  belongs to the ultrafilter.

Extraction and construction are mutually inverse on ultrafilters, and
`verify_ks2` packages the freeness test: a rule is non-dictatorial
exactly when its decisive family has empty core, which a finite ground
set never allows.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from ._util import Value
from .filters import CoalitionFamily, FilterClassification, classify, is_ultrafilter_complement, set_to_mask
from .profiles import Domain, TriPartition, enumerate_tripartitions
from .kernel import (
    ABSENT, FIRST, MISSING, SECOND, TIE, ColumnFacts, DomainKernel, compose, compose_rows, domain_kernel, split_columns,
)
from .swf import AxiomReport, ExplicitSwf, Swf, audit_columns


class NotArrovianError(ValueError):
    """The SWF under extraction fails one of axioms a1 through a4."""

    def __init__(self, report: AxiomReport):
        self.report = report
        failed = [name for name in ("a1", "a2", "a3", "a4") if not getattr(report, name)]
        super().__init__(f"swf violates {', '.join(failed)}; decisive-family theory needs a1-a4")


class DecisiveFamily(Value):
    """The extracted family plus a note about where it came from."""

    __slots__ = ("family", "provenance")
    __hash__ = None  # mutable

    def __init__(self, family: CoalitionFamily, provenance: str) -> None:
        self.family, self.provenance = family, provenance


def extract_decisive_family(swf: Swf) -> DecisiveFamily:
    """Collect every decisive coalition by exhaustive scan.

    The SWF is audited first, and an a1-a4 failure raises NotArrovianError.
    """
    _, k, facts = _audit_arrovian(swf)
    return _decisive_family(swf, k, facts)


def _audit_arrovian(swf: Swf) -> tuple[AxiomReport, DomainKernel, list[ColumnFacts]]:
    report, k, facts = audit_columns(swf)
    if not report.arrovian():
        raise NotArrovianError(report)
    return report, k, facts


def _decisive_family(swf: Swf, k: DomainKernel, facts: list[ColumnFacts]) -> DecisiveFamily:
    # Coalition c, a voter bitmask, is overruled where all of c strictly prefers a pair's first and the verdict does not
    pairs = [(facts[q].over[r], rows) for (q, r), rows in zip(k.slot, k.strict_support)]
    members = [
        c for c in range(1 << swf.n)
        if not any(reduce(and_, (rows[v] for v in range(swf.n) if c >> v & 1), over) for over, rows in pairs)
    ]
    family = CoalitionFamily(swf.n, frozenset(members))
    return DecisiveFamily(family, provenance=swf.describe())


def swf_from_ultrafilter(u: CoalitionFamily, m: int, n: int, domain: Domain) -> ExplicitSwf:
    """Build the SWF whose verdicts follow the ultrafilter's say.

    x beats y in the verdict exactly when the coalition preferring x to
    y belongs to u.  Filter algebra guarantees every verdict is a weak
    order; a failure here would be an internal fault, not an input one.
    """
    if u.n != n:
        raise ValueError(f"ultrafilter ground set n={u.n} does not match n={n}")
    if not is_ultrafilter_complement(u):
        raise ValueError("the family is not an ultrafilter (complement test failed)")
    k = domain_kernel(m, n, domain)

    def code(t: TriPartition) -> int:
        forward, reverse = set_to_mask(t.first, n) in u.masks, set_to_mask(t.second, n) in u.masks
        # MISSING marks a pair where u holds both supporter coalitions.
        if forward:
            return MISSING if reverse else FIRST
        return SECOND if reverse else TIE

    lut = bytes(map(code, enumerate_tripartitions(n, domain)))  # laid out over the splits
    cols = split_columns(k, [lut] * len(k.canonical))
    row = compose_rows(k, cols)
    if ABSENT in row:
        codes = tuple(col[row.index(ABSENT)] for col in cols)
        if MISSING in codes:
            failed = f"O1 at {k.canonical[codes.index(MISSING)]}"
        else:
            res = compose(m, codes)[1]
            failed = f"{res.axiom} at {res.witness}"
        raise RuntimeError(f"internal invariant violated: ultrafilter verdict failed {failed}")
    return ExplicitSwf.from_row(m, n, domain, row)


class Ks2Report(Value):
    """Non-dictatorship versus freeness of the decisive family."""

    __slots__ = ("dictator", "family", "classification", "consistent", "generator")
    __hash__ = None  # mutable

    def __init__(
        self, dictator: int | None, family: DecisiveFamily, classification: FilterClassification, consistent: bool,
        generator: frozenset[int],
    ) -> None:
        self.dictator, self.family, self.classification = dictator, family, classification
        self.consistent, self.generator = consistent, generator

    def to_json_dict(self) -> dict:
        return {
            "dictator": self.dictator,
            "family": self.family.family.to_json_dict(),
            "provenance": self.family.provenance,
            "classification": self.classification.to_json_dict(),
            "consistent": self.consistent,
            "generator": sorted(self.generator),
        }


def verify_ks2(swf: Swf) -> Ks2Report:
    """Check that no-dictator coincides with a free decisive family.

    On finite electorates the family is always fixed and the rule always
    has a dictator, so `consistent` asserts the two negatives agree.
    """
    report, k, facts = _audit_arrovian(swf)
    extracted = _decisive_family(swf, k, facts)
    cls = classify(extracted.family)
    dictator = report.dictator
    free = not cls.fixed
    return Ks2Report(
        dictator=dictator,
        family=extracted,
        classification=cls,
        consistent=(dictator is None) == free,
        generator=cls.core,
    )
