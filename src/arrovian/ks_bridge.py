"""The bridge between aggregation rules and ultrafilters of coalitions.

A coalition U is *decisive* for an SWF when, on every domain profile
and every ordered pair (x, y), all of U strictly preferring x to y
forces the verdict to prefer x to y.  For rules satisfying axioms a1
through a4 the decisive coalitions form an ultrafilter over the voters;
on a finite electorate every ultrafilter is principal, generated by a
single voter, and that generator is precisely the dictator.  Both
directions are exercised here by explicit computation:

* `extract_decisive_family` scans every coalition against every profile
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

from dataclasses import dataclass

from .filters import CoalitionFamily, FilterClassification, classify, is_ultrafilter_complement
from .profiles import Domain, Profile, enumerate_profiles
from .relations import BinaryRelation, PairStance, WeakOrder, ordered_pairs, to_canonical, validate_weak_order
from .kernel import FIRST, domain_kernel
from .swf import AxiomReport, ExplicitSwf, Swf, find_dictator, full_report, require_defined


class NotArrovianError(ValueError):
    """The SWF under extraction fails one of axioms a1 through a4."""

    def __init__(self, report: AxiomReport):
        self.report = report
        failed = [name for name in ("a1", "a2", "a3", "a4") if not getattr(report, name)]
        super().__init__(f"swf violates {', '.join(failed)}; decisive-family theory needs a1-a4")


@dataclass
class DecisiveFamily:
    """The extracted family plus a note about where it came from."""

    family: CoalitionFamily
    provenance: str


def extract_decisive_family(swf: Swf, require_arrovian: bool = True) -> DecisiveFamily:
    """Collect every decisive coalition by exhaustive scan.

    With `require_arrovian` (the default) the SWF is audited first and
    a NotArrovianError raised on an a1-a4 failure; pass False to get
    the raw family of a non-Arrovian rule for diagnostics.
    """
    if require_arrovian:
        report = full_report(swf)
        if not report.arrovian():
            raise NotArrovianError(report)
    k = domain_kernel(swf.m, swf.n, swf.domain)
    cols = swf.stance_columns(k)
    require_defined(swf, k, cols)
    # Supporter sets that some verdict overrules; a coalition is decisive
    # exactly when it lies inside none of them.
    overruled = set()
    for support, col in zip(k.support, cols):
        overruled.update(mask for mask, s in zip(support, col) if s != FIRST)
    members = [c for c in range(1 << swf.n) if not any(c & ~mask == 0 for mask in overruled)]
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
    verdicts: dict[Profile, WeakOrder] = {}
    for f in enumerate_profiles(m, n, domain):
        grid = [[False] * m for _ in range(m)]
        for x, y in ordered_pairs(m):
            mask = 0
            for v in range(n):
                if f.stance(v, x, y) is PairStance.FIRST_PREFERRED:
                    mask |= 1 << v
            grid[x][y] = mask in u.masks
        rel = BinaryRelation(tuple(tuple(row) for row in grid))
        res = validate_weak_order(rel)
        if not res.ok:
            raise RuntimeError(
                f"internal invariant violated: ultrafilter verdict failed {res.axiom} at {res.witness}"
            )
        verdicts[f] = to_canonical(rel)
    return ExplicitSwf(m, n, domain, verdicts)


@dataclass
class Ks2Report:
    """Non-dictatorship versus freeness of the decisive family."""

    dictator: int | None
    family: DecisiveFamily
    classification: FilterClassification
    consistent: bool
    generator: frozenset[int]

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
    extracted = extract_decisive_family(swf)
    cls = classify(extracted.family)
    dictator = find_dictator(swf)
    free = not cls.fixed
    return Ks2Report(
        dictator=dictator,
        family=extracted,
        classification=cls,
        consistent=(dictator is None) == free,
        generator=cls.core,
    )
