"""Exhaustive verification of preference-aggregation axioms at desk scale.

The package enumerates weak orders, profiles and pairwise verdict rules
over small alternative and voter sets, audits the five classical
aggregation axioms with machine-checked witnesses, searches the full
rule space for survivors, ties decisive coalitions to filters and
ultrafilters over the electorate, and carries the contrast to an
infinite electorate restricted to finite-or-cofinite coalitions.
"""

from .arrow_search import (
    SearchCertificate,
    SearchIncompleteError,
    SurvivorRecord,
    build_problem,
    search_arrovian,
)
from .fc_infinite import (
    EMPTY,
    NATURALS,
    EventuallyConstantProfile,
    FcMode,
    FcSet,
    FcTriple,
    InvalidTripleError,
    decide_frechet_membership,
    decisive_coalition_test,
    dictator_rule,
    dictator_stance,
    fc_complement,
    fc_intersect,
    fc_member,
    fc_union,
    format_fc,
    frechet_stance,
    frechet_verdict,
    non_dictatorship_witness,
    validate_fc_filter_axioms,
)
from .filters import (
    CoalitionFamily,
    FilterCheck,
    FilterClassification,
    classify,
    enumerate_filters,
    is_filter,
    is_ultrafilter_complement,
)
from .ks_bridge import (
    DecisiveFamily,
    Ks2Report,
    NotArrovianError,
    extract_decisive_family,
    swf_from_ultrafilter,
    verify_ks2,
)
from .profiles import (
    BudgetExceededError,
    Domain,
    Profile,
    ProfileFormatError,
    TriPartition,
    condorcet_profile,
    enumerate_profiles,
    pairwise_majority,
    parse_profile_json,
    profile_from_texts,
)
from .relations import (
    AlternativeSet,
    BinaryRelation,
    PairStance,
    ValidationResult,
    WeakOrder,
    enumerate_linear_orders,
    enumerate_weak_orders,
    format_weak_order,
    pair_stance,
    parse_weak_order,
    to_canonical,
    validate_weak_order,
)
from .swf import (
    AxiomReport,
    CompositionFailure,
    ExplicitSwf,
    PairwiseRuleSwf,
    SwfFormatError,
    check_independence,
    check_unanimity,
    derive_rules,
    expand_to_explicit,
    find_dictator,
    full_report,
    parse_swf_json,
    swf_to_json_dict,
)

__version__ = "0.1.0"
