"""Exhaustive verification of preference-aggregation axioms at desk scale.

The package enumerates weak orders, profiles and pairwise verdict rules
over small alternative and voter sets, audits the five classical
aggregation axioms with machine-checked witnesses, searches the full
rule space for survivors, ties decisive coalitions to filters and
ultrafilters over the electorate, and carries the contrast to an
infinite electorate restricted to finite-or-cofinite coalitions.

Each name is imported from the module that defines it, for example
`from arrovian.swf import full_report`; the package root holds only the
version.
"""

__version__ = "0.1.0"
