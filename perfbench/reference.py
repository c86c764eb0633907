"""A fixed pure-Python job that times the machine, not the package.

The machines this benchmark runs on are shared, and their speed drifts
by up to a factor of two over seconds as neighbours come and go.  The
package is pure Python, so the same drift slows this job, which uses
only `oracle` and never the package.  Timing the job throughout a pass
and scaling each operation's time by `NOMINAL_S` over the job's time
nearby cancels most of the drift; `normalized` does the scaling.  A change to
the package cannot change this job, so it cannot move the yardstick.
"""

from __future__ import annotations

import gc
from itertools import islice, product
from time import perf_counter

import oracle

NOMINAL_S = 0.010  # the job's median time on the machine the benchmark was defined on
_PROFILES = list(islice(product(oracle.weak_orders(4), repeat=2), 120))


def job() -> float:
    """Seconds the fixed job takes now; garbage collection held off."""
    was_enabled = gc.isenabled()
    gc.disable()  # so that the package's heap cannot slow the job
    try:
        start = perf_counter()
        for f in _PROFILES:
            oracle.verdict("borda", f, 4, 0, ())
            oracle.majority(f, 4)
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def normalized(seconds: float, jobs: list[float]) -> float:
    """`seconds` at the nominal speed, given the job times around them."""
    return seconds * NOMINAL_S * len(jobs) / sum(jobs)
