"""Time `import arrovian.cli` in this fresh interpreter, normalized.

    python3 setup_probe.py

Run with the checkout's `src` on PYTHONPATH.  Prints the import time
scaled by the reference job, timed twice just before the import and
twice just after it.
"""

from time import perf_counter

import reference

before = [reference.job(), reference.job()]
start = perf_counter()
import arrovian.cli  # noqa: E402,F401
elapsed = perf_counter() - start
print(reference.normalized(elapsed, before + [reference.job(), reference.job()]))
