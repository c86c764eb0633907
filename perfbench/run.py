"""arrovian benchmark: time to verdict on four verification workloads.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its
`src` directory, never from an installed copy.  The run

1. writes the workload's seeded inputs to `.perfbench-work/` in the
   checkout (removed at exit), with their known answers;
2. measures set-up: the time of `import arrovian.cli` in a fresh
   interpreter, eight times before the passes and eight times after;
3. runs passes over the operation list, each pass in a fresh
   interpreter (passrun.py), one after another, until `--seconds` have
   passed and at least two passes have run.  With `--trace 1`, untraced
   and traced passes alternate;
4. prints an information line (environment, per-operation medians,
   failures) and, last, the result line: `correct`, `attempted`, `failed`
   and `metrics`.

End-to-end metrics (`--trace 0`) are medians over passes.  Times are
normalized by a reference job sampled throughout each pass
(reference.py), because the shared machines drift in speed; the
information line also gives the raw median.  Per-layer metrics
(`--trace 1`) are medians over the traced passes, plus
`tracing_overhead` (traced over untraced `wall_s`) and `src.lines`;
their span times are raw.

Exit codes: 0 when every operation except the known defects showed its
known answer; 1 when one did not (the result line still prints, with
`"correct": false`); 2 when the checkout has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 8  # before the passes and again after them
RUN_LIMIT_S = 170  # a run must end within 180 s


def _env(root: str) -> dict:
    env = dict(os.environ)
    # The environment must not choose a code path: no thread setting,
    # no installed copy shadowing the checkout, one hash seed.
    env.pop("ARROVIAN_THREADS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(argv: list[str], cwd: str, env: dict, timeout: float) -> str:
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_samples(root: str, env: dict) -> list[float]:
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py")]
    return [float(_child(argv, root, env, 60)) for _ in range(SETUP_SAMPLES)]


def src_lines(root: str) -> int:
    total = 0
    pkg = os.path.join(root, "src", "arrovian")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def run_passes(workdir: str, env: dict, seconds: int, trace: bool, started: float) -> list[tuple[bool, dict]]:
    """(traced, result) per pass, untraced and traced alternating under --trace 1."""
    argv = [sys.executable, os.path.join(HERE, "passrun.py"), os.path.join(workdir, "ops.json")]
    passes: list[tuple[bool, dict]] = []
    begin = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        budget = RUN_LIMIT_S - (perf_counter() - started)
        line = _child(argv + ["1" if traced else "0"], workdir, env, budget)
        passes.append((traced, json.loads(line)))
        if perf_counter() - begin >= seconds and len(passes) >= 2:
            return passes


def _wall(result: dict, key: str = "n") -> float:
    return sum(op[key] for op in result["ops"])


def end_to_end(plain: list[dict], setup: list[float]) -> dict:
    """Medians over passes, and over the set-up samples.

    The slowest operation is the one with the largest median time over
    the passes; a pass always runs the same operations in the same order.
    """
    attempted = sum(len(r["ops"]) for r in plain)
    passed = sum(op["why"] is None for r in plain for op in r["ops"])
    per_op = zip(*([op["n"] for op in r["ops"]] for r in plain))
    return {
        "wall_s": (statistics.median(_wall(r) for r in plain), "s"),
        "slowest_op_s": (max(statistics.median(times) for times in per_op), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        "pass_share": (passed / attempted, "ratio"),
    }


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in ("s", "self_s"):
        return "s"
    return {"leaf_ratio": "ratio", "bytes": "bytes"}.get(suffix, "count")


def per_layer(plain: list[dict], traced: list[dict], root: str) -> dict:
    out = {
        name: (statistics.median(r["layers"][name] for r in traced), _unit(name))
        for name in traced[0]["layers"]
    }
    overhead = statistics.median(_wall(r) for r in traced) / statistics.median(_wall(r) for r in plain)
    out["tracing_overhead"] = (overhead, "ratio")
    out["src.lines"] = (src_lines(root), "lines")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "arrovian", "cli.py")):
        print("error: run from the root of an arrovian checkout (src/arrovian is missing)", file=sys.stderr)
        return 2
    env = _env(root)
    workdir = os.path.join(root, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        with open(os.path.join(workdir, "ops.json"), "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        setup_samples(root, env)  # warms the bytecode cache; users run with it warm
        setup = setup_samples(root, env)
        passes = run_passes(workdir, env, args.seconds, bool(args.trace), started)
        setup += setup_samples(root, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    plain = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    records = [op for _, r in passes for op in r["ops"]]
    failures = sorted({f"{op['label']}: {op['why']}" for op in records if op["why"] and not op["defect"]})
    known = sorted({f"{op['label']}: {op['why']}" for op in records if op["why"] and op["defect"]})
    package_file = passes[0][1]["package"]["file"]
    if not os.path.abspath(package_file).startswith(os.path.join(root, "src") + os.sep):
        failures.append(f"measured {package_file}, not the checkout's package")

    by_label: dict[str, list[float]] = {}
    for op in (op for r in plain for op in r["ops"]):
        by_label.setdefault(op["label"], []).append(op["n"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "package_version": passes[0][1]["package"]["version"],
        "src_lines": src_lines(root),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "raw_wall_s": statistics.median(_wall(r, "s") for r in plain),
        "traced_raw_wall_s": statistics.median(_wall(r, "s") for r in traced) if traced else None,
        "reference_job_s": statistics.median(t for _, r in passes for t in r["jobs"]),
        "op_median_s": {k: round(statistics.median(v), 6) for k, v in sorted(by_label.items())},
        "known_defects": known,
        "failures": failures,
    }
    print(json.dumps({"info": info}))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    metrics = per_layer(plain, traced, root) if args.trace else end_to_end(plain, setup)
    result = {
        "correct": not failures,
        "attempted": sum(len(r["ops"]) for r in plain + traced),
        "failed": sum(op["why"] is not None for op in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
