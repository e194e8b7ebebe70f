"""Benchmark of the tlinks toolkit: end-to-end and per-layer figures.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 45 --trace 0

Workloads (see README.md for why each was chosen):

* ``sweep``: ``cross_validate`` over the p <= 9 grid, then the JSON and CSV
  reports with timings off, as ``tlinks sweep --out --csv`` does.
* ``words``: seeded random braid words, each parsed from the wire format and
  passed to ``bundle`` at the default crossing guard, as ``tlinks
  invariants`` does.

Every repetition runs in a fresh interpreter (``worker.py``), one at a time,
on a closed loop at ``jobs=1``, so the ``lru_cache``s start cold as they do
for a command-line user.  Repetitions are started until ``--seconds`` have
passed.  With ``--trace 0`` the end-to-end figures come from untraced
repetitions.  With ``--trace 1`` untraced and traced repetitions alternate;
the traced ones give the per-layer figures and the pair gives the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any output that
differs from its pinned digest, breaks an invariant identity or disagrees
between repetitions ends the run with exit status 1 and no result line.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "decisive_frac": "ratio",
}
PER_LAYER = {
    "invariants.alexander.self_s": "s",
    "invariants.alexander.calls": "count",
    "invariants.alexander.hit_ratio": "ratio",
    "invariants.alexander.cache_size": "count",
    "invariants.reduced_burau.self_s": "s",
    "invariants.jones.self_s": "s",
    "invariants.jones.available_ratio": "ratio",
    "invariants.torus_reference.self_s": "s",
    "invariants.torus_reference.hit_ratio": "ratio",
    "invariants.torus_reference.cache_size": "count",
    "invariants.bundle.self_s": "s",
    "laurent.determinant.self_s": "s",
    "laurent.determinant.calls": "count",
    "garside.normal_form.self_s": "s",
    "garside.normal_form.calls": "count",
    "garside.normal_form.cache_size": "count",
    "garside.canonical_length_sum": "count",
    "garside.full_twist_ratio": "ratio",
    "oracle.certify_bundle.self_s": "s",
    "oracle.candidates": "count",
    "oracle.cross_validate.self_s": "s",
    "classify.classify_form.self_s": "s",
    "tlink.self_s": "s",
    "tlink.letters_out": "count",
    "braid.letters_in": "count",
    "braid.parse_braid_text.self_s": "s",
    "cli.report_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}

SETUP_SAMPLES = 5  # set-ups timed per run, measured repetitions included
BUDGET_S = 150.0  # no repetition starts that could end after this
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def run_child(args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Start one worker and wait for it; return (set-up seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(args)} failed with exit status {code}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def build() -> None:
    """Check that the sources are here and byte-compile them once."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tlinks", "__init__.py")):
        raise BenchError(f"no tlinks sources under {src}")
    if not (compileall.compile_dir(src, quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        raise BenchError("byte-compiling the sources failed")


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str):
    """Run repetitions for `seconds`; return (setups, untraced, traced)."""
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    loop_start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - loop_start
        enough = untraced and (traced or not trace)
        # Stop where the run ends closest to `seconds`: a repetition that
        # would end more than half of itself past the mark is not started.
        if enough and elapsed + 0.5 * elapsed / len(setups) >= seconds:
            break
        if elapsed + 1.25 * longest > BUDGET_S:
            if enough:
                break
            raise BenchError("a repetition takes too long to fit the time budget")
        with_trace = trace and len(untraced) > len(traced)
        child_start = time.perf_counter()
        setup_s, result = run_child(
            base + ["--trace", str(int(with_trace))], CHILD_TIMEOUT_S
        )
        longest = max(longest, time.perf_counter() - child_start)
        setups.append(setup_s)
        (traced if with_trace else untraced).append(result)
    while len(setups) < SETUP_SAMPLES and time.perf_counter() - loop_start < BUDGET_S:
        setup_s, _ = run_child(base + ["--trace", "0", "--setup-only"], CHILD_TIMEOUT_S)
        setups.append(setup_s)
    return setups, untraced, traced


def check(results: list[dict]) -> None:
    problems = [p for r in results for p in r["problems"]]
    for key in ("digests", "decisive_frac", "items"):
        if len({json.dumps(r[key]) for r in results}) > 1:
            problems.append(f"{key} differs between repetitions")
    if problems:
        shown = "\n  ".join(problems[:20])
        more = f"\n  ... and {len(problems) - 20} more" if len(problems) > 20 else ""
        raise BenchError(f"output check failed:\n  {shown}{more}")


def end_to_end(workload: str, setups: list[float], untraced: list[dict]) -> dict[str, float]:
    walls = [r["wall_s"] for r in untraced]
    if workload == "words":
        calls_ms = [s * 1000 for r in untraced for s in r["latencies_s"]]
    else:
        # A sweep is one call: its latency is the whole sweep.
        calls_ms = [w * 1000 for w in walls]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in untraced),
        "call_p50_ms": quantile(calls_ms, 50),
        "call_p95_ms": quantile(calls_ms, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "decisive_frac": untraced[0]["decisive_frac"],
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in PER_LAYER
        if name != "trace.overhead_frac"
    }
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "words"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Input size: "tiny" is for perfbench/selfcheck.py only.
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args()

    try:
        build()
        setups, untraced, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
        runs = untraced + traced
        check(runs)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, units = per_layer(untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(args.workload, setups, untraced), END_TO_END
    attempted = sum(r["items"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    calls = sum(len(r.get("latencies_s", ())) for r in untraced) or len(untraced)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(untraced)} untraced and {len(traced)} traced repetitions, "
        f"{len(setups)} set-ups, {calls} timed calls"
    )
    print(f"  failed_frac = {failed / attempted} ({failed} of {attempted})")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
