"""Fast self-check of the benchmark at tiny input sizes.

    python3 perfbench/selfcheck.py

Runs every workload named in BENCHMARK.json untraced and traced, and checks
that the result line has the agreed shape and names every declared metric
with its declared unit, that the human-readable summary names them too, and
that the traced self times add up to the traced wall time.  Then it checks
the failure paths in copies under .bench_build/: a directory without the
program sources must exit nonzero without a result, and so must a copy of the
program whose Jones values are corrupted, both for a seed with a pinned
digest and for one checked only by invariant identities.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_build", "selfcheck")

# A corruption that flips the sign of every Jones coefficient.
MUTATION = (
    os.path.join("src", "tlinks", "invariants.py"),
    "return LaurentPoly({-e: c for e, c in f.terms()})",
    "return LaurentPoly({-e: -c for e, c in f.terms()})",
)


def run(root: str, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def check_workload(spec: dict, workload: str, errors: list[str]) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        where = f"{workload} --trace {trace}"
        proc = run(ROOT, workload, 0, trace)
        doc = result_line(proc)
        if proc.returncode != 0 or doc is None:
            errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
            continue
        if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
            errors.append(f"{where}: result keys {sorted(doc)}")
        if doc.get("correct") is not True or doc.get("attempted", 0) < 1 or doc.get("failed") != 0:
            errors.append(f"{where}: correct/attempted/failed = {doc.get('correct')}, "
                          f"{doc.get('attempted')}, {doc.get('failed')}")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m.get("unit") for name, m in doc["metrics"].items()}
        if printed != declared:
            errors.append(f"{where}: printed {printed}, declared {declared}")
        for name, m in doc["metrics"].items():
            if not isinstance(m.get("value"), (int, float)):
                errors.append(f"{where}: {name} has no numeric value")
        summary = proc.stdout.strip().splitlines()[:-1]
        for name, unit in declared.items():
            if not any(line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}")
                       for line in summary):
                errors.append(f"{where}: summary does not print {name} in {unit}")
        if trace:
            unaccounted = doc["metrics"]["trace.unaccounted_frac"]["value"]
            if not 0 <= unaccounted < 0.01:
                errors.append(f"{where}: self times leave {unaccounted:.2%} of the wall time")


def copy_tree(dest: str, with_sources: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=ignore)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)


def check_failure_paths(errors: list[str]) -> None:
    empty = os.path.join(WORK_DIR, "empty")
    copy_tree(empty, with_sources=False)
    proc = run(empty, "words", 0, 0)
    if proc.returncode == 0 or result_line(proc) is not None:
        errors.append("a directory without the sources did not fail cleanly")

    mutant = os.path.join(WORK_DIR, "mutant")
    copy_tree(mutant, with_sources=True)
    path, old, new = MUTATION
    with open(os.path.join(mutant, path), encoding="utf-8") as fh:
        text = fh.read()
    if old not in text:
        print(f"selfcheck: mutation target gone from {path}; skipping the mutant run")
        return
    with open(os.path.join(mutant, path), "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    for seed in (0, 7):
        proc = run(mutant, "words", seed, 0)
        if proc.returncode == 0 or result_line(proc) is not None:
            errors.append(f"corrupted Jones values passed the gate at seed {seed}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors: list[str] = []
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"], errors)
    check_failure_paths(errors)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
