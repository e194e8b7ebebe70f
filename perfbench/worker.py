"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The protocol on
standard output is two lines: ``ready`` once the inputs are built (the parent
times set-up from its spawn to this line), then one JSON object with the
measured region's results.  A fresh interpreter per repetition means every
``lru_cache`` in tlinks starts cold, as it does for a command-line user.

    python3 perfbench/worker.py --workload sweep --seed 0 --size full --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

# Imported at start-up, so import time counts as set-up.  Calls go through
# the module attributes, where a traced repetition installs its wrappers.
import tlinks.braid as braid  # noqa: E402
import tlinks.cli as cli  # noqa: E402
import tlinks.garside as garside  # noqa: E402
import tlinks.invariants as invariants  # noqa: E402
import tlinks.oracle as oracle  # noqa: E402
from tlinks.laurent import poly_text  # noqa: E402

DEFAULT_SEED = 0

# The grid users run.  p <= 11 is left out: it takes minutes per sweep.
SWEEP = {
    "full": dict(max_p=9, max_n=2, max_s=2, guard=24),
    "tiny": dict(max_p=6, max_n=2, max_s=2, guard=24),
}
# Counts of the full grid on the seed commit of the benchmark.
SWEEP_FULL_COUNTS = {
    "rows": 1064,
    "NotTorus": 1056,
    "TorusMatch": 3,
    "Inconclusive": 5,
    "jones_rows": 38,
}

# Words per class.  Three equal classes stress different engines:
#   short         Kauffman state sum, letters x Catalan(strands) buckets;
#   long_signed   generic Burau product over Laurent polynomials plus the
#                 polynomial Bareiss determinant;
#   long_positive Kronecker-packed Burau determinant and Garside normal form.
WORDS_PER_CLASS = {"full": 400, "tiny": 4}
WORD_CLASSES = (
    # name, strands (lo, hi), letters (lo, hi), signs
    ("short", (5, 9), (12, 24), "half"),
    ("long_signed", (4, 8), (40, 120), "signed"),
    ("long_positive", (4, 8), (30, 80), "positive"),
)

# SHA-256 of the outputs on the seed commit of the benchmark.  The sweep grid
# is fixed, so its reports are pinned for every seed; word digests are pinned
# for the default seed only, and other seeds rely on the identity checks.
PINNED = {
    ("sweep", "full"): {
        "json": "66631c0d92ecd7d36f2edcaff42230ac8a59bd766a4e7ae88c3f380864426073",
        "csv": "fe8a0a95cfb38245621c8218c778b24da91b8712da77975308609d8e65879fee",
    },
    ("sweep", "tiny"): {
        "json": "4a22260bdb7991c2de44e50245fd807a258b5e44c416ba0f929213d823822322",
        "csv": "339ee058ee9b9afba3e32ddba0c4bd8ebbd71523417df8dadafa816e0e4c6af0",
    },
    ("words", "full"): {
        "bundles": "4db9c6d15362a9bbf15a3a14a3663fc32104ca58aee36fe4e6007e1d13137bee",
    },
    ("words", "tiny"): {
        "bundles": "8359548a8d13664aba3538a8fad7eb352244290d309ac235f9115e5c58a37108",
    },
}


def make_word_texts(seed: int, per_class: int) -> list[str]:
    """Distinct random braid words in the ``n=K: e1,...`` wire format.

    Sizes are spread evenly over each class's ranges, so every seed draws the
    same multiset of (strands, letters) and only the letters themselves vary;
    that keeps the total work steady from seed to seed.
    """
    rng = random.Random(seed)
    seen: set[tuple[int, tuple[int, ...]]] = set()
    texts: list[str] = []
    for _, (n_lo, n_hi), (l_lo, l_hi), signs in WORD_CLASSES:
        for i in range(per_class):
            n = n_lo + i % (n_hi - n_lo + 1)
            length = l_lo + i * (l_hi - l_lo + 1) // per_class
            signed = signs == "signed" or (signs == "half" and i % 2 == 1)
            while True:
                letters = [rng.randint(1, n - 1) for _ in range(length)]
                if signed:
                    letters = [e if rng.random() < 0.5 else -e for e in letters]
                    if min(letters) > 0:
                        letters[rng.randrange(length)] *= -1
                key = (n, tuple(letters))
                if key not in seen:
                    break
            seen.add(key)
            texts.append(f"n={n}: " + ",".join(str(e) for e in letters))
    rng.shuffle(texts)
    return texts


def identity_problems(label: str, b) -> list[str]:
    """Delta(1) = +-1 for knots and 0 for links; V(1) = (-2)^(c-1)."""
    problems = []
    alex_at_one = sum(c for _, c in b.alexander.terms())
    if b.components == 1 and alex_at_one not in (1, -1):
        problems.append(f"{label}: knot with Alexander(1) = {alex_at_one}")
    if b.components > 1 and alex_at_one != 0:
        problems.append(f"{label}: link with Alexander(1) = {alex_at_one}")
    if b.jones is not None:
        jones_at_one = sum(c for _, c in b.jones.terms())
        if jones_at_one != (-2) ** (b.components - 1):
            problems.append(
                f"{label}: Jones(1) = {jones_at_one} for {b.components} components"
            )
    return problems


def render_bundle(text: str, b) -> str:
    jones = poly_text(b.jones, quarter_exponents=True) if b.jones is not None else "n/a"
    return (
        f"{text}|{b.components}|{b.letters}|{b.euler_char}|{b.braid_index}"
        f"|{poly_text(b.alexander)}|{jones}\n"
    )


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_digests(workload: str, size: str, seed: int, digests: dict[str, str]) -> list[str]:
    pinned = PINNED[(workload, size)]
    if workload == "words" and seed != DEFAULT_SEED:
        return []
    return [
        f"{name} digest {digests[name]} differs from the pinned {want}"
        for name, want in pinned.items()
        if digests[name] != want
    ]


def build_sweep(size: str, seed: int) -> dict:
    """The grid is fixed, so the seed has no effect on the sweep."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return {
        "params": SWEEP[size],
        "json_path": os.path.join(OUT_DIR, "sweep.json"),
        "csv_path": os.path.join(OUT_DIR, "sweep.csv"),
    }


def measure_sweep(inputs: dict) -> dict:
    json_path, csv_path = inputs["json_path"], inputs["csv_path"]
    start = time.perf_counter()
    report = oracle.cross_validate(**inputs["params"], jobs=1)
    cli.write_json_report(report, json_path, False)
    cli.write_csv_report(report, csv_path, False)
    wall = time.perf_counter() - start

    rows = report.rows
    kinds = report.certificate_counts()
    counts = {
        "rows": len(rows),
        **{kind: kinds.get(kind, 0) for kind in ("NotTorus", "TorusMatch", "Inconclusive")},
        "jones_rows": sum(1 for r in rows if r.invariants.jones is not None),
    }
    problems = []
    if report.disagreements:
        problems.append(f"{len(report.disagreements)} classifier/oracle disagreements")
    if inputs["params"] == SWEEP["full"] and counts != SWEEP_FULL_COUNTS:
        problems.append(f"sweep counts {counts} differ from {SWEEP_FULL_COUNTS}")
    for r in rows:
        problems.extend(identity_problems(r.text, r.invariants))
    return {
        "items": len(rows),
        "failed": 0,
        "wall_s": wall,
        "decisive_frac": (counts["NotTorus"] + counts["TorusMatch"]) / len(rows),
        "digests": {"json": sha256_file(json_path), "csv": sha256_file(csv_path)},
        "report_bytes": os.path.getsize(json_path) + os.path.getsize(csv_path),
        "problems": problems,
    }


def build_words(size: str, seed: int) -> dict:
    texts = make_word_texts(seed, WORDS_PER_CLASS[size])
    return {"texts": texts, "words": [braid.parse_braid_text(t) for t in texts]}


def measure_words(inputs: dict) -> dict:
    texts, words = inputs["texts"], inputs["words"]
    latencies: list[float] = []
    bundles: list[object] = []
    clock = time.perf_counter
    start = clock()
    for w in words:
        call_start = clock()
        try:
            b = invariants.bundle(w)
        except Exception as exc:  # counted as failed, which fails the run
            b = exc
        latencies.append(clock() - call_start)
        bundles.append(b)
    wall = clock() - start

    problems: list[str] = []
    lines: list[str] = []
    failed = jones_rows = 0
    for text, b in zip(texts, bundles):
        if isinstance(b, Exception):
            failed += 1
            problems.append(f"{text}: {type(b).__name__}: {b}")
            lines.append(f"{text}|error\n")
            continue
        problems.extend(identity_problems(text, b))
        lines.append(render_bundle(text, b))
        jones_rows += b.jones is not None
    return {
        "items": len(words),
        "failed": failed,
        "wall_s": wall,
        "latencies_s": latencies,
        "decisive_frac": jones_rows / len(words),
        "digests": {"bundles": hashlib.sha256("".join(lines).encode()).hexdigest()},
        "report_bytes": 0,
        "problems": problems,
    }


WORKLOADS = {"sweep": (build_sweep, measure_sweep), "words": (build_words, measure_words)}


def cache_infos() -> dict[str, tuple[int, int, int]]:
    """(hits, misses, current size) of the public cached functions."""
    out = {}
    for layer, fn in (
        ("invariants.alexander", invariants.alexander),
        ("garside.normal_form", garside.normal_form),
        ("invariants.torus_reference", invariants.torus_reference),
    ):
        # A traced repetition finds its wrapper here; the cache sits behind it.
        cached = fn if hasattr(fn, "cache_info") else getattr(fn, "__wrapped__", None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        out[layer] = (info.hits, info.misses, info.currsize) if info else (0, 0, 0)
    return out


def layer_metrics(tracer, setup: dict, result: dict) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    self_s = tracer.self_times()
    counts = tracer.counts
    before, after = setup["caches"], cache_infos()

    def hit_ratio(layer: str) -> float:
        hits = after[layer][0] - before[layer][0]
        misses = after[layer][1] - before[layer][1]
        return hits / (hits + misses) if hits + misses else 0.0

    def ratio(part: str, whole: str) -> float:
        return counts.get(part, 0.0) / counts[whole] if counts.get(whole) else 0.0

    return {
        "invariants.alexander.self_s": self_s.get("invariants.alexander", 0.0),
        "invariants.alexander.calls": counts.get("invariants.alexander.calls", 0.0),
        "invariants.alexander.hit_ratio": hit_ratio("invariants.alexander"),
        "invariants.alexander.cache_size": after["invariants.alexander"][2],
        "invariants.reduced_burau.self_s": self_s.get("invariants.reduced_burau", 0.0),
        "invariants.jones.self_s": self_s.get("invariants.jones", 0.0),
        "invariants.jones.available_ratio": ratio("invariants.jones.available", "invariants.jones.calls"),
        "invariants.torus_reference.self_s": self_s.get("invariants.torus_reference", 0.0),
        "invariants.torus_reference.hit_ratio": hit_ratio("invariants.torus_reference"),
        "invariants.torus_reference.cache_size": after["invariants.torus_reference"][2],
        "invariants.bundle.self_s": self_s.get("invariants.bundle", 0.0),
        "laurent.determinant.self_s": self_s.get("laurent.determinant", 0.0),
        "laurent.determinant.calls": counts.get("laurent.determinant.calls", 0.0),
        "garside.normal_form.self_s": self_s.get("garside.normal_form", 0.0),
        "garside.normal_form.calls": counts.get("garside.normal_form.calls", 0.0),
        "garside.normal_form.cache_size": after["garside.normal_form"][2],
        "garside.canonical_length_sum": counts.get("garside.canonical_length_sum", 0.0),
        "garside.full_twist_ratio": ratio("garside.full_twist", "garside.normal_form.calls"),
        "oracle.certify_bundle.self_s": self_s.get("oracle.certify_bundle", 0.0),
        "oracle.candidates": counts.get("oracle.candidates", 0.0),
        "oracle.cross_validate.self_s": self_s.get("oracle.cross_validate", 0.0),
        "classify.classify_form.self_s": self_s.get("classify.classify_form", 0.0),
        "tlink.self_s": self_s.get("tlink", 0.0),
        "tlink.letters_out": counts.get("tlink.letters_out", 0.0),
        "braid.letters_in": setup["letters_in"],
        "braid.parse_braid_text.self_s": setup["parse_self_s"],
        "cli.report_s": tracer.durations("cli.report"),
        "cli.report_bytes": result["report_bytes"],
        "trace.unaccounted_frac": 1.0 - sum(self_s.values()) / result["wall_s"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    build, measure = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = build(args.size, args.seed)
    setup = {}
    if tracer is not None:
        # Parsing happens in set-up; everything else is measured below.
        setup = {
            "parse_self_s": tracer.self_times().get("braid.parse_braid_text", 0.0),
            "letters_in": tracer.counts.get("braid.letters_in", 0.0),
            "caches": cache_infos(),
        }
        tracer.reset()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = measure(inputs)
    result["problems"] += check_digests(args.workload, args.size, args.seed, result["digests"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, setup, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
