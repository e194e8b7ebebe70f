"""Span tracer that wraps tlinks functions from outside the package.

Each wrapper replaces a module attribute that callers look up at call time
(for example ``tlinks.invariants.alexander``, which ``bundle`` reads from its
module globals), records one span per call and counts what the call
returned.  Nothing inside ``src/`` is edited.  A layer's self time is the
duration of its spans minus the part covered by their child spans, so the
self times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, layer) for every call site the benchmark times.  The
# same function is wrapped in each module whose code looks it up, because a
# `from .x import f` binding is a separate attribute from `x.f`.
TARGETS = (
    ("tlinks.oracle", "cross_validate", "oracle.cross_validate"),
    ("tlinks.oracle", "classify_form", "classify.classify_form"),
    ("tlinks.oracle", "absorb_strands", "tlink"),
    ("tlinks.oracle", "flip_base", "tlink"),
    ("tlinks.oracle", "standard_braid", "tlink"),
    ("tlinks.oracle", "bundle", "invariants.bundle"),
    ("tlinks.oracle", "certify_bundle", "oracle.certify_bundle"),
    ("tlinks.oracle", "torus_reference", "invariants.torus_reference"),
    ("tlinks.invariants", "bundle", "invariants.bundle"),
    ("tlinks.invariants", "alexander", "invariants.alexander"),
    ("tlinks.invariants", "reduced_burau", "invariants.reduced_burau"),
    ("tlinks.invariants", "determinant", "laurent.determinant"),
    ("tlinks.invariants", "jones", "invariants.jones"),
    ("tlinks.garside", "normal_form", "garside.normal_form"),
    ("tlinks.braid", "parse_braid_text", "braid.parse_braid_text"),
    ("tlinks.cli", "write_json_report", "cli.report"),
    ("tlinks.cli", "write_csv_report", "cli.report"),
)


class Tracer:
    """In-memory spans ``[layer, start, end, parent index]`` plus counters."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, fn: Callable, layer: str) -> Callable:
        spans, stack = self.spans, self._stack
        on_result = _RESULT_COUNTERS.get(layer)
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end
            counts[layer + ".calls"] += 1
            if on_result is not None:
                on_result(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one is reported, not fatal.

        A layer that a later version of the program removes or renames then
        reads as zero work, and its time lands in the caller's self time.
        """
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: not traced: {module_name}.{attr}", file=sys.stderr)
                continue
            setattr(module, attr, self.wrap(original, layer))

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, children excluded."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (layer, start, end, _), child in zip(self.spans, covered):
            out[layer] += (end - start) - child
        return out

    def durations(self, layer: str) -> float:
        """Total seconds inside spans of one layer, children included."""
        return sum(end - start for name, start, end, _ in self.spans if name == layer)


def _count_jones(counts: dict[str, float], result: Any) -> None:
    if result is not None:
        counts["invariants.jones.available"] += 1


def _count_normal_form(counts: dict[str, float], result: Any) -> None:
    counts["garside.canonical_length_sum"] += result.canonical_length()
    if result.infimum >= 2:
        counts["garside.full_twist"] += 1


def _count_certificate(counts: dict[str, float], result: Any) -> None:
    counts["oracle.candidates"] += len(result.candidates)


def _count_tlink_word(counts: dict[str, float], result: Any) -> None:
    # absorb_strands returns a trace whose final word is the presentation;
    # flip_base returns a spec, which carries no letters yet.
    word = getattr(result, "final", result)
    letters = getattr(word, "letters", None)
    if letters is not None:
        counts["tlink.letters_out"] += len(letters)


def _count_parsed(counts: dict[str, float], result: Any) -> None:
    counts["braid.letters_in"] += len(result.letters)


_RESULT_COUNTERS: dict[str, Callable[[dict[str, float], Any], None]] = {
    "invariants.jones": _count_jones,
    "garside.normal_form": _count_normal_form,
    "oracle.certify_bundle": _count_certificate,
    "tlink": _count_tlink_word,
    "braid.parse_braid_text": _count_parsed,
}
