"""Independent torus-link certification by invariant elimination.

The classifier's verdicts are theorem-driven; this module is the ground
truth they are validated against.  Given a positive braid word, the finitely
many torus-link candidates (p, q) compatible with the closure's component
count and Euler characteristic are enumerated, then eliminated one by one by
comparing exact invariants against reference bundles of the genuine T(p, q):
braid index (when the full-twist criterion applies on both sides), the
unit-normalized Alexander polynomial, and the Jones polynomial (when the
crossing guard permits it).

A certificate never overclaims: TorusMatch means every comparison was
available and agreed for exactly one candidate, an invariant-level match
rather than a proof of isotopy; Inconclusive records survivors with missing
comparisons; NotTorus means every candidate was eliminated by an exact
mismatch, which stands regardless of guard size.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterator

from .braid import BraidWord
from .classify import NOT_TORUS_LINK, Verdict, classify_form
from .invariants import DEFAULT_JONES_GUARD, InvariantBundle, bundle, torus_reference
from .tlink import FullTwistForm, TLinkSpec, absorb_strands, flip_base, render_tlink, standard_braid

NOT_TORUS = "NotTorus"
TORUS_MATCH = "TorusMatch"
INCONCLUSIVE = "Inconclusive"

REASON_COMPONENTS = "componentMismatch"
REASON_EULER = "eulerCharMismatch"
REASON_BRAID_INDEX = "braidIndexMismatch"
REASON_ALEXANDER = "alexanderMismatch"
REASON_JONES = "jonesMismatch"
REASON_MATCHED = "matched"


@dataclass(frozen=True)
class CandidateResult:
    p: int
    q: int
    reason: str


@dataclass(frozen=True)
class Certificate:
    kind: str
    candidates: tuple[CandidateResult, ...]
    guard_hit: bool

    def __str__(self) -> str:
        parts = [self.kind]
        for c in self.candidates:
            parts.append(f"  T({c.p},{c.q}): {c.reason}")
        if self.guard_hit:
            parts.append("  (crossing guard suppressed some Jones comparisons)")
        return "\n".join(parts)


def _chi_candidates(components: int, chi: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Ordered pairs q <= p with (p-1)(q-1) = 1 - chi, split by the gcd test.

    chi pins the product; gcd(p, q) must reproduce the component count.  The
    q = 1 fibre (chi = 1) collapses to the single unknot representative.
    """
    target = 1 - chi
    if target < 0:
        return [], []
    if target == 0:
        pair = (1, 1)
        return ([pair], []) if components == 1 else ([], [pair])
    keep: list[tuple[int, int]] = []
    pruned: list[tuple[int, int]] = []
    for d in range(1, isqrt(target) + 1):
        if target % d:
            continue
        p, q = target // d + 1, d + 1
        if gcd(p, q) == components:
            keep.append((p, q))
        else:
            pruned.append((p, q))
    key = lambda pq: (pq[1], pq[0])
    return sorted(keep, key=key), sorted(pruned, key=key)


def candidate_torus_params(b: InvariantBundle) -> list[tuple[int, int]]:
    """All (p, q), q <= p, passing the component-count and chi filters."""
    if b.euler_char is None:
        raise ValueError("candidate enumeration needs a positive-braid bundle")
    keep, _ = _chi_candidates(b.components, b.euler_char)
    return keep


def certify_bundle(b: InvariantBundle, guard: int = DEFAULT_JONES_GUARD) -> Certificate:
    """Certificate for a closure already summarized as an invariant bundle."""
    if b.euler_char is None:
        raise ValueError("certification needs a positive braid word")
    keep, pruned = _chi_candidates(b.components, b.euler_char)
    results = [CandidateResult(p, q, REASON_COMPONENTS) for p, q in pruned]
    guard_hit = b.jones is None
    survivors: list[bool] = []  # completeness flag per surviving candidate
    for p, q in keep:
        ref = torus_reference(p, q, guard)
        if (
            b.braid_index is not None
            and ref.braid_index is not None
            and b.braid_index != ref.braid_index
        ):
            results.append(CandidateResult(p, q, REASON_BRAID_INDEX))
            continue
        if b.alexander != ref.alexander:
            results.append(CandidateResult(p, q, REASON_ALEXANDER))
            continue
        if b.jones is not None and ref.jones is not None:
            if b.jones != ref.jones:
                results.append(CandidateResult(p, q, REASON_JONES))
                continue
            jones_compared = True
        else:
            jones_compared = False
            guard_hit = guard_hit or ref.jones is None
        complete = (
            jones_compared
            and b.braid_index is not None
            and ref.braid_index is not None
        )
        survivors.append(complete)
        results.append(CandidateResult(p, q, REASON_MATCHED))
    if not survivors:
        kind = NOT_TORUS
    elif len(survivors) == 1 and survivors[0]:
        kind = TORUS_MATCH
    else:
        kind = INCONCLUSIVE
    return Certificate(kind, tuple(results), guard_hit)


def certify(w: BraidWord, guard: int = DEFAULT_JONES_GUARD) -> Certificate:
    """Certify whether the closure of a positive word is a torus link."""
    if not w.is_positive:
        raise ValueError("certification is defined for positive braid words")
    return certify_bundle(bundle(w, guard), guard)


# -- classifier-versus-oracle sweep -------------------------------------------


def presentation_word(form: FullTwistForm) -> BraidWord:
    """Best word for certification, following the theorem's own reductions.

    The standard word on p strands rarely exhibits a full twist, so the
    braid-index criterion would sit idle; after absorption (q < a_n) or the
    base flip (a_n < q) the presentation carries one.
    """
    if form.q < form.a_max:
        return absorb_strands(form).final
    if form.a_max < form.q:
        return standard_braid(flip_base(form))
    return standard_braid(form.spec())


@dataclass(frozen=True)
class SweepRow:
    index: int
    text: str
    spec: TLinkSpec
    form: FullTwistForm
    verdict: Verdict
    certificate: Certificate
    invariants: InvariantBundle
    timing_ms: int

    @property
    def contradiction(self) -> bool:
        return self.verdict.kind == NOT_TORUS_LINK and self.certificate.kind == TORUS_MATCH


@dataclass(frozen=True)
class SweepReport:
    params: tuple[tuple[str, int], ...]
    rows: tuple[SweepRow, ...]

    @property
    def disagreements(self) -> list[SweepRow]:
        return [r for r in self.rows if r.contradiction]

    def verdict_counts(self) -> dict[str, int]:
        return dict(Counter(r.verdict.kind for r in self.rows))

    def certificate_counts(self) -> dict[str, int]:
        return dict(Counter(r.certificate.kind for r in self.rows))


def enumerate_forms(
    max_p: int,
    max_n: int = 2,
    max_s: int = 2,
    max_a: int | None = None,
) -> Iterator[FullTwistForm]:
    """All valid full-twist forms within the bounds, in lexicographic order."""
    from itertools import combinations, product

    for p in range(3, max_p + 1):
        for q in range(2, p):
            a_cap = min(p - 1, max_a) if max_a is not None else p - 1
            pool = [a for a in range(2, a_cap + 1) if a != q]
            for n in range(1, max_n + 1):
                for a_tuple in combinations(pool, n):
                    for s_tuple in product(range(1, max_s + 1), repeat=n):
                        yield FullTwistForm(tuple(zip(a_tuple, s_tuple)), (p, q))


def _sweep_row(args: tuple[int, FullTwistForm, int]) -> SweepRow:
    index, form, guard = args
    start = time.perf_counter()
    spec = form.spec()
    verdict = classify_form(form)
    word = presentation_word(form)
    b = bundle(word, guard)
    cert = certify_bundle(b, guard)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return SweepRow(
        index=index,
        text=render_tlink(spec),
        spec=spec,
        form=form,
        verdict=verdict,
        certificate=cert,
        invariants=b,
        timing_ms=elapsed_ms,
    )


def cross_validate(
    max_p: int,
    max_n: int = 2,
    max_s: int = 2,
    max_a: int | None = None,
    guard: int = DEFAULT_JONES_GUARD,
    jobs: int = 1,
) -> SweepReport:
    """Run classifier and oracle over every form in range and collect rows.

    Row order is the enumeration order regardless of job count, so reports
    are deterministic.  At most jobs worker processes start, and never more
    than there are CPUs or forms.  A disagreement is a NotTorusLink verdict
    paired with a TorusMatch certificate; the source theorem predicts there
    are none.
    """
    forms = list(enumerate_forms(max_p, max_n, max_s, max_a))
    tasks = [(i, form, guard) for i, form in enumerate(forms)]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_sweep_row, tasks, chunksize=8))
    else:
        rows = tuple(_sweep_row(t) for t in tasks)
    params = (
        ("max_p", max_p),
        ("max_n", max_n),
        ("max_s", max_s),
        ("max_a", max_a if max_a is not None else max_p - 1),
        ("guard", guard),
    )
    return SweepReport(params, rows)
