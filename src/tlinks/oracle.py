"""Independent torus-link certification by invariant elimination.

The classifier's verdicts are theorem-driven; this module is the ground
truth they are validated against.  Given a positive braid word, the finitely
many torus-link candidates (p, q) compatible with the closure's component
count and Euler characteristic are enumerated, then eliminated one by one by
comparing exact invariants against references of the genuine T(p, q),
in the order of one table (_ELIMINATIONS): braid index (when the full-twist
criterion applies on both sides), the unit-normalized Alexander polynomial,
and the Jones polynomial (when the crossing guard permits it).  The first
mismatch eliminates a candidate.  certify and the references are lazy
(invariants.Closure), so Alexander is computed only where it is compared.
A sweep row certifies its form's presentation (tlink.presentation), whose
full twists split off by divmod (invariants.syllable_closure), with no twist
letter written or scanned.

A certificate never overclaims: TorusMatch means every comparison was
available and agreed for exactly one candidate, an invariant-level match
rather than a proof of isotopy; Inconclusive records survivors with missing
comparisons; NotTorus means every candidate was eliminated by an exact
mismatch, which stands regardless of guard size.

CandidateResult, Certificate, SweepRow and SweepReport are immutable
NamedTuples.
"""

from __future__ import annotations

import os
import time
from collections import Counter, deque
from itertools import chain, combinations, islice, product
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .braid import BraidWord
from .classify import NOT_TORUS_LINK, Verdict, classify_form
from .invariants import DEFAULT_JONES_GUARD, Closure, closure, syllable_closure, torus_reference
from .tlink import FullTwistForm, TLinkSpec, presentation, render_tlink

NOT_TORUS = "NotTorus"
TORUS_MATCH = "TorusMatch"
INCONCLUSIVE = "Inconclusive"

REASON_COMPONENTS = "componentMismatch"
REASON_BRAID_INDEX = "braidIndexMismatch"
REASON_ALEXANDER = "alexanderMismatch"
REASON_JONES = "jonesMismatch"
REASON_MATCHED = "matched"


class CandidateResult(NamedTuple):
    p: int
    q: int
    reason: str


class Certificate(NamedTuple):
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
    divisors d = q - 1 ascend, so both lists come in ascending q.  The q = 1
    fibre (chi = 1) collapses to the single unknot representative (1, 1).
    """
    target = 1 - chi
    if target < 0:
        return [], []
    # d = 1 divides every positive target, so the list is empty only at 0
    pairs = [(target // d + 1, d + 1) for d in range(1, isqrt(target) + 1) if target % d == 0]
    pairs = pairs or [(1, 1)]
    keep = [pq for pq in pairs if gcd(*pq) == components]
    return keep, [pq for pq in pairs if gcd(*pq) != components]


# the closure fields a candidate is compared on, in order, and the reason a
# mismatch records
_ELIMINATIONS = (
    ("braid_index", REASON_BRAID_INDEX),
    ("alexander", REASON_ALEXANDER),
    ("jones", REASON_JONES),
)


def certify_bundle(b: Closure) -> Certificate:
    """Certificate for a closure, against torus references at its own guard.

    b is an invariants.Closure, lazy or computed (Closure.bundle), and each
    reference is torus_reference(p, q, b.guard), so both sides admit Jones
    under one guard.  A word that is not positive (euler_char is None) is
    rejected first.  Each candidate that passes the component count is
    compared field by field in _ELIMINATIONS order.  A field the closure
    lacks is skipped before the reference is read, so the lazy reference
    never computes it; a field the reference lacks is skipped too.  The
    first mismatch eliminates the candidate; a candidate that survives every
    field is matched, completely when no field was skipped.  guard_hit reads
    b.jones_guarded, which the closure answers from its letters.
    """
    if b.euler_char is None:
        raise ValueError("certification needs a positive braid word")
    keep, pruned = _chi_candidates(b.components, b.euler_char)
    results = [CandidateResult(p, q, REASON_COMPONENTS) for p, q in pruned]
    survivors: list[list[str]] = []  # the fields skipped for each matched candidate
    for p, q in keep:
        ref = torus_reference(p, q, b.guard)
        skipped = []
        for field, mismatch in _ELIMINATIONS:
            ours = getattr(b, field)
            theirs = None if ours is None else getattr(ref, field)
            if theirs is None:
                skipped.append(field)
            elif ours != theirs:
                results.append(CandidateResult(p, q, mismatch))
                break
        else:
            survivors.append(skipped)
            results.append(CandidateResult(p, q, REASON_MATCHED))
    if not survivors:
        kind = NOT_TORUS
    elif survivors == [[]]:  # one match, with no field skipped
        kind = TORUS_MATCH
    else:
        kind = INCONCLUSIVE
    guard_hit = b.jones_guarded or any("jones" in skipped for skipped in survivors)
    return Certificate(kind, tuple(results), guard_hit)


def certify(w: BraidWord, guard: int = DEFAULT_JONES_GUARD) -> Certificate:
    """Certify whether the closure of a positive word is a torus link, reading its lazy closure."""
    return certify_bundle(closure(w, guard))


# -- classifier-versus-oracle sweep -------------------------------------------


class SweepRow(NamedTuple):
    """One row of a sweep: a form, its verdict and the certificate of its presentation."""

    index: int
    text: str
    spec: TLinkSpec
    form: FullTwistForm
    verdict: Verdict
    certificate: Certificate
    invariants: Closure
    timing_ms: int

    @property
    def contradiction(self) -> bool:
        return self.verdict.kind == NOT_TORUS_LINK and self.certificate.kind == TORUS_MATCH


class SweepReport(NamedTuple):
    params: tuple[tuple[str, int], ...]
    rows: tuple[SweepRow, ...]

    @property
    def disagreements(self) -> list[SweepRow]:
        return [r for r in self.rows if r.contradiction]

    def certificate_counts(self) -> dict[str, int]:
        return dict(Counter(r.certificate.kind for r in self.rows))


def enumerate_forms(
    max_p: int,
    max_n: int = 2,
    max_s: int = 2,
    max_a: int | None = None,
) -> Iterator[FullTwistForm]:
    """All valid full-twist forms within the bounds, in lexicographic order."""
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
    b = syllable_closure(presentation(form), guard).bundle()
    cert = certify_bundle(b)
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


def _sweep_chunk(tasks: list[tuple[int, FullTwistForm, int]]) -> list[SweepRow]:
    return [_sweep_row(t) for t in tasks]


# forms per task sent to a worker, and chunks in flight per worker: enough to
# keep every worker busy while the rows before them are consumed, few enough
# that neither forms nor finished rows pile up in the parent
_CHUNK = 8
_CHUNKS_PER_WORKER = 4


def _pooled_rows(tasks: Iterator[tuple[int, FullTwistForm, int]], workers: int) -> Iterator[SweepRow]:
    """_sweep_row over tasks in a pool of workers, yielded in task order.

    Chunks are submitted as earlier ones are consumed, so at most
    _CHUNKS_PER_WORKER chunks per worker are queued or done but unread.
    """
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        while chunk := list(islice(tasks, _CHUNK)):
            pending.append(pool.submit(_sweep_chunk, chunk))
            if len(pending) >= _CHUNKS_PER_WORKER * workers:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()


def sweep_params(
    max_p: int,
    max_n: int = 2,
    max_s: int = 2,
    max_a: int | None = None,
    guard: int = DEFAULT_JONES_GUARD,
) -> tuple[tuple[str, int], ...]:
    """The parameters a sweep report records, max_a resolved to its default."""
    return (
        ("max_p", max_p),
        ("max_n", max_n),
        ("max_s", max_s),
        ("max_a", max_a if max_a is not None else max_p - 1),
        ("guard", guard),
    )


def sweep_rows(
    max_p: int,
    max_n: int = 2,
    max_s: int = 2,
    max_a: int | None = None,
    guard: int = DEFAULT_JONES_GUARD,
    jobs: int = 1,
) -> Iterator[SweepRow]:
    """Run classifier and oracle over every form in range, one row at a time.

    Rows stream: each is yielded as soon as it and every row before it are
    done, and nothing here keeps a row once it is yielded, so a consumer
    that drops its rows runs in memory flat in the row count.  Forms are
    enumerated lazily too.  Row order is the enumeration order regardless of
    job count, so reports are deterministic.  At most jobs worker processes
    start, and never more than there are CPUs or forms; their results are
    taken in order as they complete, with a bounded number of chunks in
    flight.
    """
    tasks = ((i, form, guard) for i, form in enumerate(enumerate_forms(max_p, max_n, max_s, max_a)))
    # the worker count is capped by the forms, of which only that many are read ahead
    head = list(islice(tasks, min(jobs, os.cpu_count() or 1)))
    tasks = chain(head, tasks)
    if len(head) > 1:
        yield from _pooled_rows(tasks, len(head))
    else:
        yield from map(_sweep_row, tasks)


def cross_validate(
    max_p: int,
    max_n: int = 2,
    max_s: int = 2,
    max_a: int | None = None,
    guard: int = DEFAULT_JONES_GUARD,
    jobs: int = 1,
) -> SweepReport:
    """Every row of sweep_rows, kept in one report.

    The report holds every row, so its memory grows with the row count; to
    write reports or tally a long sweep, read sweep_rows directly, as
    `tlinks sweep` does.  A disagreement is a NotTorusLink verdict paired
    with a TorusMatch certificate; the source theorem predicts there are
    none.
    """
    rows = tuple(sweep_rows(max_p, max_n, max_s, max_a, guard, jobs))
    return SweepReport(sweep_params(max_p, max_n, max_s, max_a, guard), rows)
