import concurrent.futures
import os
import random
import subprocess
import sys

import pytest

import tlinks.braid as braid
import tlinks.invariants as invariants
import tlinks.oracle as oracle
from _oracles import (
    enumerate_torus_candidates,
    standard_braid,
    torus_alexander_closed_form,
    torus_braid,
)
from tlinks.braid import BraidWord
from tlinks.invariants import alexander, bundle, torus_reference
from tlinks.oracle import (
    INCONCLUSIVE,
    NOT_TORUS,
    REASON_ALEXANDER,
    REASON_BRAID_INDEX,
    REASON_COMPONENTS,
    REASON_MATCHED,
    TORUS_MATCH,
    _chi_candidates,
    certify,
    certify_bundle,
    cross_validate,
    enumerate_forms,
)
from tlinks.tlink import FullTwistForm, absorb_strands, presentation


# the fields of a closure's record; a Closure compares by identity
INVARIANT_FIELDS = ("components", "letters", "euler_char", "braid_index", "alexander", "jones")


def row_invariants(r):
    """The six invariant fields of a sweep row, to compare rows by value."""
    return tuple(getattr(r.invariants, f) for f in INVARIANT_FIELDS)


def candidates(b):
    """The (p, q), q <= p, that pass the component-count and chi filters."""
    return _chi_candidates(b.components, b.euler_char)[0]


def test_candidate_examples():
    b = bundle(torus_braid(3, 2))
    assert candidates(b) == [(3, 2)]
    # components 1, chi = -9: enumeration gives (11,2) and (6,3); gcd drops (6,3)
    rewritten = absorb_strands(FullTwistForm(((3, 1),), (5, 2)))[-1].word()
    assert candidates(bundle(rewritten)) == [(11, 2)]
    # components 2, chi = 0
    b22 = bundle(torus_braid(2, 2))
    assert candidates(b22) == [(2, 2)]


def test_candidates_match_enumeration_oracle():
    for w in [torus_braid(5, 3), torus_braid(7, 2), torus_braid(6, 4), BraidWord(3, (1, 1, 2))]:
        b = bundle(w)
        assert candidates(b) == enumerate_torus_candidates(
            b.components, b.euler_char
        )


def test_certify_self_recognition():
    cert = certify(torus_braid(5, 3))
    assert cert.kind == TORUS_MATCH
    matched = [c for c in cert.candidates if c.reason == REASON_MATCHED]
    assert [(c.p, c.q) for c in matched] == [(5, 3)]


def test_certify_rewritten_word_eliminated_by_braid_index():
    w = absorb_strands(FullTwistForm(((3, 1),), (5, 2)))[-1].word()
    cert = certify(w)
    assert cert.kind == NOT_TORUS
    reasons = {(c.p, c.q): c.reason for c in cert.candidates}
    assert reasons[(11, 2)] == REASON_BRAID_INDEX


def test_torus_references_compute_invariants_on_demand(monkeypatch):
    # T(11,2) falls to the component count and T(6,3), the one reference read,
    # to the braid index (3 against 4), so no reference may build an Alexander
    # or Jones polynomial
    w = BraidWord(4, (1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1))
    b = bundle(w)
    expected = alexander(torus_braid(6, 3))
    torus_reference.cache_clear()
    calls = []

    def counted(name):
        engine = getattr(invariants, name)

        def run(*args):
            calls.append(name)
            return engine(*args)

        return run

    for name in ("alexander", "jones"):
        monkeypatch.setattr(invariants, name, counted(name))
    cert = certify_bundle(b)
    assert cert.kind == NOT_TORUS
    assert [(c.p, c.q, c.reason) for c in cert.candidates] == [
        (11, 2, REASON_COMPONENTS),
        (6, 3, REASON_BRAID_INDEX),
    ]
    assert calls == []
    # a later read of a lazy field runs its engine once and keeps the value
    ref = torus_reference(6, 3)
    assert ref.alexander == expected
    assert ref.alexander is ref.alexander
    assert calls == ["alexander"]


def test_torus_reference_builds_no_braid(monkeypatch):
    # the torus braid is (sigma_1 sigma_2)^7 on 3 strands; only what is left
    # of its syllable once the full twists are split off is written out
    word = braid.Presentation.word

    def no_twist_written(p):
        if p.exponent >= p.strands:
            raise AssertionError(f"a full twist of {p} was written")
        return word(p)

    torus_reference.cache_clear()
    monkeypatch.setattr(braid.Presentation, "word", no_twist_written)
    ref = torus_reference(7, 3)
    monkeypatch.undo()
    b = bundle(torus_braid(7, 3))
    for field in INVARIANT_FIELDS:
        assert getattr(ref, field) == getattr(b, field), field
    torus_reference.cache_clear()


def long_twisted_word():
    """Delta^2 w for 700 random letters w on 9 strands, 772 letters in all."""
    rng = random.Random(1)
    return BraidWord(9, tuple(range(1, 9)) * 9 + tuple(rng.randint(1, 8) for _ in range(700)))


def test_certify_computes_no_alexander_when_components_decide(monkeypatch):
    # Delta^2 w closes to 3 components, and every chi candidate
    # (p-1)(q-1) = 764 has gcd 1, so no candidate needs the word's Alexander
    # polynomial
    w = long_twisted_word()
    assert len(w.letters) == 772

    def no_alexander(*args):
        raise AssertionError("an Alexander polynomial was computed")

    monkeypatch.setattr(invariants, "alexander", no_alexander)
    cert = certify(w)
    assert cert.kind == NOT_TORUS
    assert [(c.p, c.q, c.reason) for c in cert.candidates] == [
        (765, 2, REASON_COMPONENTS),
        (383, 3, REASON_COMPONENTS),
        (192, 5, REASON_COMPONENTS),
    ]


def test_guard_hit_needs_no_state_sum(monkeypatch):
    # a lazy closure reads guard_hit from its letter count against its guard,
    # so a guard that admits the word computes no Jones polynomial that no
    # candidate compares
    w = long_twisted_word()

    def no_state_sum(*args):
        raise AssertionError("a state sum was computed")

    monkeypatch.setattr(invariants, "_state_sum", no_state_sum)
    for guard, hit in ((1000, False), (772, False), (771, True), (24, True)):
        cert = certify(w, guard)
        assert cert.kind == NOT_TORUS and cert.guard_hit is hit, guard
    monkeypatch.undo()
    # the lazy closure and the computed bundle give the same certificate,
    # guard_hit included, each against references at its own guard
    words = [presentation(f).word() for f in enumerate_forms(6, 2, 2)]
    words += [torus_braid(6, 5), torus_braid(5, 3), BraidWord(3, (1, 1)), BraidWord(1, ())]
    for word in words:
        for guard in (0, 4, 24, 40):
            assert certify(word, guard) == certify_bundle(bundle(word, guard)), (word, guard)


def test_import_leaves_the_process_pool_out():
    # cross_validate imports concurrent.futures only when it starts workers,
    # so importing the package, or the command line, does not pay for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(invariants.__file__)))
    code = "import sys, tlinks, tlinks.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_certify_standard_word_of_gcd_case():
    w = standard_braid(FullTwistForm(((3, 1),), (4, 2)).spec())
    assert certify(w).kind == NOT_TORUS


def test_certify_split_closure():
    # closure of sigma_1^2 on 3 strands: Hopf link plus a split unknot; torus
    # links are never split, and the component filter rejects every candidate
    cert = certify(BraidWord(3, (1, 1)))
    assert cert.kind == NOT_TORUS
    assert all(c.reason != REASON_MATCHED for c in cert.candidates)


def test_certify_rejects_negative_words():
    with pytest.raises(ValueError):
        certify(BraidWord(2, (-1,)))


def test_guard_monotonicity():
    w = absorb_strands(FullTwistForm(((3, 1),), (5, 2)))[-1].word()
    low = certify(w, guard=4)
    high = certify(w, guard=40)
    assert low.kind == high.kind == NOT_TORUS
    inconclusive = certify(torus_braid(6, 5), guard=4)
    assert inconclusive.kind == INCONCLUSIVE and inconclusive.guard_hit
    resolved = certify(torus_braid(6, 5), guard=40)
    assert resolved.kind == TORUS_MATCH and not resolved.guard_hit


def test_alexander_mismatch_reasons_are_sound():
    # closed-form re-derivation must reproduce every alexanderMismatch on
    # coprime candidates
    report = cross_validate(max_p=6, max_n=1, max_s=2, guard=24)
    checked = 0
    for row in report.rows:
        word = presentation(row.form).word()
        for cand in row.certificate.candidates:
            if cand.reason != REASON_ALEXANDER:
                continue
            from math import gcd

            if gcd(cand.p, cand.q) == 1:
                assert torus_alexander_closed_form(cand.p, cand.q) != alexander(word)
                checked += 1
    assert checked > 0


def test_presentation_word_choice():
    absorbed = presentation(FullTwistForm(((3, 1),), (5, 2)))
    assert absorbed.strands == absorbed.word().strands == 3
    flipped = presentation(FullTwistForm(((2, 1),), (5, 3)))
    assert flipped.strands == flipped.word().strands == 3


def test_enumerate_forms_bounds_and_order():
    forms = list(enumerate_forms(5, max_n=2, max_s=2, max_a=4))
    assert all(f.p <= 5 and f.a_max <= 4 and f.n <= 2 for f in forms)
    assert all(s <= 2 for f in forms for _, s in f.twist_pairs)
    assert forms == list(enumerate_forms(5, max_n=2, max_s=2, max_a=4))
    assert len(forms) == len(set(forms))


def test_cross_validate_small_sweep():
    report = cross_validate(max_p=5, max_n=2, max_s=2, guard=24)
    assert len(report.rows) == 28
    assert report.disagreements == []
    assert [r.index for r in report.rows] == list(range(28))
    # exceptional-family rows still get full certificates, recorded for study
    exceptional = [r for r in report.rows if r.verdict.kind == "ExceptionalFamily"]
    assert exceptional and all(r.certificate.candidates for r in exceptional)


def test_cross_validate_empty_range():
    report = cross_validate(max_p=2)
    assert report.rows == ()
    assert report.disagreements == []


def test_cross_validate_p9_zero_contradictions():
    # classify never returns NotTorusLink against a TorusMatch certificate,
    # exhaustively for p <= 9
    report = cross_validate(max_p=9, max_n=2, max_s=2, guard=24)
    assert report.disagreements == []
    for row in report.rows:
        if row.certificate.kind == TORUS_MATCH:
            assert row.verdict.kind != "NotTorusLink", row.text


def test_guard_monotonicity_across_a_sweep():
    # raising the guard only resolves Inconclusive certificates
    low = cross_validate(max_p=6, max_n=2, max_s=1, guard=8)
    high = cross_validate(max_p=6, max_n=2, max_s=1, guard=48)
    for a, b in zip(low.rows, high.rows):
        assert a.text == b.text
        if a.certificate.kind != INCONCLUSIVE:
            assert a.certificate.kind == b.certificate.kind, a.text


@pytest.fixture
def serial_pool(monkeypatch):
    """No real process starts: the pool is a serial stand-in that records how
    many workers it was asked for and the chunks submitted to it."""
    log = {"created": [], "submitted": []}

    class SerialPool:
        def __init__(self, max_workers):
            log["created"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            log["submitted"].append(args)
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    # sweep_rows imports the pool class only when it starts workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return log


def test_cross_validate_caps_worker_count(monkeypatch, serial_pool):
    created = serial_pool["created"]

    def rows(**kwargs):
        report = cross_validate(max_s=1, max_n=1, **kwargs)
        return [(r.text, r.verdict, r.certificate, row_invariants(r)) for r in report.rows]

    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    serial = rows(max_p=5)
    assert created == [] and len(serial) > 3
    assert rows(max_p=5, jobs=100_000) == serial
    assert rows(max_p=5, jobs=2) == serial
    # fewer forms than CPUs: one worker per form
    tiny = rows(max_p=4, jobs=100_000)
    assert created == [3, 2, len(tiny)] and len(tiny) == 2
    # no CPU count known: one CPU is assumed, and the sweep runs in-process
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert rows(max_p=5, jobs=100_000) == serial
    assert created == [3, 2, 2]


def test_pooled_sweep_submits_chunks_as_rows_are_read(monkeypatch, serial_pool):
    # the 260 forms of p <= 7 are 33 chunks of 8, but before its first row
    # is read a sweep on two workers has submitted only four chunks per
    # worker; the rest follow one chunk per chunk read
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    rows = oracle.sweep_rows(7, jobs=2)
    first = next(rows)
    assert serial_pool["created"] == [2]
    assert len(serial_pool["submitted"]) == 8
    rest = list(rows)
    assert [first.index] + [r.index for r in rest] == list(range(260))
    assert len(serial_pool["submitted"]) == 33
    assert [t for (chunk,) in serial_pool["submitted"] for t in chunk] == [
        (i, form, invariants.DEFAULT_JONES_GUARD) for i, form in enumerate(enumerate_forms(7))
    ]


def test_cross_validate_jobs_agree():
    seq = cross_validate(max_p=5, max_n=1, max_s=1, guard=24)
    par = cross_validate(max_p=5, max_n=1, max_s=1, guard=24, jobs=2)
    strip = lambda rows: [
        (r.text, r.verdict, r.certificate, row_invariants(r)) for r in rows
    ]
    assert strip(seq.rows) == strip(par.rows)


def test_bundles_come_back_computed():
    # bundle, Closure.bundle and every sweep row give the record with both
    # polynomials computed, rows from a pool of two workers too, which are
    # unpickled here
    w = torus_braid(5, 3)
    records = [bundle(w), invariants.closure(w).bundle()]
    records += [r.invariants for r in cross_validate(5, jobs=2).rows]
    assert len(records) == 30
    for b in records:
        assert {"alexander", "jones"} <= set(vars(b))


def test_sweep_computes_each_reference_field_only_when_compared(monkeypatch):
    # a candidate reads the braid index, then Alexander, then Jones, and stops
    # at its first mismatch, so at p <= 7 most references never build the
    # costly polynomials
    made = {}

    def recorded(*args):
        made[args] = ref = torus_reference(*args)
        return ref

    torus_reference.cache_clear()
    monkeypatch.setattr(oracle, "torus_reference", recorded)
    cross_validate(7)
    torus_reference.cache_clear()
    computed = {
        f: sum(f in vars(r) for r in made.values()) for f in ("braid_index", "alexander", "jones")
    }
    assert len(made) == 175
    assert computed == {"braid_index": 175, "alexander": 23, "jones": 3}
