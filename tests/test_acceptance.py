"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison of integers or polynomials is exact; the stated time
budgets are asserted as hard ceilings.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings.
"""

import time
from itertools import product
from math import gcd

from _oracles import relation_closure, standard_braid, torus_alexander_closed_form, torus_braid
from tlinks.braid import BraidWord, split_full_twists
from tlinks.classify import EXCEPTIONAL_FAMILY, NOT_TORUS_LINK, classify_form, classify_spec
from tlinks.garside import normal_form
from tlinks.invariants import alexander, bundle, closure, jones
from tlinks.laurent import LaurentPoly
from tlinks.oracle import NOT_TORUS, TORUS_MATCH, certify, cross_validate, enumerate_forms
from tlinks.tlink import (
    FullTwistForm,
    TLinkSpec,
    absorb_strands,
    flip_base,
    markov_reduce,
)


def _report(name: str, start: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"PASS {name}  [{elapsed:.1f}s, budget {budget_s:.0f}s]")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def test_criterion_torus_self_recognition():
    # certify(standard T(p,q) braid) = TorusMatch(p,q) for all 2 <= q <= p <= 7
    start = time.perf_counter()
    for p in range(2, 8):
        for q in range(2, p + 1):
            cert = certify(torus_braid(p, q), guard=64)
            assert cert.kind == TORUS_MATCH, (p, q, cert)
            matched = [(c.p, c.q) for c in cert.candidates if c.reason == "matched"]
            assert matched == [(p, q)], (p, q, matched)
    _report("torus self-recognition (2 <= q <= p <= 7)", start, 60)


def test_criterion_absorption_trace_validity():
    # every valid form with q < a_n, p <= 9, s_i <= 2, n <= 2: each absorption
    # trades exactly one strand for one crossing (letter count in lockstep,
    # Euler characteristic constant) and preserves component count and the
    # unit-normalized Alexander polynomial exactly; the final word carries a
    # full twist and realizes braid index a_n
    start = time.perf_counter()
    forms = [f for f in enumerate_forms(9, max_n=2, max_s=2) if f.q < f.a_max]
    assert len(forms) == 672
    for form in forms:
        steps = absorb_strands(form)
        first = steps[0]
        base_alex = alexander(first)
        base_components = first.component_count()
        base_chi = closure(first).euler_char
        for j, step in enumerate(steps):
            assert step.strands == form.p - j
            assert len(step.letters) == len(first.letters) - j
            assert closure(step).euler_char == base_chi
            assert step.component_count() == base_components
            assert alexander(step) == base_alex
        assert split_full_twists(steps[-1])[0] >= 1
        assert bundle(steps[-1]).braid_index == form.a_max
    _report(f"absorption trace validity ({len(forms)} forms, p <= 9)", start, 300)


def test_criterion_flip_validity():
    # every valid form with a_n < q, p <= 9 (s_i <= 2, n <= 2): the flipped
    # spec's closure keeps the Alexander polynomial and component count, and
    # the q-strand word realizes braid index q
    start = time.perf_counter()
    forms = [f for f in enumerate_forms(9, max_n=2, max_s=2) if f.a_max < f.q]
    assert len(forms) == 392
    for form in forms:
        original = standard_braid(form.spec())
        flipped = standard_braid(flip_base(form))
        assert flipped.strands == form.q
        assert alexander(flipped) == alexander(original)
        assert flipped.component_count() == original.component_count()
        assert bundle(flipped).braid_index == form.q
    _report(f"base flip validity ({len(forms)} forms, p <= 9)", start, 120)


def test_criterion_theorem_sweep_zero_contradictions():
    # p <= 7, q < p, n <= 2, s_i <= 2, a_i <= 6, guard 24: no instance may
    # combine a NotTorusLink verdict with a TorusMatch certificate, and every
    # NotTorusLink row whose Jones polynomial was available must be fully
    # eliminated by the oracle
    start = time.perf_counter()
    report = cross_validate(max_p=7, max_n=2, max_s=2, max_a=6, guard=24)
    assert len(report.rows) == 260
    assert report.disagreements == []
    confirmed = 0
    for row in report.rows:
        if row.verdict.kind == NOT_TORUS_LINK and row.invariants.jones is not None:
            assert row.certificate.kind == NOT_TORUS, (row.text, row.certificate)
            confirmed += 1
    assert confirmed > 0
    _report(
        f"theorem sweep, zero contradictions ({len(report.rows)} instances, "
        f"{confirmed} Jones-confirmed)",
        start,
        600,
    )


def test_criterion_known_values():
    # alexander(T(2,3)) and the closed-form quotient for coprime 2 <= q < p <= 7;
    # eulerChar(T(p,q)) = p + q - pq for 2 <= q <= p <= 9
    start = time.perf_counter()
    assert alexander(BraidWord(2, (1, 1, 1))) == LaurentPoly({0: 1, 1: -1, 2: 1})
    for p in range(3, 8):
        for q in range(2, p):
            if gcd(p, q) == 1:
                assert alexander(torus_braid(p, q)) == torus_alexander_closed_form(p, q)
    for p in range(2, 10):
        for q in range(2, p + 1):
            assert closure(torus_braid(p, q)).euler_char == p + q - p * q
    _report("known values (Alexander closed form, Euler characteristic)", start, 60)


def test_criterion_garside_word_problem():
    # on every positive word of length <= 6 over <= 4 strands, normal-form
    # equality coincides exactly with brute-force relation-closure equivalence
    start = time.perf_counter()
    total = 0
    for n in (2, 3, 4):
        seen: set[tuple[int, ...]] = set()
        class_nf: dict[int, object] = {}
        nf_class: dict[object, int] = {}
        class_id = 0
        for length in range(0, 7):
            for letters in product(range(1, n), repeat=length):
                total += 1
                if letters in seen:
                    continue
                cls = relation_closure(letters, n)
                seen |= cls
                forms = {normal_form(BraidWord(n, word)) for word in cls}
                assert len(forms) == 1, (n, letters)
                nf = forms.pop()
                assert nf not in nf_class, (n, letters)
                class_nf[class_id] = nf
                nf_class[nf] = class_id
                class_id += 1
    _report(f"Garside word problem ({total} words over <= 4 strands)", start, 120)


def test_criterion_markov_chain():
    # T((2,2),(3,3),(4,1)) reduces to T((2,2),(3,4)) with equal Alexander and
    # Jones polynomials on both closures
    start = time.perf_counter()
    reduced = markov_reduce(TLinkSpec(((2, 2), (3, 3), (4, 1))))
    assert reduced.pairs == ((2, 2), (3, 4))
    w_in = standard_braid(TLinkSpec(((2, 2), (3, 3), (4, 1))))
    w_out = standard_braid(reduced)
    assert alexander(w_in) == alexander(w_out)
    j_in, j_out = jones(w_in), jones(w_out)
    assert j_in is not None and j_in == j_out
    _report("Markov reduction chain", start, 10)


def test_criterion_exceptional_family_labeling():
    # T((2,2),(3,6),(5,4)): q=4 > a_n=3, p=5=1*4+1, s_1=1, a_2=a_1+1
    start = time.perf_counter()
    verdict = classify_spec(TLinkSpec(((2, 2), (3, 6), (5, 4))))
    assert verdict.kind == EXCEPTIONAL_FAMILY
    assert verdict.kind != NOT_TORUS_LINK
    direct = classify_form(FullTwistForm(((2, 1), (3, 2)), (5, 4)))
    assert direct.kind == EXCEPTIONAL_FAMILY
    _report("exceptional family labeling", start, 10)
