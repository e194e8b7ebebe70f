from math import gcd

from tlinks.classify import (
    DEFERRED_TO_LEE,
    EXCEPTIONAL_FAMILY,
    INVALID_INPUT,
    NOT_TORUS_LINK,
    classify_form,
    classify_pairs,
    classify_spec,
)
from tlinks.oracle import enumerate_forms
from tlinks.tlink import FullTwistForm, TLinkSpec, parse_tlink


def test_gcd_branch():
    v = classify_form(FullTwistForm(((3, 1),), (4, 2)))
    assert (v.kind, v.rule) == (NOT_TORUS_LINK, "Prop 2.7")
    assert "gcd(4,2)=2" in v.details


def test_absorption_branch():
    v = classify_form(FullTwistForm(((3, 1),), (5, 2)))
    assert (v.kind, v.rule) == (NOT_TORUS_LINK, "Lemma 2.4")


def test_exceptional_family():
    for s2 in (1, 2, 3):
        v = classify_form(FullTwistForm(((2, 1), (3, s2)), (5, 4)))
        assert v.kind == EXCEPTIONAL_FAMILY
        assert v.rule is None


def test_residue_branch():
    # p not 1 mod q
    v = classify_form(FullTwistForm(((2, 1), (3, 1)), (7, 5)))
    assert (v.kind, v.rule) == (NOT_TORUS_LINK, "Prop 2.8")
    # s_1 > 1
    v = classify_form(FullTwistForm(((2, 2), (3, 1)), (5, 4)))
    assert (v.kind, v.rule) == (NOT_TORUS_LINK, "Prop 2.8")
    # a_2 != a_1 + 1
    v = classify_form(FullTwistForm(((2, 1), (4, 1)), (6, 5)))
    assert (v.kind, v.rule) == (NOT_TORUS_LINK, "Prop 2.8")


def test_single_twist_branches():
    v = classify_form(FullTwistForm(((2, 2),), (5, 3)))
    assert (v.kind, v.rule) == (NOT_TORUS_LINK, "Cor 2.9")
    v = classify_form(FullTwistForm(((2, 1),), (5, 3)))
    assert v.kind == DEFERRED_TO_LEE


def test_classify_pairs_reports_invalid():
    v = classify_pairs(((2, 1),), (5, 2))  # a_1 = q
    assert v.kind == INVALID_INPUT
    v = classify_pairs(((6, 1),), (5, 3))  # a_n >= p
    assert v.kind == INVALID_INPUT
    v = classify_pairs(((2, 1),), (5.9, 3))  # int() would read p = 5
    assert (v.kind, v.details) == (INVALID_INPUT, "p must be an integer, got 5.9")


def test_classify_spec_examples():
    assert classify_spec(parse_tlink("T((3,3),(4,2))")).kind == NOT_TORUS_LINK
    assert classify_spec(parse_tlink("T((3,4),(5,2))")).kind == INVALID_INPUT
    reduced = classify_spec(parse_tlink("T((2,2),(3,3),(5,1))"))
    # reduces to T((2,2),(3,4)), whose base exponent exceeds its strand count
    assert reduced.kind == INVALID_INPUT
    # reduces to T((2,4),(5,3)) and classifies that form
    chained = classify_spec(parse_tlink("T((2,4),(5,2),(6,1))"))
    assert (chained.kind, chained.rule) == (NOT_TORUS_LINK, "Cor 2.9")
    assert classify_spec(parse_tlink("T((2,2),(5,2),(6,1))")).kind == DEFERRED_TO_LEE


def test_verdict_is_a_pure_function_of_the_signature():
    seen: dict[tuple, tuple] = {}
    for form in enumerate_forms(8, max_n=2, max_s=3):
        v = classify_form(form)
        assert v.kind != INVALID_INPUT
        if v.kind == NOT_TORUS_LINK:
            assert v.rule in {"Lemma 2.4", "Lemma 2.6", "Prop 2.7", "Prop 2.8", "Cor 2.9"}
        p, q = form.base
        a_1, s_1 = form.twist_pairs[0]
        a_gap = form.twist_pairs[1][0] - a_1 if form.n > 1 else 0
        signature = (
            gcd(p, q) > 1,
            1 if q > form.a_max else -1,
            p % q == 1,
            s_1 > 1,
            a_gap == 1,
            form.n,
        )
        if signature in seen:
            assert seen[signature] == (v.kind, v.rule), signature
        else:
            seen[signature] = (v.kind, v.rule)


def test_gcd_branch_ignores_twist_counts():
    base = classify_form(FullTwistForm(((3, 1), (5, 1)), (6, 4)))
    for scale in (2, 5):
        scaled = FullTwistForm(((3, scale), (5, scale)), (6, 4))
        assert classify_form(scaled) == base


def test_acceptance_exceptional_instance():
    spec = TLinkSpec(((2, 2), (3, 6), (5, 4)))
    verdict = classify_spec(spec)
    assert verdict.kind == EXCEPTIONAL_FAMILY
