import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _descents,
    _perm_inverse,
    factor_words,
    finishing_set,
    fixpoint_normal_form,
    is_identity,
    relation_closure,
    starting_set,
)
from tlinks.braid import BraidWord, Permutation, torus_braid
from tlinks.garside import delta_word, infimum, normal_form
from tlinks.oracle import enumerate_forms
from tlinks.tlink import standard_braid


@st.composite
def positive_words(draw, max_strands=5, max_letters=10):
    n = draw(st.integers(min_value=2, max_value=max_strands))
    k = draw(st.integers(min_value=0, max_value=max_letters))
    letters = tuple(draw(st.integers(min_value=1, max_value=n - 1)) for _ in range(k))
    return BraidWord(n, letters)


def test_delta_word():
    assert delta_word(2).letters == (1,)
    assert delta_word(3).letters == (1, 2, 1)
    d4 = delta_word(4)
    assert len(d4.letters) == 6
    assert d4.permutation().images == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        delta_word(1)


def test_normal_form_examples():
    nf = normal_form(BraidWord(3, (1, 2, 1)))
    assert (nf.infimum, nf.factors) == (1, ())
    assert normal_form(BraidWord(3, (2, 1, 2))) == nf
    nf2 = normal_form(BraidWord(3, (1, 1)))
    assert nf2.infimum == 0
    assert factor_words(nf2) == [(1,), (1,)]


def test_normal_form_rejects_negative_letters():
    with pytest.raises(ValueError):
        normal_form(BraidWord(3, (1, -2)))


def test_infimum_examples():
    d = delta_word(3)
    assert infimum(d.concat(d)) == 2
    assert infimum(BraidWord(3, (1,))) == 0
    assert infimum(torus_braid(5, 3)) >= 2  # (s1 s2)^3 is the full twist


def test_delta_squared_normal_forms():
    for n in range(2, 7):
        d2 = delta_word(n).concat(delta_word(n))
        nf = normal_form(d2)
        assert (nf.infimum, nf.factors) == (2, ())


def test_left_weighted_condition_holds_structurally():
    words = [
        torus_braid(7, 4),
        BraidWord(4, (1, 1, 2, 3, 2, 1, 1, 3)),
        BraidWord(5, (4, 3, 2, 1, 2, 3, 4, 1, 1)),
    ]
    for w in words:
        nf = normal_form(w)
        for a, b in zip(nf.factors, nf.factors[1:]):
            assert starting_set(b) <= finishing_set(a), (w, nf)


def test_starting_and_finishing_sets_are_descent_sets():
    for images in permutations(range(5)):
        f = Permutation(tuple(i + 1 for i in images))
        assert starting_set(f) == _descents(images), images
        assert finishing_set(f) == _descents(_perm_inverse(images)), images


@settings(max_examples=80, deadline=None)
@given(positive_words(max_strands=4, max_letters=8))
def test_prepending_full_twist_shifts_infimum(w):
    d2 = delta_word(w.strands).concat(delta_word(w.strands))
    assert infimum(d2.concat(w)) == infimum(w) + 2


@settings(max_examples=80, deadline=None)
@given(positive_words(max_strands=4, max_letters=8))
def test_normal_form_product_reconstructs_word(w):
    nf = normal_form(w)
    letters = tuple(delta_word(w.strands).letters) * nf.infimum if w.strands > 1 else ()
    for fw in factor_words(nf):
        letters += fw
    # same positive braid element: identical normal forms
    assert normal_form(BraidWord(w.strands, letters)) == nf
    # every adjacent pair of the produced form is left-weighted
    for a, b in zip(nf.factors, nf.factors[1:]):
        assert starting_set(b) <= finishing_set(a)
    # no factor is trivial or the half twist
    n = w.strands
    for f in nf.factors:
        assert not is_identity(f)
        assert f.images != tuple(range(n, 0, -1))


def test_word_problem_smoke_n3():
    # complete invariance on short words over 3 strands
    n = 3
    by_class: dict[frozenset, object] = {}
    for length in range(0, 5):
        for letters in product(range(1, n), repeat=length):
            cls = relation_closure(letters, n)
            nf = normal_form(BraidWord(n, letters))
            if cls in by_class:
                assert by_class[cls] == nf
            else:
                assert nf not in by_class.values()
                by_class[cls] = nf


def test_normal_form_matches_fixpoint_oracle():
    rng = random.Random(20221)
    words = []
    for _ in range(300):
        n = rng.randint(2, 8)
        letters = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 120)))
        words.append(BraidWord(n, letters))
    words += [standard_braid(form.spec()) for form in enumerate_forms(7, max_n=2, max_s=2)]
    for w in words:
        assert normal_form(w) == fixpoint_normal_form(w), w


def test_late_full_twist_reaches_back_through_every_factor():
    # Delta^2 is central, so s1^3 Delta^2 = Delta^2 s1^3: the twist letters,
    # which come last, must end up in front of all three s1 factors.
    for n in range(3, 7):
        w = BraidWord(n, (1, 1, 1) + tuple(range(1, n)) * n)
        nf = normal_form(w)
        assert nf == fixpoint_normal_form(w)
        assert (nf.infimum, factor_words(nf)) == (2, [(1,), (1,), (1,)])
