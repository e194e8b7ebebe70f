from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlinks.braid import (
    BraidWord,
    Permutation,
    braid_text,
    parse_braid_text,
    split_full_twists,
    torus_braid,
)


@st.composite
def braid_words(draw, max_strands=5, max_letters=10, positive=False):
    n = draw(st.integers(min_value=2, max_value=max_strands))
    k = draw(st.integers(min_value=0, max_value=max_letters))
    letters = []
    for _ in range(k):
        g = draw(st.integers(min_value=1, max_value=n - 1))
        if not positive and draw(st.booleans()):
            g = -g
        letters.append(g)
    return BraidWord(n, tuple(letters))


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (-3,))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    BraidWord(1, ())  # identity on one strand is fine
    # a bad letter after good ones is named with its index
    with pytest.raises(ValueError, match=r"^letter 4 at index 3 out of range for 4 strands$"):
        BraidWord(4, (1, -3, 2, 4, 1))
    with pytest.raises(ValueError, match=r"^letter 0 at index 2 out of range for 3 strands$"):
        BraidWord(3, (2, -2, 0, 5))
    with pytest.raises(ValueError, match=r"^letter -5 at index 1 out of range for 5 strands$"):
        BraidWord(5, (4, -5, -4))
    # list input is stored as a tuple
    w = BraidWord(3, [1, -2, 2])
    assert w.letters == (1, -2, 2) and isinstance(w.letters, tuple)
    assert w == BraidWord(3, (1, -2, 2)) and hash(w) == hash(BraidWord(3, (1, -2, 2)))
    # the empty word is positive, on any strand count
    assert BraidWord(1, ()).is_positive and BraidWord(4, ()).is_positive
    assert BraidWord(3, (1, 2)).is_positive and not BraidWord(3, (1, -2)).is_positive


def test_permutation_examples():
    assert BraidWord(3, (1, 2)).permutation().images == (2, 3, 1)
    assert BraidWord(2, (1, 1)).permutation().is_identity()
    # (s1 s2 s3 s4)^2: the 5-cycle squared, again a 5-cycle
    w = BraidWord(5, (1, 2, 3, 4) * 2)
    cycles = w.permutation().cycles()
    assert len(cycles) == 1 and len(cycles[0]) == 5


def test_component_count_examples():
    assert torus_braid(4, 2).component_count() == 2
    assert BraidWord(6, ()).component_count() == 6
    assert torus_braid(5, 2).component_count() == 1


def test_component_count_gcd_exhaustive():
    for p in range(3, 13):
        for q in range(2, p):
            assert torus_braid(p, q).component_count() == gcd(p, q)


def test_letter_stats():
    assert BraidWord(2, (1, 1, 1)).letter_stats() == (3, 0, 3)
    assert BraidWord(2, ()).letter_stats() == (0, 0, 0)
    assert BraidWord(3, (1, -2, 2, -1)).letter_stats() == (2, 2, 0)


def test_concat():
    a = BraidWord(3, (1,))
    b = BraidWord(3, (2,))
    assert a.concat(b).letters == (1, 2)
    assert BraidWord(3, ()).concat(a).letters == (1,)
    assert (BraidWord(3, (1, 2)) * BraidWord(3, (-2, -1))).letters == (1, 2, -2, -1)
    with pytest.raises(ValueError):
        a.concat(BraidWord(4, (1,)))


def test_inverse():
    assert BraidWord(3, (1, 2)).inverse().letters == (-2, -1)
    assert BraidWord(3, ()).inverse().letters == ()
    assert BraidWord(3, (1, -2)).inverse().letters == (2, -1)


def test_markov_stabilize():
    assert BraidWord(1, ()).stabilized() == BraidWord(2, (1,))
    assert BraidWord(2, (1, 1, 1)).stabilized() == BraidWord(3, (1, 1, 1, 2))


def test_markov_destabilize():
    assert BraidWord(3, (1, 1, 1, 2)).destabilized() == BraidWord(2, (1, 1, 1))
    assert BraidWord(3, (2, 1, 1, 1)).destabilized() == BraidWord(2, (1, 1, 1))
    with pytest.raises(ValueError):
        BraidWord(3, (1, 2, 1, 2)).destabilized()
    with pytest.raises(ValueError):
        BraidWord(3, (1, 1)).destabilized()
    # a negative top letter also destabilizes
    assert BraidWord(3, (-2, 1, 1)).destabilized() == BraidWord(2, (1, 1))


def test_conjugate():
    w = BraidWord(3, (1, 1, 1))
    assert w.conjugated_by(BraidWord(3, (2,))).letters == (-2, 1, 1, 1, 2)
    assert w.conjugated_by(BraidWord(3, ())) == w


def test_text_round_trip():
    w = BraidWord(3, (1, 2, -1))
    assert braid_text(w) == "n=3: 1,2,-1"
    assert parse_braid_text("n=3: 1,2,-1") == w
    assert parse_braid_text("n=4:") == BraidWord(4, ())
    assert parse_braid_text(" n=2:  1 , 1 ") == BraidWord(2, (1, 1))
    with pytest.raises(ValueError):
        parse_braid_text("3: 1,2")
    with pytest.raises(ValueError):
        parse_braid_text("n=3: 1,x")


@settings(max_examples=100)
@given(braid_words(), braid_words(max_letters=5))
def test_conjugation_invariants(w, g):
    g = BraidWord(w.strands, tuple(e for e in g.letters if abs(e) < w.strands))
    conj = w.conjugated_by(g)
    assert conj.component_count() == w.component_count()
    assert conj.letter_stats().exponent_sum == w.letter_stats().exponent_sum
    # conjugate permutations share their cycle type
    assert sorted(len(c) for c in conj.permutation().cycles()) == sorted(
        len(c) for c in w.permutation().cycles()
    )


@settings(max_examples=100)
@given(braid_words())
def test_destabilize_undoes_stabilize(w):
    assert w.stabilized().destabilized() == w


@settings(max_examples=100)
@given(braid_words(), braid_words())
def test_permutation_of_concat_is_composition(a, b):
    b = BraidWord(a.strands, tuple(e for e in b.letters if abs(e) < a.strands))
    # diagram order: the permutation of a first, then that of b
    pa, pb = a.permutation(), b.permutation()
    assert a.concat(b).permutation() == Permutation(tuple(pa(i) for i in pb.images))


def test_permutation_type():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    p = Permutation((2, 3, 1))
    assert p.inverse().images == (3, 1, 2)
    assert Permutation(tuple(p(i) for i in p.inverse().images)).is_identity()
    assert p.cycles() == [(1, 2, 3)]


def test_split_full_twists_edge_cases():
    twist3 = (1, 2) * 3
    # one strand: the full twist is empty and nothing is split off
    assert split_full_twists(BraidWord(1, ())) == (0, ())
    # two strands: the full twist is sigma_1^2
    assert split_full_twists(BraidWord(2, (1, 1, 1))) == (1, (1,))
    assert split_full_twists(BraidWord(2, (1, 1, 1, 1))) == (2, ())
    assert split_full_twists(BraidWord(2, (1, -1, 1))) == (0, (1, -1, 1))
    # fewer letters than one block
    assert split_full_twists(BraidWord(3, (1, 2, 1, 2, 1))) == (0, (1, 2, 1, 2, 1))
    assert split_full_twists(BraidWord(4, twist3)) == (0, twist3)
    # adjacent blocks, and a third block overlapping the second by one letter
    assert split_full_twists(BraidWord(3, twist3 * 2)) == (2, ())
    assert split_full_twists(BraidWord(3, twist3 + (1, 2) * 2 + (1,))) == (1, (1, 2, 1, 2, 1))
    assert split_full_twists(BraidWord(3, (2,) + twist3 + (1,) + twist3)) == (2, (2, 1))
    # a block split by one letter is not removed (a sigma_1 after its first
    # letter would start a block there, so that cut gets sigma_(n-1))
    for n in (3, 4, 5):
        block = tuple(range(1, n)) * n
        for cut in (1, len(block) // 2, len(block) - 1):
            letters = block[:cut] + (n - 1 if cut == 1 else 1,) + block[cut:]
            assert split_full_twists(BraidWord(n, letters)) == (0, letters)
    # signed words: positive blocks go, inverse letters and inverse blocks stay
    assert split_full_twists(BraidWord(3, (-1,) + twist3 + (-2,))) == (1, (-1, -2))
    inverse = tuple(-e for e in twist3)
    assert split_full_twists(BraidWord(3, inverse)) == (0, inverse)
    assert split_full_twists(BraidWord(3, (1, -2) + twist3 * 2 + (2, -1))) == (2, (1, -2, 2, -1))
