from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    conjugated_by,
    cycles,
    destabilized,
    is_identity,
    letter_stats,
    permutation_inverse,
    stabilized,
    strand_permutation,
    torus_braid,
    word_inverse,
    word_product,
)
import tlinks.braid as braid_module
from tlinks.braid import (
    BraidWord,
    braid_text,
    closure_pieces,
    parse_braid_text,
    split_full_twists,
)


@st.composite
def braid_words(draw, max_strands=5, max_letters=10, positive=False, min_strands=2):
    n = draw(st.integers(min_value=min_strands, max_value=max_strands))
    # one strand has no generator, so only the empty word
    k = draw(st.integers(min_value=0, max_value=max_letters if n > 1 else 0))
    letters = []
    for _ in range(k):
        g = draw(st.integers(min_value=1, max_value=n - 1))
        if not positive and draw(st.booleans()):
            g = -g
        letters.append(g)
    return BraidWord(n, tuple(letters))


NON_INTEGER_WORDS = [
    # the strand count or letter that int() would read is named
    ((3.5, (1,)), "strand count must be an integer, got 3.5"),
    (("3", (1,)), "strand count must be an integer, got '3'"),
    ((3, (1.0, 2, 1, 2)), "letter at index 0 must be an integer, got 1.0"),
    ((3, (1, 2, -1, 1.5)), "letter at index 3 must be an integer, got 1.5"),
    ((4, (1, 2.0, 5)), "letter at index 1 must be an integer, got 2.0"),
]


@pytest.mark.parametrize("args, message", NON_INTEGER_WORDS)
def test_non_integer_word_rejected(args, message):
    with pytest.raises(TypeError) as exc:
        BraidWord(*args)
    assert str(exc.value) == message


def test_bool_reads_as_an_integer():
    w = BraidWord(True, ())
    assert w == BraidWord(1, ()) and type(w.strands) is int
    assert BraidWord(3, (True, 2, -True)) == BraidWord(3, (1, 2, -1))


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
    assert strand_permutation(BraidWord(3, (1, 2))) == (2, 3, 1)
    assert strand_permutation(BraidWord(3, (-1, 2))) == (2, 3, 1)
    assert is_identity(strand_permutation(BraidWord(2, (1, 1))))
    assert BraidWord(2, (1, 1)).component_count() == 2
    # (s1 s2 s3 s4)^2: the 5-cycle squared, again a 5-cycle
    w = BraidWord(5, (1, 2, 3, 4) * 2)
    assert cycles(strand_permutation(w)) == [(1, 3, 5, 2, 4)]
    assert w.component_count() == 1


def test_component_count_examples():
    assert torus_braid(4, 2).component_count() == 2
    assert BraidWord(6, ()).component_count() == 6
    assert torus_braid(5, 2).component_count() == 1


def test_component_count_gcd_exhaustive():
    for p in range(3, 13):
        for q in range(2, p):
            assert torus_braid(p, q).component_count() == gcd(p, q)


@settings(max_examples=300)
@given(braid_words(min_strands=1, max_strands=9, max_letters=30))
def test_component_count_is_the_cycle_count(w):
    # signed words on 1 to 9 strands, the empty word among them
    assert w.component_count() == len(cycles(strand_permutation(w)))


def test_letter_stats():
    assert letter_stats(BraidWord(2, (1, 1, 1))) == (3, 0, 3)
    assert letter_stats(BraidWord(2, ())) == (0, 0, 0)
    assert letter_stats(BraidWord(3, (1, -2, 2, -1))) == (2, 2, 0)


def test_concat():
    a = BraidWord(3, (1,))
    b = BraidWord(3, (2,))
    assert word_product(a, b).letters == (1, 2)
    assert word_product(BraidWord(3, ()), a).letters == (1,)
    assert word_product(BraidWord(3, (1, 2)), BraidWord(3, (-2, -1))).letters == (1, 2, -2, -1)
    with pytest.raises(ValueError):
        word_product(a, BraidWord(4, (1,)))


def test_inverse():
    assert word_inverse(BraidWord(3, (1, 2))).letters == (-2, -1)
    assert word_inverse(BraidWord(3, ())).letters == ()
    assert word_inverse(BraidWord(3, (1, -2))).letters == (2, -1)


def test_markov_stabilize():
    assert stabilized(BraidWord(1, ())) == BraidWord(2, (1,))
    assert stabilized(BraidWord(2, (1, 1, 1))) == BraidWord(3, (1, 1, 1, 2))


def test_markov_destabilize():
    assert destabilized(BraidWord(3, (1, 1, 1, 2))) == BraidWord(2, (1, 1, 1))
    assert destabilized(BraidWord(3, (2, 1, 1, 1))) == BraidWord(2, (1, 1, 1))
    with pytest.raises(ValueError):
        destabilized(BraidWord(3, (1, 2, 1, 2)))
    with pytest.raises(ValueError):
        destabilized(BraidWord(3, (1, 1)))
    # a negative top letter also destabilizes
    assert destabilized(BraidWord(3, (-2, 1, 1))) == BraidWord(2, (1, 1))


def test_closure_pieces():
    unknot = BraidWord(1, ())
    # nothing applies: the word comes back as it is
    assert closure_pieces(BraidWord(3, (1, 2, 1, 2))) == (BraidWord(3, (1, 2, 1, 2)),)
    assert closure_pieces(unknot) == (unknot,)
    assert closure_pieces(BraidWord(3, ())) == (unknot,) * 3
    # split at the unused generator 2; the upper piece is relabelled from 1
    assert closure_pieces(BraidWord(5, (1, 1, 1, 3, 4, 3, 4))) == (
        BraidWord(2, (1, 1, 1)),
        BraidWord(3, (1, 2, 1, 2)),
    )
    # sigma_{n-1} once is Markov's destabilization, up to rotation
    top = BraidWord(3, (1, 1, 2, 1))
    assert closure_pieces(top) == (BraidWord(2, (1, 1, 1)),)
    assert destabilized(top) == BraidWord(2, (1, 1, 1))
    assert closure_pieces(BraidWord(3, (1, -2, 1, 1))) == (BraidWord(2, (1, 1, 1)),)
    # sigma_1 once: conjugating by Delta maps i to n - i, then destabilize
    assert closure_pieces(BraidWord(3, (2, 2, -1, 2))) == (BraidWord(2, (1, 1, 1)),)
    # 1 and -1 cancel across the far-commuting 3; then sigma_1 is unused
    assert closure_pieces(BraidWord(4, (1, 3, -1, 2, 3, 2))) == (
        unknot,
        BraidWord(3, (2, 1, 2, 1)),
    )
    # -1 at the end and 1 at the start cancel across the ends of the word
    assert closure_pieces(BraidWord(3, (1, 2, 1, 2, 1, 2, -1))) == (
        BraidWord(3, (2, 1, 2, 1, 2)),
    )
    # a cascade: destabilizing sigma_3 lets 2 and -2, then 1 and -1 cancel
    assert closure_pieces(BraidWord(4, (1, 2, 3, -2, -1))) == (unknot,) * 3
    assert closure_pieces(BraidWord(3, (1, -1) * 13)) == (unknot,) * 3
    # the -1 at index 2 meets the 1 at index 0 across the ends only after the
    # later -1, 1 have cancelled, so one left-to-right scan leaves them
    assert closure_pieces(BraidWord(4, (1, 2, -1, 3, -1, 1, 3))) == (
        unknot,
        BraidWord(2, (1, 1)),
    )
    # a long cascade: 1000 pairs 2, -2 cancel, and sigma_2 is then unused
    assert closure_pieces(BraidWord(3, (1,) * 2000 + (2, -2) * 1000)) == (
        BraidWord(2, (1,) * 2000),
        unknot,
    )


def test_cancellation_cascades_across_commuting_letters(monkeypatch):
    # sigma_1 ... sigma_97 sigma_97^-1 ... sigma_1^-1 on 100 strands with
    # sigma_99^25 after each letter: after each pair cancels, the scan resumes
    # at the next pair, so one scan deletes every pair and a second finds none
    letters = []
    for e in [*range(1, 98), *range(-97, 0)]:
        letters += [e] + [99] * 25
    scans = []
    cancel_pass = braid_module._cancel_pass

    def counted(word):
        scans.append(len(word))
        return cancel_pass(word)

    monkeypatch.setattr(braid_module, "_cancel_pass", counted)
    pieces = closure_pieces(BraidWord(100, tuple(letters)))
    assert len(letters) == 5044 and len(scans) <= 2
    assert [p for p in pieces if p.letters] == [BraidWord(2, (1,) * 4850)]


def _reduced(piece: BraidWord) -> bool:
    """No cancellation, destabilization or split applies (by brute force)."""
    n, letters = piece.strands, piece.letters
    counts = [sum(1 for e in letters if abs(e) == g) for g in range(1, n)]
    if n > 1 and (min(counts) == 0 or counts[0] == 1 or counts[-1] == 1):
        return False
    for i, e in enumerate(letters):
        # the first letter after e, cyclically, that does not commute with it
        for step in range(1, len(letters)):
            f = letters[(i + step) % len(letters)]
            if abs(abs(f) - abs(e)) <= 1:
                if f == -e:
                    return False
                break
    return True


@settings(max_examples=200)
@given(braid_words(max_strands=7, max_letters=30))
def test_closure_pieces_are_reduced(w):
    pieces = closure_pieces(w)
    assert all(_reduced(p) for p in pieces)
    # components add up over a split union and survive every move
    assert sum(p.component_count() for p in pieces) == w.component_count()
    assert sum(len(p) for p in pieces) <= len(w)


def test_conjugate():
    w = BraidWord(3, (1, 1, 1))
    assert conjugated_by(w, BraidWord(3, (2,))).letters == (-2, 1, 1, 1, 2)
    assert conjugated_by(w, BraidWord(3, ())) == w


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
    with pytest.raises(ValueError):  # more digits than int() converts
        parse_braid_text("n=2: 1," + "1" * 5000)


@pytest.mark.parametrize(
    "text, message",
    [
        # int() reads other decimal digits and underscores; the format does not
        ("n=\u0663: 1", "bad strand count '\u0663'"),
        ("n=3: \u0661,2", "bad letter '\u0661' at index 0"),
        ("n=1_0: 1_0", "bad strand count '1_0'"),
        ("n=3: 1,1_0", "bad letter '1_0' at index 1"),
        ("n=3: 1,\u00a02", "bad letter '\\xa02' at index 1"),
        ("\u00a0n=3: 1", "bad strand count '\\xa03'"),
        ("n=x: 1", "bad strand count 'x'"),
        ("n=3: 1, 2,\t-1, x", "bad letter 'x' at index 3"),
        ("n=3: 1,,2", "bad letter '' at index 1"),
        # the first bad letter of a long list is named, not the list
        ("n=3: " + "1," * 3000 + "z,1", "bad letter 'z' at index 3000"),
        ("n=3 " + "1," * 3000, "expected 'n=K: letters' at the start of 'n=3 1,1,1,1,1,1,1,1,'"),
    ],
)
def test_parse_braid_text_names_the_first_bad_token(text, message):
    with pytest.raises(ValueError) as info:
        parse_braid_text(text)
    assert str(info.value) == message


@settings(max_examples=100)
@given(braid_words(), braid_words(max_letters=5))
def test_conjugation_invariants(w, g):
    g = BraidWord(w.strands, tuple(e for e in g.letters if abs(e) < w.strands))
    conj = conjugated_by(w, g)
    assert conj.component_count() == w.component_count()
    assert letter_stats(conj)[2] == letter_stats(w)[2]  # the exponent sums
    # conjugate permutations share their cycle type
    assert sorted(map(len, cycles(strand_permutation(conj)))) == sorted(
        map(len, cycles(strand_permutation(w)))
    )


@settings(max_examples=100)
@given(braid_words())
def test_destabilize_undoes_stabilize(w):
    assert destabilized(stabilized(w)) == w


@settings(max_examples=100)
@given(braid_words(), braid_words())
def test_permutation_of_concat_is_composition(a, b):
    b = BraidWord(a.strands, tuple(e for e in b.letters if abs(e) < a.strands))
    # diagram order: the permutation of a first, then that of b
    pa, pb = strand_permutation(a), strand_permutation(b)
    composed = tuple(pa[i - 1] for i in pb)
    assert strand_permutation(word_product(a, b)) == composed
    assert word_product(a, b).component_count() == len(cycles(composed))


def test_permutation_type():
    # permutations are 1-based image tuples, p[i-1] = image of i
    p = (2, 3, 1)
    assert permutation_inverse(p) == (3, 1, 2)
    assert is_identity(tuple(p[i - 1] for i in permutation_inverse(p)))
    assert cycles(p) == [(1, 2, 3)]
    assert cycles((1, 3, 2, 4)) == [(1,), (2, 3), (4,)]


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
