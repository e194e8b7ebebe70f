import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    PolyMatrix,
    brute_jones,
    bucket_jones,
    burau_product,
    determinant,
    divide_exact,
    evaluate,
    identity_matrix,
    leibniz_determinant,
    matsub,
    reduced_burau,
    shifted,
    torus_alexander_closed_form,
    torus_jones_closed_form,
)
from tlinks.braid import BraidWord, split_full_twists, torus_braid
from tlinks.invariants import (
    _burau_columns,
    alexander,
    bundle,
    euler_char,
    jones,
    torus_reference,
)
from tlinks.laurent import LaurentPoly
from tlinks.tlink import FullTwistForm, absorb_strands

TREFOIL = BraidWord(2, (1, 1, 1))
UNKNOT = BraidWord(2, (1,))


@st.composite
def words(draw, max_strands=4, max_letters=12):
    n = draw(st.integers(min_value=2, max_value=max_strands))
    k = draw(st.integers(min_value=0, max_value=max_letters))
    letters = tuple(
        draw(st.integers(min_value=1, max_value=n - 1)) * (1 if draw(st.booleans()) else -1)
        for _ in range(k)
    )
    return BraidWord(n, letters)


def test_reduced_burau_examples():
    assert reduced_burau(BraidWord(4, ())) == identity_matrix(3)
    assert reduced_burau(UNKNOT).entries[0][0] == LaurentPoly.term(-1, 1)
    assert reduced_burau(TREFOIL).entries[0][0] == LaurentPoly.term(-1, 3)


def test_reduced_burau_is_a_representation():
    for n, u, v in [
        (4, (1, 2, 1), (2, 1, 2)),
        (4, (2, 3, 2), (3, 2, 3)),
        (4, (1, 3), (3, 1)),
        (5, (2, 4), (4, 2)),
    ]:
        assert reduced_burau(BraidWord(n, u)) == reduced_burau(BraidWord(n, v))
    for n in range(2, 6):
        for i in range(1, n):
            assert reduced_burau(BraidWord(n, (i, -i))) == identity_matrix(n - 1)


def test_alexander_examples():
    assert alexander(TREFOIL) == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert alexander(UNKNOT) == LaurentPoly.one()
    assert alexander(torus_braid(5, 2)) == LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    assert alexander(BraidWord(1, ())) == LaurentPoly.one()
    # split closures have vanishing Alexander polynomial
    assert alexander(BraidWord(2, ())).is_zero


def test_alexander_closed_form_cross_check():
    for p, q in [(3, 2), (5, 2), (5, 3), (7, 4)]:
        assert alexander(torus_braid(p, q)) == torus_alexander_closed_form(p, q)


def test_alexander_at_one_is_a_unit_for_knots():
    for w in [TREFOIL, torus_braid(5, 2), torus_braid(7, 3), torus_braid(5, 4)]:
        assert w.component_count() == 1
        assert abs(evaluate(alexander(w), 1)) == 1


def test_packed_burau_matches_generator_product():
    random.seed(20240209)
    for signs in ((1,), (1, -1)):
        for _ in range(15):
            n = random.randint(2, 6)
            length = random.randint(0, 120)
            letters = tuple(random.choice(signs) * random.randint(1, n - 1) for _ in range(length))
            w = BraidWord(n, letters)
            burau = reduced_burau(w)
            assert burau == burau_product(w)
            minus_identity = matsub(burau, identity_matrix(n - 1))
            assert determinant(minus_identity) == leibniz_determinant(minus_identity)


def full_twist(n):
    return tuple(range(1, n)) * n


def words_with_full_twists(seed, count=60):
    """Signed and positive words of 2-8 strands with 1-3 literal full twists inserted.

    Cycles through a block at the front, a block at the back, two adjacent
    blocks and blocks at random places.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        signs = (1,) if i % 2 else (1, -1)
        n = rng.randint(2, 8)
        twist = full_twist(n)
        letters = [rng.choice(signs) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 20))]
        kind = i // 2 % 4
        placed = (1, 1, 2, 0)[kind]
        if kind == 0:
            letters[:0] = twist
        elif kind == 1:
            letters += twist
        elif kind == 2:
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = twist * 2
        for _ in range(rng.randint(max(placed, 1), 3) - placed):
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = twist
        cases.append(BraidWord(n, tuple(letters)))
    return cases


def test_full_twist_burau_is_scalar():
    # rho(Delta^2) = t^n I, both from the packed columns and from the oracle product
    for n in range(2, 10):
        m = n - 1
        scalar = PolyMatrix.from_rows(
            [LaurentPoly.t(n) if r == c else LaurentPoly.zero() for c in range(m)] for r in range(m)
        )
        w = BraidWord(n, full_twist(n))
        assert split_full_twists(w) == (1, ())
        assert reduced_burau(w) == scalar
        assert burau_product(w) == scalar


def test_burau_and_alexander_with_full_twists_match_oracles():
    for w in words_with_full_twists(20261021):
        burau = burau_product(w)
        assert reduced_burau(w) == burau
        m = w.strands - 1
        det = leibniz_determinant(matsub(burau, identity_matrix(m)))
        strand_sum = LaurentPoly({e: 1 for e in range(w.strands)})
        expected = divide_exact(det, strand_sum).unit_normalized() if det else det
        assert alexander(w) == expected


def test_burau_width_bounds_every_coefficient():
    # every coefficient of t^neg (rho(w) - I), the matrix alexander unpacks at
    # t = 2^K1, must lie in the balanced digit range |c| < 2^(K1-1), also when
    # K1 comes from the letters left after the full twists are split off
    random.seed(20261018)
    cases = []
    for signs in ((1,), (1, -1)):
        for _ in range(20):
            n = random.randint(2, 8)
            length = random.randint(0, 150)
            letters = tuple(random.choice(signs) * random.randint(1, n - 1) for _ in range(length))
            cases.append(BraidWord(n, letters))
    cases += words_with_full_twists(20261022, count=24)
    for w in cases:
        _, k, neg = _burau_columns(w)
        unit = LaurentPoly.t(neg)
        m = w.strands - 1
        rows = burau_product(w).entries
        for r in range(m):
            for c in range(m):
                entry = shifted(rows[r][c], neg) - (unit if r == c else LaurentPoly.zero())
                assert all(abs(x) < 1 << k - 1 for _, x in entry.terms())


def test_alexander_matches_leibniz_oracle():
    random.seed(20261020)
    cases = []
    for signs in ((1,), (1, -1)):
        for _ in range(20):
            n = random.randint(2, 6)
            length = random.randint(0, 120)
            letters = tuple(random.choice(signs) * random.randint(1, n - 1) for _ in range(length))
            cases.append(BraidWord(n, letters))
    # split closures (unlinks, Hopf link beside a trefoil), sigma_i sigma_i^-1, one strand
    cases += [BraidWord(n, ()) for n in range(2, 6)] + [BraidWord(4, (1, 1, 3, 3, 3))]
    cases += [BraidWord(n, (i, -i)) for n in range(2, 6) for i in range(1, n)]
    cases.append(BraidWord(1, ()))
    for w in cases:
        m = w.strands - 1
        det = leibniz_determinant(matsub(burau_product(w), identity_matrix(m)))
        strand_sum = LaurentPoly({e: 1 for e in range(w.strands)})
        expected = divide_exact(det, strand_sum).unit_normalized() if det else det
        assert alexander(w) == expected


def test_jones_examples():
    assert jones(UNKNOT) == LaurentPoly.one()
    assert jones(BraidWord(1, ())) == LaurentPoly.one()
    # right trefoil: t + t^3 - t^4 (quarter exponents 4, 12, -16)
    expected = LaurentPoly({4: 1, 12: 1, 16: -1})
    assert jones(TREFOIL) == expected
    assert brute_jones(TREFOIL) == expected


def test_jones_guard():
    assert jones(TREFOIL, guard=2) is None
    assert jones(TREFOIL, guard=3) is not None


def test_jones_matches_brute_enumeration():
    random.seed(99)
    for _ in range(25):
        n = random.randint(2, 4)
        length = random.randint(0, 8)
        letters = tuple(
            random.choice((1, -1)) * random.randint(1, n - 1) for _ in range(length)
        )
        w = BraidWord(n, letters)
        assert jones(w, guard=20) == brute_jones(w)


def test_packed_jones_matches_bucket_oracle():
    random.seed(20261018)
    cases = []
    for signs in ((1,), (1, -1)):
        for count, strands, lengths in ((20, (2, 9), (0, 24)), (8, (2, 4), (25, 120))):
            for _ in range(count):
                n, length = random.randint(*strands), random.randint(*lengths)
                letters = [random.choice(signs) * random.randint(1, n - 1) for _ in range(length)]
                cases.append((n, letters))
    # long words on two and three strands, where the width grows with the
    # crossings, and split closures, where the closure factor (1 + u^2)^(n-1)
    # carries the whole 2^(n-1) of the width bound
    cases += [(2, [e] * c) for e in (1, -1) for c in (1, 2, 3, 17, 64, 120)]
    cases += [(3, [1, -2] * k) for k in (1, 5, 30, 60)]
    cases += [(n, []) for n in range(1, 10)]
    for n, letters in cases:
        w = BraidWord(n, tuple(letters))
        assert jones(w, guard=len(letters)) == bucket_jones(w)


def test_jones_matches_torus_closed_form():
    for p, q in [(3, 2), (101, 2), (50, 3), (25, 4), (21, 5), (17, 7)]:
        assert jones(torus_braid(p, q), guard=10**6) == torus_jones_closed_form(p, q)


def test_jones_at_one():
    for w in [UNKNOT, TREFOIL, torus_braid(4, 2), torus_braid(6, 3), BraidWord(3, ())]:
        value = evaluate(jones(w, guard=30), 1)
        assert value == (-2) ** (w.component_count() - 1)


def test_euler_char():
    assert euler_char(torus_braid(3, 2)) == -1  # 2 + 3 - 6
    assert euler_char(BraidWord(1, ())) == 1
    for p in range(2, 10):
        for q in range(2, p + 1):
            assert euler_char(torus_braid(p, q)) == p + q - p * q
    with pytest.raises(ValueError):
        euler_char(BraidWord(2, (-1,)))


def test_euler_char_constant_along_trace():
    trace = absorb_strands(FullTwistForm(((3, 1),), (5, 2)))
    values = {euler_char(s) for s in trace.steps}
    assert values == {-9}


def test_bundle_examples():
    b = bundle(TREFOIL)
    assert (b.components, b.euler_char, b.braid_index) == (1, -1, 2)
    assert b.alexander == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert bundle(torus_braid(4, 2)).components == 2
    split = bundle(BraidWord(2, ()))
    assert split.components == 2 and split.jones is not None
    mixed = bundle(BraidWord(3, (1, -2)))
    assert mixed.euler_char is None and mixed.braid_index is None


def test_torus_reference_examples():
    ref = torus_reference(3, 2)
    assert ref.alexander == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert ref.braid_index == 2
    unknot_ref = torus_reference(9, 1)
    assert (unknot_ref.components, unknot_ref.euler_char) == (1, 1)
    assert unknot_ref.alexander == LaurentPoly.one()
    assert unknot_ref.jones == LaurentPoly.one()
    assert torus_reference(4, 2).components == 2
    with pytest.raises(ValueError):
        torus_reference(2, 3)


@settings(max_examples=60, deadline=None)
@given(words(), words(max_letters=4))
def test_alexander_jones_markov_invariance(w, g):
    g = BraidWord(w.strands, tuple(e for e in g.letters if abs(e) < w.strands))
    conj = w.conjugated_by(g)
    stab = w.stabilized()
    alex = alexander(w)
    assert alexander(conj) == alex
    assert alexander(stab) == alex
    jn = jones(w, guard=40)
    assert jones(stab, guard=40) == jn
    assert jones(conj, guard=40) == jn
