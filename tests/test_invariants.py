import random
import sys
import threading
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    PolyMatrix,
    alexander_width,
    brute_jones,
    bucket_jones,
    burau_product,
    conjugated_by,
    delta_word,
    determinant,
    divide_exact,
    evaluate,
    identity_matrix,
    leibniz_determinant,
    matsub,
    reduced_burau,
    relation_closure,
    shifted,
    stabilized,
    state_sum_width,
    t_power,
    torus_alexander_closed_form,
    torus_braid,
    torus_jones_closed_form,
    word_product,
)
from tlinks import invariants
from tlinks.braid import BraidWord, closure_pieces, split_full_twists
from tlinks.garside import infimum
from tlinks.invariants import (
    Closure,
    _alexander_columns,
    _braid_index,
    _closure_loops,
    alexander,
    bundle,
    closure,
    jones,
    torus_reference,
)
from tlinks.laurent import LaurentPoly, unpack
from tlinks.oracle import certify
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
    assert reduced_burau(UNKNOT).entries[0][0] == LaurentPoly({1: -1})
    assert reduced_burau(TREFOIL).entries[0][0] == LaurentPoly({3: -1})


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
            [t_power(n) if r == c else LaurentPoly.zero() for c in range(m)] for r in range(m)
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
        j, rest = split_full_twists(w)
        assert alexander(BraidWord(w.strands, rest), j) == expected


def split_matrix(n, twists, first, second, power=0):
    """t^power (t^(n twists) rho(first) - rho(second^-1)) by the oracle product."""
    inverse = tuple(-x for x in reversed(second))
    a = burau_product(BraidWord(n, first)).entries
    b = burau_product(BraidWord(n, inverse)).entries
    return PolyMatrix.from_rows(
        [shifted(x, power + n * twists) - shifted(y, power) for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    )


@settings(max_examples=60, deadline=None)
@given(words(max_strands=5, max_letters=12), st.integers(0, 2), st.randoms(use_true_random=False))
def test_split_determinant_matches_burau_minus_identity(w, twists, rng):
    # det(rho(w) - I) = det(t^(nj) rho(w1) - rho(w2^-1)) det rho(w2) for
    # w = Delta^(2j) w1 w2 at every cut, and det rho(w2) = (-t)^(exponent sum)
    n, m = w.strands, w.strands - 1
    letters = list(w.letters)
    for _ in range(twists if n <= 4 else 0):
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = full_twist(n)
    w = BraidWord(n, tuple(letters))
    j, rest = split_full_twists(w)
    whole = leibniz_determinant(matsub(burau_product(w), identity_matrix(m)))
    for h in range(len(rest) + 1):
        first, second = rest[:h], rest[h:]
        exponent_sum = sum(1 if x > 0 else -1 for x in second)
        unit = LaurentPoly({exponent_sum: (-1) ** (exponent_sum % 2)})
        assert leibniz_determinant(split_matrix(n, j, first, second)) * unit == whole


def test_burau_width_bounds_every_coefficient():
    # every coefficient of the matrix alexander unpacks at t = 2^K1 must lie
    # in the balanced digit range |c| < 2^(K1-1), also when K1 comes from the
    # letters left after the full twists are split off: t^N (t^(nj) rho(w1) -
    # rho(w2^-1)) for signed and twist-free words, cut at half the letters,
    # and rho(w) - I for positive ones with a literal twist
    random.seed(20261018)
    cases = []
    for signs in ((1,), (1, -1)):
        for _ in range(20):
            n = random.randint(2, 8)
            length = random.randint(0, 150)
            letters = tuple(random.choice(signs) * random.randint(1, n - 1) for _ in range(length))
            cases.append(BraidWord(n, letters))
    cases += words_with_full_twists(20261022, count=24)
    cases += [BraidWord(3, (1, 2, 1, 2, 1, 2, -1, 2, -1)), BraidWord(3, (-1,))]
    for w in cases:
        n, m = w.strands, w.strands - 1
        j, rest = split_full_twists(w)
        cols, k, power = _alexander_columns(BraidWord(n, rest), j)
        if w.is_positive and j:
            assert power == 0
            matrix = matsub(burau_product(w), identity_matrix(m))
        else:
            h = len(rest) // 2
            matrix = split_matrix(n, j, rest[:h], rest[h:], power)
        for r in range(m):
            for c in range(m):
                entry = matrix.entries[r][c]
                assert all(abs(x) < 1 << k - 1 for _, x in entry.terms())
                assert unpack(cols[c][r], k, 0) == entry


def test_burau_width_is_pinned():
    # K1 is the width of its bound B1 + B2, recomputed from a column-norm
    # recurrence of the tests' own (_oracles.alexander_width).  The bound is
    # not tight: at one bit less, every value and coefficient check of the
    # suite still passes, so only this pin catches a narrower K1
    rng = random.Random(20261020)
    cases = [BraidWord(2, ()), BraidWord(3, (-1,)), BraidWord(5, (1, 2, 3, 4))]
    for sign in (1, -1):
        for _ in range(40):
            n = rng.randint(2, 9)
            length = rng.randint(0, 60)
            letters = tuple(rng.choice((1, sign)) * rng.randint(1, n - 1) for _ in range(length))
            cases.append(BraidWord(n, letters))
    for rest in cases:
        for twists in (0, 1, 3):
            _, k, _ = _alexander_columns(rest, twists)
            assert k == alexander_width(rest, twists), (rest, twists)


def test_state_sum_width_is_pinned(monkeypatch):
    # the Kauffman state sum of each piece is unpacked at K = c + n + 1, the
    # width of its bound B = 2^(c+n-1) (_oracles.state_sum_width), read off
    # the one unpack each state sum makes.  The bound is not tight: at two
    # bits less, every Jones value of the suite is still right, so only this
    # pin catches a narrower K
    widths = []

    def recording(packed, k, low):
        widths.append(k)
        return unpack(packed, k, low)

    monkeypatch.setattr(invariants, "unpack", recording)
    rng = random.Random(27)
    for n in range(1, 8):
        for _ in range(6):
            length = rng.randint(0, 14) if n > 1 else 0
            letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
            w = BraidWord(n, letters)
            widths.clear()
            c = bundle(w, guard=100)
            assert c.jones == bucket_jones(w)
            assert widths == [state_sum_width(p) for p in c.pieces if p.letters], w


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
        assert alexander(w) == leibniz_alexander(w)


def leibniz_alexander(w):
    """det(rho(w) - I) / [n]_t, unit-normalized, by the oracle product and Leibniz."""
    det = leibniz_determinant(matsub(burau_product(w), identity_matrix(w.strands - 1)))
    strand_sum = LaurentPoly({e: 1 for e in range(w.strands)})
    return divide_exact(det, strand_sum).unit_normalized() if det else det


@settings(max_examples=100, deadline=None)
@given(words(max_strands=6, max_letters=14), st.booleans(), st.integers(0, 5))
def test_twist_free_alexander_matches_leibniz_oracle(w, positive, dropped):
    # a twist-free closure reduces its word once (closure_pieces) and takes
    # Alexander of the one piece, or 0 if it splits; the oracle reads the
    # unreduced word.  Dropping a generator splits the closure.
    n = w.strands
    letters = tuple(abs(e) if positive else e for e in w.letters if abs(e) != dropped)
    w = BraidWord(n, letters)
    expected = leibniz_alexander(w)
    assert Closure(w, 0, 0).alexander == expected
    assert bundle(w, guard=0).alexander == expected


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


def test_jones_on_reducible_words():
    # jones reduces each word first (closure_pieces); the oracles sum the
    # unreduced word
    cases = [
        BraidWord(5, (1, -2, 4, 1, 4, -2, 4)),  # split at the middle generator 3
        BraidWord(4, (1, -2, 1, -2, 3)),  # sigma_{n-1} once
        BraidWord(4, (-3, 1, -2, 1, 2)),  # sigma_{n-1}^-1 once
        BraidWord(4, (2, -3, 1, 2, -3)),  # sigma_1 once
        BraidWord(4, (-3, 2, -1, -3, 2, 2)),  # sigma_1^-1 once
        BraidWord(4, (1, 3, -1, 2, -3, 2, 3)),  # 1 and -1 cancel across 3
        BraidWord(3, (-1, 2, 1, -2, 1, 2, 1)),  # -1 and 1 cancel across the ends
    ]
    for w in cases:
        assert closure_pieces(w) != (w,)
        assert jones(w) == bucket_jones(w) == brute_jones(w), w


def test_jones_of_words_that_cancel_to_nothing():
    # n unknots: (-t^(1/2) - t^(-1/2))^(n-1), in quarter exponents
    for n in range(1, 7):
        expected = LaurentPoly.one()
        for _ in range(n - 1):
            expected = expected * LaurentPoly({2: -1, -2: -1})
        gens = range(1, n)
        odd, even = tuple(gens[::2]), tuple(gens[1::2])
        for letters in (
            tuple(e for g in gens for e in (g, -g)),
            tuple(gens) + tuple(-g for g in reversed(gens)),
            # each letter cancels across far-commuting ones
            odd + tuple(-g for g in odd) + even + tuple(-g for g in even),
        ):
            w = BraidWord(n, letters)
            assert jones(w) == expected == bucket_jones(w), w


def test_state_sum_keeps_zero_buckets(monkeypatch):
    # sigma_g sigma_g^-1 = (A + A^-1 e_g)(A^-1 + A e_g) = 1 + (A^2 + A^-2 + d) e_g
    # with the loop value d = -A^2 - A^-2, so a word that starts with g, -g
    # leaves the bucket of e_g at 0 after its second letter, and a pair met
    # later cancels the e_g terms it adds.  Closure reduces such pairs away
    # before any state sum, so _state_sum is called here on the words as they
    # are: first summed as written, then from the rotation it picks.  It
    # keeps zero buckets; the oracles drop them
    rng = random.Random(26)
    words = []
    for n in range(2, 7):
        for _ in range(4):
            length = rng.randint(0, 6)
            letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
            for _ in range(2):
                g = rng.choice((1, -1)) * rng.randint(1, n - 1)
                at = rng.randint(0, len(letters))
                letters[at:at] = [g, -g]
            g = rng.randint(1, n - 1)
            words.append(BraidWord(n, (g, -g, *letters)))
    expected = [bucket_jones(w) for w in words]
    assert expected == [brute_jones(w) for w in words]
    assert [invariants._state_sum(w) for w in words] == expected
    monkeypatch.setattr(invariants, "_late_start", lambda gens: 0)
    assert [invariants._state_sum(w) for w in words] == expected


def table_words():
    """Fixed signed words on 2-9 strands: per n, the alternating
    sigma_1 sigma_2^-1 sigma_3 ... twice, which closure_pieces leaves whole,
    and three seeded words of 8-16 letters."""
    rng = random.Random(22)
    out = []
    for n in range(2, 10):
        out.append(BraidWord(n, tuple(g if g % 2 else -g for g in range(1, n)) * 2))
        for _ in range(3):
            length = rng.randint(8, 16)
            out.append(BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))))
    return out


def test_jones_is_independent_of_move_table_order(monkeypatch):
    # the move tables number matchings in the order first met, so the two
    # passes number them differently; the buckets are exact integers, so the
    # values agree
    ws = table_words()
    monkeypatch.setattr(invariants, "_move_tables", {})
    forward = [jones(w) for w in ws]
    forward_tables = invariants._move_tables
    monkeypatch.setattr(invariants, "_move_tables", {})
    backward = [jones(w) for w in reversed(ws)][::-1]
    assert forward == backward == [bucket_jones(w) for w in ws]
    assert any(
        forward_tables[n].matchings != table.matchings for n, table in invariants._move_tables.items()
    )


def _crossing_free(m):
    """The matching m of n top and n frontier points pairs every point and
    no two of its arcs cross, read round the rectangle's boundary: top
    points left to right, then frontier points right to left."""
    n = len(m) // 2
    if any(m[m[p]] != p or m[p] == p for p in range(2 * n)):
        return False
    at = [p if p < n else 3 * n - 1 - p for p in range(2 * n)]
    arcs = [sorted((at[p], at[m[p]])) for p in range(2 * n) if p < m[p]]
    return not any(a < c < b < d for a, b in arcs for c, d in arcs)


def check_move_table(table):
    n, size = table.n, len(table.matchings)
    assert size <= comb(2 * n, n) // (n + 1)  # Catalan(n)
    assert all(_crossing_free(m) for m in table.matchings)
    assert table.ids == {m: s for s, m in enumerate(table.matchings)}
    assert table.loops == [_closure_loops(m, n) for m in table.matchings]
    assert len(table.moves) == n and not table.moves[0]
    for move in table.moves[1:]:
        assert len(move) == size
        assert all(t is None or -1 <= t < size for t in move)


def test_move_tables_are_bounded(monkeypatch):
    monkeypatch.setattr(invariants, "_move_tables", {})
    for w in table_words():
        jones(w)
    # a piece on more strands than the tables keep builds a table of its own
    wide = BraidWord(10, tuple(range(1, 10)) * 2)
    assert closure_pieces(wide) == (wide,)
    assert jones(wide) == bucket_jones(wide)
    assert sorted(invariants._move_tables) == list(range(2, 10))
    for table in invariants._move_tables.values():
        check_move_table(table)


def test_move_tables_shared_by_threads(monkeypatch):
    # more threads than cores, switching often, all numbering matchings in
    # the same cold tables, and a loop count that sleeps, so that numberings
    # would interleave without the table's lock; a lost or doubled id shows
    # as a wrong value or as a table that is not a numbering.  The threads
    # call _state_sum directly, so that only the tables are shared
    ws = [w for w in table_words() if w.strands >= 6]
    expected = [bucket_jones(w) for w in ws]

    def sleeping_loops(m, n):
        time.sleep(1e-4)
        return _closure_loops(m, n)

    monkeypatch.setattr(invariants, "_closure_loops", sleeping_loops)
    for _ in range(2):
        monkeypatch.setattr(invariants, "_move_tables", {})
        results: list[list] = [[] for _ in range(6)]

        def run(k):
            results[k].extend(invariants._state_sum(w) for w in ws[k:] + ws[:k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, out in enumerate(results):
            assert out == expected[k:] + expected[:k]
        for table in invariants._move_tables.values():
            check_move_table(table)


@pytest.mark.parametrize("field, engine", [("jones", "_state_sum"), ("alexander", "alexander")])
def test_closures_compute_in_threads_at_once(monkeypatch, field, engine):
    # two threads each read the field of their own closure, whose word is one
    # piece, so the engine runs once per thread; each run waits for the
    # other's to start, so a lock that kept the two reads apart would leave
    # the first waiting alone until the barrier breaks
    ws = [TREFOIL, BraidWord(3, (1, 2, 1, 2))]
    expected = [getattr(closure(w), field) for w in ws]
    barrier = threading.Barrier(2, timeout=20)
    real = getattr(invariants, engine)

    def meeting(*args):
        barrier.wait()
        return real(*args)

    monkeypatch.setattr(invariants, engine, meeting)
    closures = [closure(w) for w in ws]
    values, errors = [None, None], []

    def read(k):
        try:
            values[k] = getattr(closures[k], field)
        except threading.BrokenBarrierError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert values == expected


@settings(max_examples=150, deadline=None)
@given(words(max_strands=6, max_letters=12))
def test_jones_reduction_matches_bucket_oracle(w):
    assert jones(w, guard=12) == bucket_jones(w)


def test_jones_guard_reads_the_unreduced_word():
    w = BraidWord(3, (1, -1) * 13)  # 26 letters that reduce to none
    assert closure_pieces(w) == (BraidWord(1, ()),) * 3
    assert jones(w) is None
    b = bundle(w)
    assert b.letters == 26 and b.jones is None
    assert jones(w, guard=26) == bucket_jones(w)


@settings(max_examples=80, deadline=None)
@given(words(max_strands=4, max_letters=8), st.integers(0, 2), st.booleans(), st.integers(0, 40))
def test_jones_takes_twists_as_alexander_does(w, twists, positive, guard):
    # jones(rest, g, j) is V of Delta^(2j) rest, under the guard on all its letters
    n = w.strands
    if positive:
        w = BraidWord(n, tuple(map(abs, w.letters)))
    whole = BraidWord(n, full_twist(n) * twists + w.letters)
    assert jones(w, guard, twists) == jones(whole, guard)


@settings(max_examples=100, deadline=None)
@given(words(max_strands=6, max_letters=14), st.integers(0, 1), st.booleans())
def test_polynomial_spans_are_bounded_by_the_letters(w, twists, positive):
    # the size of a stored value (see the laurent module): for c letters on n
    # strands, Alexander spans at most c - n + 1 powers of t and Jones at most
    # c + n - 1, 4(c + n - 1) in quarter exponents
    n = w.strands
    if positive:
        w = BraidWord(n, tuple(map(abs, w.letters)))
    b = invariants.Closure(w, twists, 10**6).bundle()
    c = b.letters
    if b.alexander:
        assert len(b.alexander.coeffs) - 1 <= c - n + 1
    assert len(b.jones.coeffs) - 1 <= 4 * (c + n - 1)


def test_jones_guard_counts_twists_before_writing_them(monkeypatch):
    rest = BraidWord(4, (1, -2))

    def no_word(*args):
        raise AssertionError("a word was built past the guard")

    monkeypatch.setattr(invariants, "BraidWord", no_word)
    monkeypatch.setattr(invariants, "closure_pieces", no_word)
    assert jones(BraidWord(3, ()), 5, 1) is None  # 6 twist letters
    assert jones(rest, 24, 10**9) is None
    assert jones(rest, 25, 2) is None  # 24 twist letters and 2 more
    monkeypatch.undo()
    assert jones(rest, 26, 2) == jones(BraidWord(4, full_twist(4) * 2 + rest.letters), 26)


def test_jones_matches_torus_closed_form():
    for p, q in [(3, 2), (101, 2), (50, 3), (25, 4), (21, 5), (17, 7)]:
        assert jones(torus_braid(p, q), guard=10**6) == torus_jones_closed_form(p, q)


def test_jones_at_one():
    for w in [UNKNOT, TREFOIL, torus_braid(4, 2), torus_braid(6, 3), BraidWord(3, ())]:
        value = evaluate(jones(w, guard=30), 1)
        assert value == (-2) ** (w.component_count() - 1)


def test_euler_char():
    assert closure(torus_braid(3, 2)).euler_char == -1  # 2 + 3 - 6
    assert closure(BraidWord(1, ())).euler_char == 1
    for p in range(2, 10):
        for q in range(2, p + 1):
            assert closure(torus_braid(p, q)).euler_char == p + q - p * q
    assert closure(BraidWord(2, (-1,))).euler_char is None  # defined for positive words only


def test_euler_char_constant_along_trace():
    steps = absorb_strands(FullTwistForm(((3, 1),), (5, 2)))
    values = {closure(s.word()).euler_char for s in steps}
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


def braid_index(w):
    return _braid_index(w, split_full_twists(w)[0])


def test_braid_index_examples():
    assert braid_index(torus_braid(5, 3)) == 3
    assert braid_index(BraidWord(3, (1,))) is None
    assert braid_index(BraidWord(1, ())) == 1
    assert braid_index(BraidWord(2, (1, 1, 1))) == 2


def test_braid_index_sees_full_twists():
    assert braid_index(torus_braid(3, 3)) == 3
    assert braid_index(BraidWord(3, (1, 2))) is None
    # one strand: the empty full twist divides everything
    assert braid_index(BraidWord(1, ())) == 1


def test_braid_index_agrees_with_infimum():
    # literal twist first, then the infimum: the criterion holds exactly when
    # the Garside infimum is at least 2
    rng = random.Random(20261023)
    words = [torus_braid(3, 3), torus_braid(7, 3), torus_braid(9, 4)]
    # literal blocks inside positive words
    for n in range(2, 7):
        for _ in range(4):
            letters = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
            pos = rng.randint(0, len(letters))
            letters[pos:pos] = list(range(1, n)) * n
            words.append(BraidWord(n, tuple(letters)))
    # full twists hidden by braid relations
    words.append(BraidWord(3, (2, 1, 2, 1, 2, 1)))
    words += [word_product(delta_word(n), delta_word(n)) for n in range(2, 7)]
    # random positive words, full twists rare
    for _ in range(200):
        n = rng.randint(2, 5)
        words.append(BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 30)))))
    found = [braid_index(w) for w in words]
    assert sum(b is not None for b in found) > 30
    for w, b in zip(words, found):
        assert b == (w.strands if infimum(w) >= 2 else None), w
        assert bundle(w, guard=0).braid_index == b, w
    # a signed word gets no braid index, literal twist or not
    assert bundle(BraidWord(3, (1, 2, 1, 2, 1, 2, -1))).braid_index is None


def test_braid_index_crossing_precheck(monkeypatch):
    # Delta^2 hidden by braid relations: every pair of strands still crosses
    # at least twice, so the pre-check passes and the infimum decides
    rng = random.Random(20261025)
    hidden = []
    for n in range(2, 8):
        for _ in range(6):
            tail = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 25)))
            hidden.append(BraidWord(n, delta_word(n).letters * 2 + tail))
    # every positive word of Delta^2 on 3 and 4 strands, and of Delta^2 sigma_1 sigma_2^2 sigma_1
    for n, tail in ((3, ()), (4, ()), (3, (1, 2, 2, 1))):
        words = relation_closure(delta_word(n).letters * 2 + tail, n)
        hidden += [BraidWord(n, letters) for letters in words]
    assert len(hidden) > 1700
    for w in hidden:
        assert _braid_index(w, 0) == w.strands, w

    # a pair of strands that crosses fewer than twice settles the word
    # without a normal form
    def no_normal_form(w):
        raise AssertionError("a normal form was computed")

    monkeypatch.setattr(invariants, "infimum", no_normal_form)
    short = [BraidWord(3, (1, 1, 2)), BraidWord(3, (2, 1, 2, 1, 2)), BraidWord(4, (1, 2, 3) * 3)]
    short += [BraidWord(n, (delta_word(n).letters * 2)[1:]) for n in range(2, 7)]
    short += [BraidWord(4, (1, 2) * 30 + (3,)), BraidWord(4, (1, 1, 3, 3) * 10)]
    for w in short:
        assert _braid_index(w, 0) is None, w


@settings(max_examples=60, deadline=None)
@given(words(max_strands=5, max_letters=10), st.integers(0, 3), st.randoms(use_true_random=False))
def test_bundle_reads_the_split(w, twists, rng):
    # components and Alexander from (j, rest) agree with the whole word, for
    # signed and positive words with 0-3 literal full twists anywhere
    n = w.strands
    letters = list(w.letters)
    for _ in range(twists):
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = full_twist(n)
    w = BraidWord(n, tuple(letters))
    j, rest = split_full_twists(w)
    assert bundle(w).components == w.component_count()
    assert alexander(BraidWord(n, rest), j) == alexander(w)


def test_each_word_is_split_once(monkeypatch):
    calls = []

    def counting(w):
        calls.append(w)
        return split_full_twists(w)

    monkeypatch.setattr(invariants, "split_full_twists", counting)
    for w in [torus_braid(7, 3), BraidWord(3, (1, -2)), BraidWord(1, ()), BraidWord(3, (2,) * 5)]:
        calls.clear()
        bundle(w)
        assert calls == [w]
    for w in [torus_braid(7, 3), BraidWord(3, (2,) * 5)]:
        calls.clear()
        certify(w)
        assert calls == [w]
    # a torus reference is built from divmod and never split
    calls.clear()
    torus_reference.cache_clear()
    ref = torus_reference(7, 3, 24)
    assert (ref.components, ref.braid_index, ref.alexander) == (1, 3, alexander(torus_braid(7, 3)))
    assert ref.jones == jones(torus_braid(7, 3))
    assert calls == []
    torus_reference.cache_clear()


BUNDLE_FIELDS = ("components", "letters", "euler_char", "braid_index", "alexander", "jones")


def test_twist_free_closures_are_reduced_once(monkeypatch):
    # Alexander and Jones of a twist-free closure read one closure_pieces
    # call; with a literal twist Alexander reads rest and j, unreduced
    calls = []

    def counting(w):
        calls.append(w)
        return closure_pieces(w)

    monkeypatch.setattr(invariants, "closure_pieces", counting)
    rng = random.Random(20261019)
    twist_free = [BraidWord(3, (1, -2, 1)), BraidWord(4, (1, 1, 3, 3, 3)), BraidWord(1, ())]
    twist_free += [BraidWord(3, (1, -1) * 13), BraidWord(5, (1, 2, 3, 4, -3, 2))]
    twist_free.append(BraidWord(6, tuple(rng.randint(1, 5) for _ in range(60))))
    for w in twist_free:
        for guard in (0, 24, 100):
            calls.clear()
            b = bundle(w, guard)
            assert calls == [w], (w, guard)
            assert (b.jones is None) == (len(w.letters) > guard)
    twisted = words_with_full_twists(20261024, count=24) + [torus_braid(7, 3), torus_braid(9, 4)]
    for w in twisted:
        assert split_full_twists(w)[0] >= 1
        calls.clear()
        bundle(w, guard=0)
        assert calls == [], w
    torus_reference.cache_clear()
    for p, q in [(7, 3), (9, 4), (5, 5), (6, 1)]:
        torus_reference(p, q).alexander
    assert calls == []
    torus_reference.cache_clear()


def test_torus_braids_are_twists_times_a_power_of_delta():
    # (sigma_1...sigma_{q-1})^p = Delta^(2 floor(p/q)) delta^(p mod q)
    for p in range(2, 31):
        for q in range(2, p + 1):
            twists, r = divmod(p, q)
            assert split_full_twists(torus_braid(p, q)) == (twists, tuple(range(1, q)) * r), (p, q)
    # at q = 1 the split finds no twist and divmod counts p: both stand for
    # the empty word on one strand
    assert split_full_twists(torus_braid(5, 1)) == (0, ())
    torus_reference.cache_clear()
    one = torus_reference(5, 1)
    assert (one.twists, one.rest) == (5, BraidWord(1, ()))
    for p in range(1, 13):
        for q in range(1, p + 1):
            ref, b = torus_reference(p, q), bundle(torus_braid(p, q))
            for field in BUNDLE_FIELDS:
                assert getattr(ref, field) == getattr(b, field), (p, q, field)
    torus_reference.cache_clear()


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
    conj = conjugated_by(w, g)
    stab = stabilized(w)
    alex = alexander(w)
    assert alexander(conj) == alex
    assert alexander(stab) == alex
    # jones applies these very moves, so the oracle keeps the check independent
    jn = bucket_jones(w)
    assert jones(w, guard=40) == jn
    assert jones(stab, guard=40) == jn
    assert jones(conj, guard=40) == jn
