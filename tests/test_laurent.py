import pickle
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    PolyMatrix,
    _dense,
    determinant,
    divide_exact,
    evaluate,
    identity_matrix,
    leibniz_determinant,
    matmul,
    permanent,
    poly_pow,
    t_power,
)
from tlinks import laurent
from tlinks.laurent import (
    InexactDivisionError,
    LaurentPoly,
    divide_by_strand_sum,
    packed_determinant,
    poly_text,
    unpack,
)

T = t_power
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def P(coeffs):
    return LaurentPoly(coeffs)


small_maps = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-6, max_value=6),
    max_size=5,
)
small_polys = small_maps.map(LaurentPoly)


def test_add_examples():
    assert T(1) + P({1: -1}) == ZERO
    assert P({0: 1, 1: 1}) + T(1) == P({0: 1, 1: 2})
    assert T(-1) + T(1) == P({-1: 1, 1: 1})


def test_mul_examples():
    assert (T(1) - ONE) * (T(1) + ONE) == P({2: 1, 0: -1})
    assert T(-1) * T(1) == ONE
    # schoolbook expansion: (1 + t + t^2)(t - 1) = t^3 - 1
    assert P({0: 1, 1: 1, 2: 1}) * (T(1) - ONE) == P({3: 1, 0: -1})


def test_determinant_examples():
    assert determinant(identity_matrix(3)) == ONE
    diag = PolyMatrix.from_rows([[T(1), ZERO], [ZERO, T(-1)]])
    assert determinant(diag) == ONE
    # 2x2 cofactor oracle: 1*1 - t*t
    m = PolyMatrix.from_rows([[ONE, T(1)], [T(1), ONE]])
    assert determinant(m) == P({0: 1, 2: -1})


def test_determinant_singular_and_pivoting():
    z = PolyMatrix.from_rows([[ZERO, ZERO], [ONE, ONE]])
    assert determinant(z) == ZERO
    swapped = PolyMatrix.from_rows([[ZERO, ONE], [ONE, ZERO]])
    assert determinant(swapped) == P({0: -1})


def test_determinant_matches_leibniz_oracle():
    big = 1 << 100
    cases = [
        # negative exponents
        [[T(-3), P({-1: 2, 2: -1})], [P({-5: 1, 0: 4}), T(4)]],
        # a zero row
        [[ONE, T(1), T(-2)], [ZERO, ZERO, ZERO], [T(2), ONE, T(-1)]],
        # zero pivots force row swaps, the second one only after elimination
        [[ZERO, T(1), ONE], [T(-1), ZERO, P({0: 3})], [ONE, T(2), ZERO]],
        [[ONE, ONE, T(1)], [ONE, ONE, T(2)], [T(1), ONE, ONE]],
        # coefficients of 2^100 and more, with products reaching 2^300
        [[P({0: big, 3: -big}), P({1: big + 1})], [P({-2: -big}), P({0: big * big, 1: 7})]],
        [[P({0: big, 1: big}), P({0: big})], [P({0: -big}), P({0: big, 1: -big})]],
        # the digit-width bound attained: det = 2^200 = product of the row norms
        [[P({0: big}), ZERO], [ZERO, P({0: big})]],
        # the column-norm product 2^101 is far below the row-norm product
        # 2^100 (2^100 + 1), so the narrower column width is the one checked
        [[P({0: big}), ZERO], [P({0: big}), ONE]],
    ]
    for rows in cases:
        m = PolyMatrix.from_rows(rows)
        assert determinant(m) == leibniz_determinant(m)


def test_normalize_unit_examples():
    assert P({3: -1, 5: 1}).unit_normalized() == P({0: 1, 2: -1})
    assert T(7).unit_normalized() == ONE
    already = P({0: 1, 1: -1, 2: 1})
    assert already.unit_normalized() == already


def test_normalize_unit_rejects_zero():
    with pytest.raises(ValueError):
        ZERO.unit_normalized()


def test_divide_exact():
    num = P({3: 1, 0: -1})  # t^3 - 1
    assert divide_exact(num, T(1) - ONE) == P({0: 1, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        divide_exact(P({1: 1, 0: 1}), P({1: 2}))
    shifted = P({-2: 1, 1: 1})
    assert divide_exact(shifted, T(-2)) == P({0: 1, 3: 1})
    # negative exponents in both operands: (t^-3 + t^-1)(t^-2 - 3 + 5t) / (t^-2 - 3 + 5t)
    num = P({-5: 1, -3: -2, -2: 5, -1: -3, 0: 5})
    assert divide_exact(num, P({-2: 1, 0: -3, 1: 5})) == P({-3: 1, -1: 1})
    # a divisor whose lead coefficient is not a unit: 2t^2 + 4t + 2 = (2t + 2)(t + 1)
    assert divide_exact(P({2: 2, 1: 4, 0: 2}), P({1: 2, 0: 2})) == P({1: 1, 0: 1})
    with pytest.raises(InexactDivisionError):
        divide_exact(P({2: 3, 0: 1}), P({1: 2, 0: 2}))  # 3 is not divisible by 2
    # the top terms cancel but a low-order remainder is left: t^3 + t + 1 = (t^2 + 1) t + 1
    with pytest.raises(InexactDivisionError, match="not exact"):
        divide_exact(P({3: 1, 1: 1, 0: 1}), P({2: 1, 0: 1}))
    with pytest.raises(InexactDivisionError):
        divide_exact(T(1), P({2: 1, 0: 1}))  # divisor of higher degree


def test_divide_by_strand_sum_checks():
    def packed(coeffs, k):
        return sum(c << k * e for e, c in coeffs.items())

    # exact: (1 + t + t^2)(1 - 2t) at the proved width for its l1 norm 5
    det, n, bound = {0: 1, 1: -1, 2: -1, 3: -2}, 3, 5
    k = ((2 * n + 1) * bound).bit_length() + 1
    assert divide_by_strand_sum(packed(det, k), n, k, bound) == P({0: 1, 1: -2})
    assert divide_by_strand_sum(0, n, k, bound) == ZERO
    # 1 + t is not a multiple of 1 + t + t^2: the integer division leaves a remainder
    k = (7 * 2).bit_length() + 1
    with pytest.raises(InexactDivisionError, match="not exact"):
        divide_by_strand_sum(packed({0: 1, 1: 1}, k), 3, k, 2)
    # at K2 = 4 and bound 1, 2 * 17 and 5 * 17 are multiples of [2](16) = 17, but
    # only the quotient digit 2 is within 2 * bound; the digit 5 is rejected
    assert divide_by_strand_sum(2 * 17, 2, 4, 1) == P({0: 2})
    with pytest.raises(InexactDivisionError, match="not exact"):
        divide_by_strand_sum(5 * 17, 2, 4, 1)


def test_one_bit_digits_raise():
    # at k = 1 the balanced digits of a nonzero value never end, so the read
    # raises instead of growing its digit list without bound
    assert unpack(0, 1, 0) == ZERO
    with pytest.raises(ValueError, match="width"):
        unpack(1, 1, 0)


def _packed(coeffs, k):
    """sum(c 2^(k e)): coeffs packed at t = 2^k from t^0 up."""
    return sum(c << k * e for e, c in coeffs.items())


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=8), st.integers(min_value=-20, max_value=20), min_size=1
    ).filter(lambda q: any(q.values())),
    st.integers(min_value=1, max_value=10),
)
def test_divide_by_strand_sum_at_slack_one(q, n):
    # det = Q [n]_t packed at the width of its own l1 norm, no slack: the
    # division reads det's coefficients and returns Q
    quotient = LaurentPoly(q)
    det = dict((quotient * LaurentPoly({e: 1 for e in range(n)})).terms())
    bound = sum(map(abs, det.values()))
    k = bound.bit_length() + 1
    value = _packed(det, k)
    assert divide_by_strand_sum(value, n, k, bound) == quotient
    if n == 1:
        return
    # det plus or minus t^e is not a multiple of [n]_t, for any e
    for e in range(max(det) + 2):
        for step in (1, -1):
            with pytest.raises(InexactDivisionError):
                divide_by_strand_sum(value + (step << k * e), n, k, bound)


def _rows(m):
    """The entries of m as packed_determinant reads them."""
    return [[_dense(p) if p else None for p in row] for row in m.entries]


def _norms(rows):
    return [[sum(map(abs, e[1])) if e else 0 for e in row] for row in rows]


square_entries = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.lists(small_polys, min_size=m * m, max_size=m * m)
)


@settings(max_examples=80, deadline=None)
@given(square_entries)
def test_packed_determinant_bound_is_the_norm_permanent(entries):
    # below the cap the bound is perm(N) of the entry norms, by an
    # independent sum over permutations, and it bounds the l1 norm of the
    # Leibniz determinant
    m = round(len(entries) ** 0.5)
    matrix = PolyMatrix.from_rows([entries[i * m : (i + 1) * m] for i in range(m)])
    rows = _rows(matrix)
    d, k, bound, low = packed_determinant(rows)
    assert m <= laurent._PERMANENT_MAX
    assert bound == permanent(_norms(rows))
    exact = leibniz_determinant(matrix)
    assert sum(abs(c) for _, c in exact.terms()) <= bound < 1 << k - 1
    assert determinant(matrix) == exact


def _random_entry(rng):
    return rng.randint(-3, 3), [rng.randint(-9, 9) or 1 for _ in range(rng.randint(1, 3))]


def _no_table(a):
    raise AssertionError("a permanent was summed above the cap")


def test_packed_determinant_bound_above_the_cap(monkeypatch):
    # the cap is the measured 10 (see packed_determinant): at m = 10 an
    # all-ones norm matrix has perm = 10!, below the row and column products
    # 10^10; above it no permanent is summed, and the bound is the smaller
    # of those products, here of matrices with uneven rows and columns
    assert laurent._PERMANENT_MAX == 10
    ones = [[(0, [1])] * 10 for _ in range(10)]
    assert packed_determinant(ones)[2] == prod(range(1, 11))
    monkeypatch.setattr(laurent, "_permanent", _no_table)
    rng = random.Random(7)
    for m in range(11, 14):
        rows = [[_random_entry(rng) for _ in range(m)] for _ in range(m)]
        for i in range(m):
            rows[i][rng.randrange(m)] = None
        norms = _norms(rows)
        products = prod(map(sum, norms)), prod(map(sum, zip(*norms)))
        assert packed_determinant(rows)[2] == min(products)


def test_wide_determinant_builds_no_subset_table(monkeypatch):
    # a dense 30x30 matrix, every entry 1 + t: above the cap no permanent
    # is summed, so no table of column sets is ever built
    monkeypatch.setattr(laurent, "_permanent", _no_table)
    rows = [[(0, [1, 1])] * 30 for _ in range(30)]
    d, k, bound, low = packed_determinant(rows)
    assert (d, bound) == (0, 60**30)


def test_pow_and_evaluate():
    assert poly_pow(T(1) + ONE, 3) == P({0: 1, 1: 3, 2: 3, 3: 1})
    assert poly_pow(T(1) + ONE, 0) == ONE
    assert evaluate(P({-1: 1, 2: 3}), 2) == 12.5


def test_poly_text():
    assert poly_text(ZERO) == "0"
    assert poly_text(P({0: 1, 1: -1, 2: 1})) == "1 - t + t^2"
    assert poly_text(P({-1: 2, 3: -4})) == "2*t^-1 - 4*t^3"
    assert poly_text(P({-10: -1, -2: -1}), quarter_exponents=True) == "-t^(-5/2) - t^(-1/2)"
    assert poly_text(P({4: 1, 8: 2}), quarter_exponents=True) == "t + 2*t^2"


@settings(max_examples=150)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=8, max_size=8), st.lists(small_polys, min_size=8, max_size=8))
def test_determinant_multiplicative(xs, ys):
    a = PolyMatrix.from_rows([xs[0:2], xs[2:4]])
    b = PolyMatrix.from_rows([ys[0:2], ys[2:4]])
    assert determinant(matmul(a, b)) == determinant(a) * determinant(b)
    a3 = PolyMatrix.from_rows([xs[0:2] + [xs[4]], xs[2:4] + [xs[5]], [xs[6], xs[7], ys[4]]])
    b3 = PolyMatrix.from_rows([ys[0:2] + [ys[5]], ys[2:4] + [ys[6]], [ys[7], xs[6], xs[7]]])
    assert determinant(matmul(a3, b3)) == determinant(a3) * determinant(b3)


@settings(max_examples=120)
@given(small_polys, st.integers(min_value=-5, max_value=5), st.booleans())
def test_normalize_unit_insensitive(p, k, flip):
    if p.is_zero:
        return
    unit = LaurentPoly({k: -1 if flip else 1})
    assert (p * unit).unit_normalized() == p.unit_normalized()
    assert p.unit_normalized().unit_normalized() == p.unit_normalized()


@settings(max_examples=150)
@given(small_maps, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_dense_form_of_a_mapping(coeffs, pad_low, pad_high):
    # a value is its lowest exponent and the coefficients from there to its
    # highest term, both end coefficients nonzero; zero is (0, ())
    p = LaurentPoly(coeffs)
    nonzero = {e: c for e, c in coeffs.items() if c}
    if nonzero:
        assert p.coeffs[0] and p.coeffs[-1] and p.low == min(nonzero)
        assert len(p.coeffs) == max(nonzero) - min(nonzero) + 1
    else:
        assert (p.low, p.coeffs) == (0, ())
    # the digit list with zero ends added gives the same value and hash
    low = min(coeffs, default=0) - pad_low
    digits = [coeffs.get(e, 0) for e in range(low, max(coeffs, default=-1) + 1)] + [0] * pad_high
    q = LaurentPoly.from_digits(low, digits)
    assert q == p and hash(q) == hash(p)
    assert q.terms() == sorted(nonzero.items())
    # repr keeps the mapping form
    assert repr(p) == f"LaurentPoly({dict(sorted(nonzero.items()))!r})"


@settings(max_examples=100)
@given(small_polys, small_polys)
def test_equal_values_hash_equally_and_pickle(a, b):
    assert (a == b) == ((a.low, a.coeffs) == (b.low, b.coeffs))
    total = a + b
    again = b + a
    assert again == total and hash(again) == hash(total)
    loaded = pickle.loads(pickle.dumps(total))
    assert type(loaded) is LaurentPoly and loaded == total and hash(loaded) == hash(total)
