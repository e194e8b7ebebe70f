import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    PolyMatrix,
    determinant,
    divide_exact,
    evaluate,
    identity_matrix,
    leibniz_determinant,
    matmul,
    poly_pow,
    t_power,
)
from tlinks.laurent import InexactDivisionError, LaurentPoly, divide_by_strand_sum, poly_text

T = t_power
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def P(coeffs):
    return LaurentPoly(coeffs)


small_polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-6, max_value=6),
    max_size=5,
).map(LaurentPoly)


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
