"""Exact one-variable Laurent polynomials over the integers.

Coefficients are arbitrary-precision Python ints and the representation is a
sparse map from exponent to nonzero coefficient, so polynomial equality is
exact and cheap.  It holds the Alexander and Jones values; the Burau
product, the Alexander determinant and the Kauffman state sum run on packed
integers and meet this type only when their result is unpacked.

This module also owns the packed form of a polynomial: its value at
t = 2^k, an integer from which the coefficients come back exactly as
balanced base-2^k digits when k exceeds their bit length.  On packed
integers it provides the one determinant, packed_determinant, which picks
its digit width from a proved norm bound, and exact division by
1 + t + ... + t^(n-1) as one integer division; the Alexander pipeline uses
both.
"""

from __future__ import annotations

from math import prod
from typing import Mapping


class InexactDivisionError(ValueError):
    """A division that had to be exact left a remainder; the CLI reports an internal error."""


class LaurentPoly:
    """A Laurent polynomial sum(c_k * t^k) with integer coefficients.

    Immutable by convention: no method mutates an existing instance.
    The zero polynomial is the empty map.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def t(cls, exp: int = 1) -> "LaurentPoly":
        return cls({exp: 1})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self._coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly(out)

    def unit_normalized(self) -> "LaurentPoly":
        """Canonical representative modulo units +-t^k.

        Shifts the lowest exponent to 0, then flips the overall sign so the
        lowest-degree coefficient is positive.  Idempotent; rejects zero.
        """
        if self.is_zero:
            raise ValueError("the zero polynomial has no unit normalization")
        m = self.min_exp
        sign = 1 if self._coeffs[m] > 0 else -1
        return LaurentPoly({e - m: sign * c for e, c in self._coeffs.items()})

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))!r})"


def poly_text(p: LaurentPoly, var: str = "t", quarter_exponents: bool = False) -> str:
    """Render as "c_k*t^k + ..." with terms in ascending exponent order.

    With quarter_exponents=True the stored exponent k denotes t^(k/4); the
    fraction is reduced and printed as t^(k/4), t^(k/2) or an integer power.
    """
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for e, c in p.terms():
        if quarter_exponents:
            num, den = e, 4
            while num % 2 == 0 and den > 1:
                num //= 2
                den //= 2
            if den == 1:
                mon = _monomial(var, num)
            else:
                mon = f"{var}^({num}/{den})"
        else:
            mon = _monomial(var, e)
        if mon is None:
            term = str(abs(c))
        elif abs(c) == 1:
            term = mon
        else:
            term = f"{abs(c)}*{mon}"
        if not pieces:
            pieces.append(term if c > 0 else "-" + term)
        else:
            pieces.append(("+ " if c > 0 else "- ") + term)
    return " ".join(pieces)


def _monomial(var: str, e: int) -> str | None:
    if e == 0:
        return None
    if e == 1:
        return var
    return f"{var}^{e}"


# -- packed integers -----------------------------------------------------------
#
# A polynomial sum(c_e * t^e) with e >= low is packed as the integer
# sum(c_e * 2^(k*(e - low))), its value at t = 2^k after a shift by t^-low.
# Evaluation at 2^k is a ring homomorphism Z[t] -> Z, so sums, products and
# determinants of packed entries are the packed sums, products and
# determinants, and multiplying a packed polynomial by t is a shift by k bits.


def balanced_digits(value: int, k: int) -> list[int]:
    """The balanced base-2^k digits of value, lowest first.

    Each digit lies in [-2^(k-1), 2^(k-1)), and the digits of a packed
    polynomial are its coefficients whenever every coefficient c has
    |c| < 2^(k-1): the lowest coefficient is then the one residue of value
    modulo 2^k in that range, and value minus it, divided by 2^k, packs the
    remaining terms.  A coefficient bound B meets this with
    k >= bit_length(B) + 1, since |c| <= B < 2^bit_length(B).  The loop ends
    for k >= 2, or for value 0.
    """
    base = 1 << k
    mask, half = base - 1, base >> 1
    digits = []
    while value:
        d = value & mask
        value >>= k
        if d >= half:
            d -= base
            value += 1
        digits.append(d)
    return digits


def unpack(value: int, k: int, low: int) -> LaurentPoly:
    """The polynomial whose packed form at t = 2^k, counted from t^low, is value.

    Its coefficients are the balanced digits of value (see balanced_digits).
    """
    return LaurentPoly(dict(enumerate(balanced_digits(value, k), low)))


def divide_by_strand_sum(value: int, n: int, k: int, bound: int) -> LaurentPoly:
    """The exact quotient by [n]_t = 1 + t + ... + t^(n-1), in packed form.

    value packs, at t = 2^k from t^0 up, a polynomial det of l1 norm at most
    bound, and k >= bit_length((2n+1) bound) + 1.  One integer division
    q, rem = divmod(value, [n](2^k)) replaces the polynomial one, and q is
    unpacked once.  Raises InexactDivisionError when rem is nonzero or a
    digit of q exceeds 2 bound, and otherwise returns Q with det = Q [n]_t.

    Soundness.  If det = Q [n]_t, then det (1 - t) = Q (1 - t^n), so
    Q_i - Q_(i-n) = det_i - det_(i-1) and Q_i is the sum of
    det_(i-jn) - det_(i-jn-1) over j >= 0, a sum over distinct coefficients;
    hence |Q_i| <= 2 ||det||_1 <= 2 bound < 2^(k-1), q packs Q exactly, and
    both checks pass.  Conversely, if both pass and Q is the unpacked q, then
    E = Q [n]_t - det has |E_i| <= n 2 bound + bound = (2n+1) bound < 2^k,
    and E(2^k) = q [n](2^k) - value = 0.  So E is an integer multiple of
    t - 2^k, and a nonzero multiple has a coefficient of size at least 2^k
    (its lowest one is 2^k times the lowest of the cofactor): E = 0 and the
    division was exact.
    """
    q, rem = divmod(value, ((1 << k * n) - 1) // ((1 << k) - 1))
    quotient = unpack(q, k, 0)
    if rem or any(abs(c) > 2 * bound for c in quotient._coeffs.values()):
        raise InexactDivisionError("polynomial division is not exact")
    return quotient


def int_determinant(rows: list[list[int]]) -> int:
    """Fraction-free integer determinant (Bareiss); every division is exact."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def digits_of(value: int, k: int) -> tuple[int, list[int]] | None:
    """(lowest exponent, balanced digits from it up) of a polynomial packed at t = 2^k.

    value packs it from t^0 up, every |coefficient| < 2^(k-1), so its lowest
    term c_e 2^(k e) has fewer than k trailing zero bits beyond k e, which
    gives e.  None stands for 0.
    """
    if not value:
        return None
    low = ((value & -value).bit_length() - 1) // k
    return low, balanced_digits(value >> k * low, k)


def packed_determinant(
    rows: list[list[tuple[int, list[int]] | None]], slack: int
) -> tuple[int, int, int, int]:
    """One integer determinant of a polynomial matrix, packed at t = 2^k.

    Entry (i, j) is (lowest exponent, coefficients from it up) or None for 0.
    Returns (D, k, bound, low): the determinant is t^low times the polynomial
    that D packs at t = 2^k from t^0 up, its l1 norm is at most bound, and
    slack bound < 2^(k-1).  With slack = 1, unpack(D, k, low) is the
    determinant; divide_by_strand_sum needs slack = 2n + 1.  Each row, then
    each column, is shifted by a power of t to lowest exponent 0, which
    divides the determinant by t^low, before it is packed for int_determinant.

    Digit width.  With N_ij the l1 norm of entry (i, j), which the shifts
    keep, the Leibniz expansion and the subadditive, submultiplicative l1
    norm give ||det||_1 <= perm(N) <= prod_i sum_j N_ij: expanding the
    product of the row sums yields every term of perm(N) and more
    nonnegative ones.  On the transpose the same holds for the column sums,
    and bound is the smaller product.  So every coefficient c of the
    determinant has |c| <= slack bound < 2^(k-1) for k = bit_length(slack
    bound) + 1, which recovers it (balanced_digits).  A zero row or column
    gives bound = 0 and D = 0.
    """
    norms = [[sum(map(abs, e[1])) if e else 0 for e in row] for row in rows]
    bound = min(prod(map(sum, norms)), prod(map(sum, zip(*norms))))
    if not bound:
        return 0, 1, 0, 0
    row_lows = [min(e[0] for e in row if e) for row in rows]
    col_lows = [
        min(row[j][0] - low for row, low in zip(rows, row_lows) if row[j])
        for j in range(len(rows))
    ]
    k = (slack * bound).bit_length() + 1
    packed = []
    for row, row_low in zip(rows, row_lows):
        out = []
        for entry, col_low in zip(row, col_lows):
            value = 0
            if entry:
                low, digits = entry
                for d in reversed(digits):
                    value = (value << k) + d
                value <<= k * (low - row_low - col_low)
            out.append(value)
        packed.append(out)
    return int_determinant(packed), k, bound, sum(row_lows) + sum(col_lows)
