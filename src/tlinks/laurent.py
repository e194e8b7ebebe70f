"""Exact one-variable Laurent polynomials over the integers.

Coefficients are arbitrary-precision Python ints, and a value is stored
densely: its lowest exponent and the tuple of its coefficients from there up
to its highest term, both end coefficients nonzero, so polynomial equality
is exact and cheap.  It holds the Alexander and Jones values and the
entries of the Alexander matrix; the Burau product, the Alexander
determinant and the Kauffman state sum run on packed integers, which become
this type as they are unpacked.

A value's size is the span of its degree, not the count of its terms, and
the letters of its braid bound that span.  For c letters on n strands, an
Alexander value spans at most c - n + 1 powers of t, the first Betti number
of the Seifert surface of the closed braid, and a Jones value at most
c + n - 1 (Kauffman's bound c on each split piece, plus one per piece past
the first), so at most 4(c + n - 1) + 1 places in quarter exponents.  The
command line admits at most cli.MAX_LETTERS letters.  This is what a caller
that keeps results, such as cross_validate, holds per value.

This module also owns the packed form of a polynomial: its value at
t = 2^k, an integer from which the coefficients come back exactly as
balanced base-2^k digits when k exceeds their bit length, read by the one
reader unpack.  It provides the one determinant of a polynomial matrix,
determinant, which takes a square matrix of LaurentPoly, packs it at a
digit width picked from a bound on every coefficient of the determinant
(Hadamard's inequality on the unit circle, O(m^2) at every size m), takes
one integer determinant and unpacks it, so that the width never leaves it;
and the exact division of a polynomial by 1 + t + ... + t^(n-1), on its
coefficients.  The Alexander pipeline uses both.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt, prod
from operator import sub
from typing import Mapping, Sequence


class InexactDivisionError(ValueError):
    """A division that had to be exact left a remainder; the CLI reports an internal error."""


class LaurentPoly:
    """A Laurent polynomial sum(c_k * t^k) with integer coefficients.

    low is the lowest exponent and coeffs the coefficients of t^low,
    t^(low+1), ... up to the highest term, the first and last nonzero; the
    zero polynomial is (0, ()).  Immutable by convention: no method mutates
    an existing instance.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        terms = {e: c for e, c in (coeffs or {}).items() if c}
        self.low = low = min(terms, default=0)
        self.coeffs = tuple(terms.get(e, 0) for e in range(low, max(terms, default=-1) + 1))

    @classmethod
    def from_digits(cls, low: int, digits: Sequence[int]) -> "LaurentPoly":
        """sum(digits[i] * t^(low + i)), its zero digits at either end trimmed."""
        end = len(digits)
        while end and not digits[end - 1]:
            end -= 1
        start = 0
        while start < end and not digits[start]:
            start += 1
        p = object.__new__(cls)
        p.low, p.coeffs = (low + start, tuple(digits[start:end])) if end else (0, ())
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls.from_digits(0, ())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.from_digits(0, (1,))

    # -- inspection ---------------------------------------------------------

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs of the nonzero terms in ascending exponent order."""
        return [(e, c) for e, c in enumerate(self.coeffs, self.low) if c]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        low = min(self.low, other.low)
        out = [0] * (max(self.low + len(self.coeffs), other.low + len(other.coeffs)) - low)
        for p in (self, other):
            for i, c in enumerate(p.coeffs, p.low - low):
                out[i] += c
        return LaurentPoly.from_digits(low, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly.from_digits(self.low, [-c for c in self.coeffs])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.coeffs:
            return self
        if not other.coeffs:
            return other
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c1 in enumerate(self.coeffs):
            if c1:
                for j, c2 in enumerate(other.coeffs, i):
                    out[j] += c1 * c2
        return LaurentPoly.from_digits(self.low + other.low, out)

    def unit_normalized(self) -> "LaurentPoly":
        """Canonical representative modulo units +-t^k.

        Shifts the lowest exponent to 0, then flips the overall sign so the
        lowest-degree coefficient is positive.  Idempotent; rejects zero.
        """
        if not self.coeffs:
            raise ValueError("the zero polynomial has no unit normalization")
        coeffs = self.coeffs if self.coeffs[0] > 0 else [-c for c in self.coeffs]
        return LaurentPoly.from_digits(0, coeffs)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.low, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())!r})"


def poly_text(p: LaurentPoly, quarter_exponents: bool = False) -> str:
    """Render as "c_k*t^k + ..." with terms in ascending exponent order.

    With quarter_exponents=True the stored exponent k denotes t^(k/4); the
    fraction is reduced and printed as t^(k/4), t^(k/2) or an integer power.
    """
    if not p:
        return "0"
    pieces: list[str] = []
    for e, c in p.terms():
        if quarter_exponents:
            num, den = e, 4
            while num % 2 == 0 and den > 1:
                num //= 2
                den //= 2
            if den == 1:
                mon = _monomial(num)
            else:
                mon = f"t^({num}/{den})"
        else:
            mon = _monomial(e)
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


def _monomial(e: int) -> str | None:
    if e == 0:
        return None
    if e == 1:
        return "t"
    return f"t^{e}"


# -- packed integers -----------------------------------------------------------
#
# A polynomial sum(c_e * t^e) with e >= low is packed as the integer
# sum(c_e * 2^(k*(e - low))), its value at t = 2^k after a shift by t^-low.
# Evaluation at 2^k is a ring homomorphism Z[t] -> Z, so sums, products and
# determinants of packed entries are the packed sums, products and
# determinants, and multiplying a packed polynomial by t is a shift by k bits.

_ZERO = LaurentPoly.zero()


def unpack(value: int, k: int, low: int) -> LaurentPoly:
    """The polynomial whose packed form at t = 2^k, counted from t^low, is value.

    Its coefficients are the balanced base-2^k digits of value, lowest
    first, each in [-2^(k-1), 2^(k-1)).  These are the packed coefficients
    whenever every coefficient c has |c| < 2^(k-1): the lowest is then the
    one residue of value modulo 2^k in that range, and value minus it,
    divided by 2^k, packs the remaining terms.  A coefficient bound B meets
    this with k >= bit_length(B) + 1, since |c| <= B < 2^bit_length(B).

    Both end digits are nonzero, so the value is built untrimmed.  A digit
    is 0 exactly when 2^k divides what is left, so the zero digits at the
    bottom are floor(z / k) for the z trailing zero bits of value; one shift
    skips them, and the next digit is nonzero.  A zero digit leaves
    value >> k, which is nonzero when value is, so the last digit is nonzero
    too.  The loop ends for k >= 2, or for value 0, which gives the one
    shared zero: at k = 1 every nonzero value carries a 1 on for ever, so a
    width that narrow raises ValueError instead.
    """
    if not value:
        return _ZERO
    if k < 2:
        raise ValueError(f"balanced digits need a width of 2 bits or more, got {k}")
    skip = ((value & -value).bit_length() - 1) // k
    value >>= k * skip
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
    p = object.__new__(LaurentPoly)
    p.low, p.coeffs = low + skip, tuple(digits)
    return p


def divide_by_strand_sum(det: LaurentPoly, n: int, bound: int) -> LaurentPoly:
    """The exact quotient of det by [n]_t = 1 + t + ... + t^(n-1).

    bound is at least |c| for every coefficient c of det, as determinant
    returns it.  Raises InexactDivisionError unless det = Q [n]_t for a
    Laurent polynomial Q whose coefficients are at most 2 floor(L / n) bound,
    L = len(det.coeffs), and returns Q.

    Soundness.  With d_0, ..., d_D the coefficients of det from t^low up,
    the division is exact integer arithmetic on them.  In the power series
    ring, [n]_t (1 - t) = 1 - t^n, so t^-low det / [n]_t is the series
    Q = t^-low det (1 - t) / (1 - t^n), the one solution of

        Q_i = Q_(i-n) + d_i - d_(i-1)      (Q_i = 0 for i < 0, d_(-1) = 0),

    computed here for i = 0, ..., D + 1 (d_(D+1) = 0).  [n]_t divides det
    exactly when this series is a polynomial of degree at most D - n + 1,
    and that holds exactly when the n values Q_(D-n+2), ..., Q_(D+1) are 0:
    for i >= D + 2 the recurrence reads Q_i = Q_(i-n), so n consecutive
    zeros are followed only by zeros, and then Q [n]_t (1 - t) = t^-low det
    (1 - t) gives Q [n]_t = t^-low det, as Z[[t]] has no zero divisors; the
    quotient is t^low Q.

    Witness.  Unrolled, Q_i is the sum of d_(i-jn) - d_(i-jn-1) over
    0 <= j <= i / n, 2 (floor(i / n) + 1) terms of modulus at most bound.  A
    quotient coefficient has i <= D - n + 1, so floor(i / n) + 1 <=
    floor((D + 1) / n) = floor(L / n), and |Q_i| <= 2 floor(L / n) bound.  A
    larger one shows that det broke the precondition: some coefficient of it
    exceeds bound.
    """
    d = [*det.coeffs, 0]
    steps = list(map(sub, d, [0] + d[:-1]))  # d_i - d_(i-1)
    q = [0] * len(d)
    for r in range(n):  # Q_i for i = r mod n: a running sum of the steps
        q[r::n] = accumulate(steps[r::n])
    quotient = q[:-n]
    if any(q[-n:]) or max(map(abs, quotient), default=0) > 2 * (len(det.coeffs) // n) * bound:
        raise InexactDivisionError("polynomial division is not exact")
    return LaurentPoly.from_digits(det.low, quotient)


def _sign(order: list[int]) -> int:
    """The sign of a permutation, from its inversions."""
    return -1 if sum(a > b for i, a in enumerate(order) for b in order[i + 1 :]) % 2 else 1


def int_determinant(rows: list[list[int]]) -> int:
    """Fraction-free integer determinant (Bareiss); every division is exact.

    Pivot order.  Step k of Bareiss's elimination leaves in place of entry
    (i, j) the minor of the leading k + 1 rows and columns with row i and
    column j added, so most updates run while only the first rows have been
    taken in.  Rows are taken in ascending order of the total bit length of
    their entries, which keeps those minors short; the permutation changes
    the determinant by its sign only.  Sorting the columns as well no longer
    pays at the widths determinant picks: over the 3093 Alexander matrices
    of a p <= 11 sweep, rows and columns sorted took 0.309 s and rows only
    0.246 s, and over the about 1000 of the seed-0 and seed-1 words
    benchmarks 0.093 s and 0.094 s against 0.093 s and 0.096 s (best of
    five; Python 3.11, shared 2-core x86-64 host).

    The empty matrix has determinant 1: it is the Alexander matrix of a
    1-strand braid, whose reduced Burau representation has dimension 0.
    """
    n = len(rows)
    if n == 0:
        return 1
    order = sorted(range(n), key=lambda i: sum(map(int.bit_length, rows[i])))
    a = [list(rows[i]) for i in order]
    sign = _sign(order)
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
        prev = pivot
    return sign * a[n - 1][n - 1]


def determinant(rows: Sequence[Sequence[LaurentPoly]]) -> tuple[LaurentPoly, int]:
    """(det, bound): the determinant of a square LaurentPoly matrix, by one integer determinant.

    bound is at least |c| for every coefficient c of det.  Each row, then
    each column, is shifted by a power of t to lowest exponent 0, which
    divides the determinant by t^low, then packed at t = 2^k for
    int_determinant, whose result is unpacked at k and shifted back by
    t^low.  The width k is chosen here from bound and never leaves this
    function.

    Digit width (Hadamard's inequality on the unit circle).  With N_ij the
    l1 norm of entry (i, j), let R = prod_i sum_j N_ij^2 and
    C = prod_j sum_i N_ij^2; bound = isqrt(min(R, C)), O(m^2) at every size.
    On |z| = 1 every entry has |M_ij(z)| <= N_ij, so Hadamard's inequality
    |det M(z)| <= prod_i (sum_j |M_ij(z)|^2)^(1/2) gives |det M(z)| <= R^(1/2),
    and the same on the transpose gives C^(1/2).  A coefficient c of det is
    a Fourier coefficient of det(e^(i theta)), so |c| is at most the largest
    |det| on the circle, and an integer, so |c| <= isqrt(min(R, C)); by
    Parseval the sum of the squares of the coefficients is at most
    min(R, C) too.  The shifts multiply entries and det by powers of t, of
    modulus 1 on the circle, so they change none of this.  Every coefficient
    then has |c| <= bound < 2^(k-1) for k = bit_length(bound) + 1, which
    recovers it (unpack).  A bound of 0 (a zero row or column) gives
    det = 0, and the empty matrix (R = C = 1) gives det = 1.  C is the
    smaller product on some matrices, and it is 0 on a zero column, which
    has no lowest exponent to shift by.
    """
    squares = [[sum(map(abs, e.coeffs)) ** 2 if e.coeffs else 0 for e in row] for row in rows]
    bound = isqrt(min(prod(map(sum, squares)), prod(map(sum, zip(*squares)))))
    if not bound:
        return _ZERO, 0
    row_lows = [min(e.low for e in row if e.coeffs) for row in rows]
    col_lows = [
        min(row[j].low - low for row, low in zip(rows, row_lows) if row[j].coeffs)
        for j in range(len(rows))
    ]
    k = bound.bit_length() + 1
    packed = []
    for row, row_low in zip(rows, row_lows):
        out = []
        for entry, col_low in zip(row, col_lows):
            value = 0
            if entry.coeffs:
                for d in reversed(entry.coeffs):
                    value = (value << k) + d
                value <<= k * (entry.low - row_low - col_low)
            out.append(value)
        packed.append(out)
    return unpack(int_determinant(packed), k, sum(row_lows) + sum(col_lows)), bound
