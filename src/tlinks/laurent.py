"""Exact one-variable Laurent polynomials over the integers.

Coefficients are arbitrary-precision Python ints, and a value is stored
densely: its lowest exponent and the tuple of its coefficients from there up
to its highest term, both end coefficients nonzero, so polynomial equality
is exact and cheap.  It holds the Alexander and Jones values; the Burau
product, the Alexander determinant and the Kauffman state sum run on packed
integers, and their digit lists become this type as they are unpacked.

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
balanced base-2^k digits when k exceeds their bit length.  On packed
integers it provides the one determinant, packed_determinant, which picks
its digit width from a proved norm bound, and the exact division of a
packed polynomial by 1 + t + ... + t^(n-1), on its coefficients; the
Alexander pipeline uses both.
"""

from __future__ import annotations

from itertools import accumulate
from math import prod
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

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs of the nonzero terms in ascending exponent order."""
        return [(e, c) for e, c in enumerate(self.coeffs, self.low) if c]

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no minimal exponent")
        return self.low

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
        if self.is_zero:
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
        return not self.is_zero

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())!r})"


def poly_text(p: LaurentPoly, quarter_exponents: bool = False) -> str:
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


def balanced_digits(value: int, k: int) -> list[int]:
    """The balanced base-2^k digits of value, lowest first.

    Each digit lies in [-2^(k-1), 2^(k-1)), and the digits of a packed
    polynomial are its coefficients whenever every coefficient c has
    |c| < 2^(k-1): the lowest coefficient is then the one residue of value
    modulo 2^k in that range, and value minus it, divided by 2^k, packs the
    remaining terms.  A coefficient bound B meets this with
    k >= bit_length(B) + 1, since |c| <= B < 2^bit_length(B).  The loop ends
    for k >= 2, or for value 0: at k = 1 every nonzero value carries a 1 on
    for ever, so a width that narrow raises ValueError instead.
    """
    if k < 2 and value:
        raise ValueError(f"balanced digits need a width of 2 bits or more, got {k}")
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
    return LaurentPoly.from_digits(low, balanced_digits(value, k))


def divide_by_strand_sum(value: int, n: int, k: int, bound: int) -> LaurentPoly:
    """The exact quotient by [n]_t = 1 + t + ... + t^(n-1) of a polynomial packed at t = 2^k.

    value packs, at t = 2^k from t^0 up, a polynomial det of l1 norm at most
    bound, and k >= bit_length(bound) + 1, the width packed_determinant
    picks.  Raises InexactDivisionError unless det = Q [n]_t for a
    polynomial Q whose coefficients are at most 2 bound, and returns Q.

    Soundness, with no slack in k.  Every coefficient of det is at most
    ||det||_1 <= bound < 2^(k-1), so balanced_digits returns exactly the
    coefficients d_0, ..., d_D of det.  The rest is exact integer
    arithmetic on them, with no width to meet.  In the power series ring,
    [n]_t (1 - t) = 1 - t^n, so det / [n]_t is the series
    Q = det (1 - t) / (1 - t^n), the one solution of

        Q_i = Q_(i-n) + d_i - d_(i-1)      (Q_i = 0 for i < 0, d_(-1) = 0),

    computed here for i = 0, ..., D + 1 (d_(D+1) = 0).  [n]_t divides det
    exactly when this series is a polynomial of degree at most D - n + 1,
    and that holds exactly when the n values Q_(D-n+2), ..., Q_(D+1) are 0:
    for i >= D + 2 the recurrence reads Q_i = Q_(i-n), so n consecutive
    zeros are followed only by zeros, and then Q [n]_t (1 - t) = det (1 - t)
    gives Q [n]_t = det, as Z[[t]] has no zero divisors.  If det = Q [n]_t,
    then Q_i is the sum of d_(i-jn) - d_(i-jn-1) over j >= 0, a sum over
    distinct coefficients, so |Q_i| <= 2 ||det||_1 <= 2 bound; a larger
    coefficient shows that value broke the precondition.
    """
    d = balanced_digits(value, k) + [0]
    steps = list(map(sub, d, [0] + d[:-1]))  # d_i - d_(i-1)
    q = [0] * len(d)
    for r in range(n):  # Q_i for i = r mod n: a running sum of the steps
        q[r::n] = accumulate(steps[r::n])
    quotient = q[:-n]
    if any(q[-n:]) or max(map(abs, quotient), default=0) > 2 * bound:
        raise InexactDivisionError("polynomial division is not exact")
    return LaurentPoly.from_digits(0, quotient)


def _sign(order: list[int]) -> int:
    """The sign of a permutation, from its inversions."""
    return -1 if sum(a > b for i, a in enumerate(order) for b in order[i + 1 :]) % 2 else 1


def int_determinant(rows: list[list[int]]) -> int:
    """Fraction-free integer determinant (Bareiss); every division is exact.

    Pivot order.  Step k of Bareiss's elimination leaves in place of entry
    (i, j) the minor of the leading k + 1 rows and columns with row i and
    column j added, so most updates run while only the first rows and
    columns have been taken in.  Rows, and then columns, are taken in
    ascending order of the total bit length of their entries, which keeps
    those minors short; the permutations change the determinant by their
    signs only.  Over the 181 seven-row Alexander matrices of the seed-0
    words benchmark, this took the elimination from 73.5 ms to 53.2 ms (best
    of five; Python 3.11, shared 2-core x86-64 host).
    """
    n = len(rows)
    if n == 0:
        return 1
    row_order = sorted(range(n), key=lambda i: sum(map(int.bit_length, rows[i])))
    col_bits = [sum(map(int.bit_length, col)) for col in zip(*rows)]
    col_order = sorted(range(n), key=col_bits.__getitem__)
    a = [[rows[i][j] for j in col_order] for i in row_order]
    sign = _sign(row_order) * _sign(col_order)
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


def _permanent(a: list[list[int]]) -> int:
    """perm(a) of a square matrix, by a sum over the column sets that the first rows fill.

    After r rows, sums[S] is the sum, over the ways to put those rows in
    distinct columns of S, |S| = r, of the products of their entries; the
    next row extends each way by each column not in S where its entry is
    nonzero.  The permanent does not depend on the order of the rows, so
    they go sparsest first, which keeps the sets that sparse rows can fill
    few.  After the last row the one set left is every column, and its sum
    is perm(a); a row keeps at most C(m, m/2) sets, and all rows make at
    most m 2^(m-1) products.
    """
    sums = {0: 1}
    for entries in sorted(([(1 << j, x) for j, x in enumerate(row) if x] for row in a), key=len):
        grown: dict[int, int] = {}
        get = grown.get
        for cols, v in sums.items():
            for bit, x in entries:
                if not cols & bit:
                    key = cols | bit
                    grown[key] = get(key, 0) + v * x
        sums = grown
    return sum(sums.values())


# Largest matrix whose norm permanent packed_determinant sums (see there)
_PERMANENT_MAX = 10


def packed_determinant(rows: list[list[tuple[int, list[int]] | None]]) -> tuple[int, int, int, int]:
    """One integer determinant of a polynomial matrix, packed at t = 2^k.

    Entry (i, j) is (lowest exponent, coefficients from it up) or None for 0.
    Returns (D, k, bound, low): the determinant is t^low times the polynomial
    that D packs at t = 2^k from t^0 up, its l1 norm is at most bound, and
    bound < 2^(k-1), so unpack(D, k, low) is the determinant.  Each row,
    then each column, is shifted by a power of t to lowest exponent 0, which
    divides the determinant by t^low, before it is packed for
    int_determinant.

    Digit width.  With N_ij the l1 norm of entry (i, j), which the shifts
    keep, the Leibniz expansion and the subadditive, submultiplicative l1
    norm give ||det||_1 <= perm(N) <= prod_i sum_j N_ij: expanding the
    product of the row sums yields every term of perm(N) and more
    nonnegative ones.  On the transpose the same holds for the column sums.
    bound is perm(N) itself (_permanent) for a matrix of m <= _PERMANENT_MAX
    rows, and the smaller of the two products above that.  So every
    coefficient c of the determinant has |c| <= bound < 2^(k-1) for
    k = bit_length(bound) + 1, which recovers it (balanced_digits).  A bound
    of 0 (a zero row or column, or no permutation of nonzero entries) gives
    D = 0.

    The cap.  _permanent makes up to m 2^(m-1) products and keeps up to
    C(m, m/2) sums, so on a dense matrix its time doubles with each row
    whatever the entries, while the Bareiss steps it narrows grow with m and
    with the entries.  On 40 random words of 40-120 letters on m + 1
    strands for each m (Python 3.11, shared 2-core x86-64 host), the
    permanent took 0.14 ms at m = 7 and saved 0.22 ms of Bareiss (K 48.0 ->
    39.9 bits); 0.91 ms against 1.20 ms at m = 10, 1.72 ms against 1.63 ms
    at m = 11, and 2.10 ms against 2.03 ms at m = 12.  So it stops paying at
    m = 11, and the cap is 10; above it no permanent is summed, so time and
    memory stay bounded up to the strand limit.
    """
    norms = [[sum(map(abs, e[1])) if e else 0 for e in row] for row in rows]
    if len(rows) <= _PERMANENT_MAX:
        bound = _permanent(norms)
    else:
        bound = min(prod(map(sum, norms)), prod(map(sum, zip(*norms))))
    if not bound:
        return 0, 1, 0, 0
    row_lows = [min(e[0] for e in row if e) for row in rows]
    col_lows = [
        min(row[j][0] - low for row, low in zip(rows, row_lows) if row[j])
        for j in range(len(rows))
    ]
    k = bound.bit_length() + 1
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
