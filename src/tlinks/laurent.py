"""Exact one-variable Laurent polynomials over the integers.

Coefficients are arbitrary-precision Python ints and the representation is a
sparse map from exponent to nonzero coefficient, so polynomial equality is
exact and cheap.  It holds Burau matrix entries and the Alexander and Jones
values; the Kauffman state sum itself runs on packed integers and meets this
type only when its result is unpacked.

This module also owns the packed form of a polynomial: its value at
t = 2^k, an integer from which the coefficients come back exactly as
balanced base-2^k digits when k exceeds their bit length.  Determinants of
polynomial matrices are computed in that form, as one fraction-free integer
determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Mapping


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

    @property
    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self._coeffs)

    def evaluate(self, x: int) -> Fraction:
        """Exact value at an integer point (Fraction because of t^-k terms)."""
        if x == 0:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += Fraction(c) * (Fraction(x) ** e)
        return total

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

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def scaled(self, factor: int) -> "LaurentPoly":
        return LaurentPoly({e: c * factor for e, c in self._coeffs.items()})

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; raises InexactDivisionError if not divisible.

        Schoolbook division from the top on dense coefficient lists, both
        operands shifted to lowest exponent 0.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        lo, dlo = self.min_exp, divisor.min_exp
        rem = [self._coeffs.get(e, 0) for e in range(lo, self.max_exp + 1)]
        den = [divisor._coeffs.get(e, 0) for e in range(dlo, divisor.max_exp + 1)]
        top = len(den) - 1
        quot = [0] * (len(rem) - top)
        for pos in range(len(quot) - 1, -1, -1):
            q, r = divmod(rem[pos + top], den[top])
            if r:
                raise InexactDivisionError("polynomial division is not exact")
            if q:
                quot[pos] = q
                for j, d in enumerate(den):
                    rem[pos + j] -= q * d
        if any(rem[:top]):
            raise InexactDivisionError("polynomial division is not exact")
        return LaurentPoly({e + lo - dlo: c for e, c in enumerate(quot)})

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


@dataclass(frozen=True)
class PolyMatrix:
    """A square matrix over LaurentPoly."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[LaurentPoly]]) -> "PolyMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.entries)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        n = self.size
        if other.size != n:
            raise ValueError("size mismatch")
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = LaurentPoly.zero()
                for k in range(n):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a.is_zero and not b.is_zero:
                        acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return PolyMatrix(tuple(rows))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        n = self.size
        if other.size != n:
            raise ValueError("size mismatch")
        return PolyMatrix(
            tuple(
                tuple(self.entries[i][j] - other.entries[i][j] for j in range(n))
                for i in range(n)
            )
        )


# -- packed integers -----------------------------------------------------------
#
# A polynomial sum(c_e * t^e) with e >= low is packed as the integer
# sum(c_e * 2^(k*(e - low))), its value at t = 2^k after a shift by t^-low.
# Evaluation at 2^k is a ring homomorphism Z[t] -> Z, so sums, products and
# determinants of packed entries are the packed sums, products and
# determinants, and multiplying a packed polynomial by t is a shift by k bits.


def unpack(value: int, k: int, low: int) -> LaurentPoly:
    """The polynomial whose packed form at t = 2^k, counted from t^low, is value.

    Its coefficients are the balanced base-2^k digits of value, each in
    [-2^(k-1), 2^(k-1)).  Recovery is exact whenever every coefficient c of
    the packed polynomial has |c| < 2^(k-1): the lowest coefficient is then
    the one residue of value modulo 2^k in that range, and value minus it,
    divided by 2^k, packs the remaining terms.  A coefficient bound B meets
    this with k >= bit_length(B) + 1, since |c| <= B < 2^bit_length(B).
    The loop ends for k >= 2, or for value 0.
    """
    base = 1 << k
    half = base >> 1
    coeffs: dict[int, int] = {}
    exp = low
    while value:
        d = value & (base - 1)
        if d >= half:
            d -= base
        if d:
            coeffs[exp] = d
        value = (value - d) >> k
        exp += 1
    return LaurentPoly(coeffs)


def _int_determinant(rows: list[list[int]]) -> int:
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


def determinant(m: PolyMatrix) -> LaurentPoly:
    """Exact determinant, as one integer determinant at t = 2^k.

    Row i is multiplied by t^-low_i, low_i its lowest exponent, so that every
    entry is a polynomial; the determinant is t^(sum low_i) times that of the
    shifted matrix, which is packed at t = 2^k, reduced by integer Bareiss
    and unpacked.

    Digit width.  Let N_ij be the l1 norm (sum of absolute coefficients) of
    entry (i, j); shifting a row leaves it unchanged.  The l1 norm is
    subadditive and submultiplicative, so the Leibniz expansion
    det = sum_s sgn(s) prod_i a_{i,s(i)} gives, for every coefficient c of
    the determinant, |c| <= ||det||_1 <= perm(N) <= prod_i sum_j N_ij = B;
    the last step holds because expanding the product of the row sums yields
    every permutation term of perm(N) plus further nonnegative terms.  Hence
    k = bit_length(B) + 1 recovers the coefficients exactly (see unpack).  A
    zero row gives B = 0 and a zero integer determinant.
    """
    lows = [min((e for p in row for e in p._coeffs), default=0) for row in m.entries]
    bound = prod(sum(abs(c) for p in row for c in p._coeffs.values()) for row in m.entries)
    k = bound.bit_length() + 1
    packed = [
        [sum(c << k * (e - low) for e, c in p._coeffs.items()) for p in row]
        for row, low in zip(m.entries, lows)
    ]
    return unpack(_int_determinant(packed), k, sum(lows))
