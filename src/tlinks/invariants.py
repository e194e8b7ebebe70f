"""Exact link invariants of braid closures.

Four engines feed one bundle per word:

* components, from the word's permutation;
* Euler characteristic of the Bennequin surface of a positive word, which is
  genus-minimizing, so chi = strands - letters is a link invariant;
* the one-variable Alexander polynomial through the reduced Burau
  representation: det(rho(w) - I) equals, up to a unit +-t^k, the Alexander
  polynomial times (1 + t + ... + t^{n-1});
* the Jones polynomial through the Kauffman bracket, with a crossing guard
  because the state sum is exponential in crossings.

Alexander values are unit-normalized so "equal up to units" is plain
equality.  Jones values live in quarter powers of t (exponent k encodes
t^(k/4)), which keeps links with half-integer powers exact.

Every word, positive or signed, takes the same exact path to Alexander: the
Burau product is formed by column updates on integers packed at t = 2^K,
unpacked, and the determinant of the product minus the identity is one integer
determinant at a second digit width.  Both widths come from proved bounds
on coefficient size (see reduced_burau and laurent.determinant), so the
recovery of coefficients is exact, never heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braid import BraidWord, torus_braid
from .garside import braid_index_by_full_twist
from .laurent import LaurentPoly, PolyMatrix, determinant, unpack

DEFAULT_JONES_GUARD = 24


@dataclass(frozen=True)
class InvariantBundle:
    """All computed invariants of one braid closure."""

    components: int
    letters: int
    euler_char: int | None
    braid_index: int | None
    alexander: LaurentPoly
    jones: LaurentPoly | None


# -- reduced Burau representation and Alexander polynomial ---------------------


def reduced_burau(w: BraidWord) -> PolyMatrix:
    """Product of the (n-1)x(n-1) generator matrices, letters left to right.

    Right multiplication by the matrix of sigma_i changes only column
    c = i - 1, to t*col[c-1] - t*col[c] + col[c+1], where a neighbour outside
    the matrix counts as zero.  The matrix of sigma_i^-1 has entries t^-1, so
    an inverse letter is applied as t*sigma_i^-1 instead: column c becomes
    t*col[c-1] - col[c] + col[c+1] and every other column is multiplied by t.
    The running product is then t^neg times the true one, neg the number of
    inverse letters so far, and all its entries are polynomials.  They are
    held as integers packed at t = 2^K (see laurent.unpack), on which
    multiplying by t is a shift by K bits.

    Digit width.  Alongside the product, norms[c][r] tracks a bound on the l1
    norm of entry (r, c), starting from the identity.  Each update adds three
    neighbours with monomial multipliers of coefficient +-1, so by the
    triangle inequality the new entry's norm is at most the sum of theirs;
    multiplying by t keeps a norm.  The recurrence is the same for both signs,
    so every coefficient of every final entry is at most the largest tracked
    norm B, and K = bit_length(B) + 1 unpacks each entry exactly.
    """
    if w.strands < 2:
        raise ValueError("the reduced Burau representation needs at least 2 strands")
    m = w.strands - 1
    zero = [0] * m
    norms = [[int(r == c) for r in range(m)] for c in range(m)]
    for letter in w.letters:
        c = abs(letter) - 1
        left = norms[c - 1] if c else zero
        right = norms[c + 1] if c + 1 < m else zero
        norms[c] = [a + b + d for a, b, d in zip(left, norms[c], right)]
    k = max(map(max, norms)).bit_length() + 1

    cols = [[int(r == c) for r in range(m)] for c in range(m)]
    neg = 0
    for letter in w.letters:
        c = abs(letter) - 1
        left = cols[c - 1] if c else zero
        right = cols[c + 1] if c + 1 < m else zero
        if letter > 0:
            cols[c] = [((a - b) << k) + d for a, b, d in zip(left, cols[c], right)]
        else:
            col = [(a << k) - b + d for a, b, d in zip(left, cols[c], right)]
            cols = [[x << k for x in other] for other in cols]
            cols[c] = col
            neg += 1
    return PolyMatrix.from_rows([unpack(col[r], k, -neg) for col in cols] for r in range(m))


def alexander(w: BraidWord) -> LaurentPoly:
    """Unit-normalized one-variable Alexander polynomial of the closure.

    Zero (the empty map) for split closures such as unlinks; otherwise the
    lowest exponent is 0 and the lowest coefficient positive.
    """
    n = w.strands
    if n == 1:
        return LaurentPoly.one()
    one = LaurentPoly.one()
    burau = reduced_burau(w).entries
    det = determinant(
        PolyMatrix.from_rows(
            [p - one if i == j else p for j, p in enumerate(row)] for i, row in enumerate(burau)
        )
    )
    if det.is_zero:
        return LaurentPoly.zero()
    strand_sum = LaurentPoly({e: 1 for e in range(n)})
    return det.divide_exact(strand_sum).unit_normalized()


# -- Kauffman bracket / Jones --------------------------------------------------

# The loop value -A^2 - A^-2; symmetric under A -> A^-1, so it is also the
# loop value in quarter powers of t at A = t^(-1/4).
_DELTA = LaurentPoly({2: -1, -2: -1})


def _closure_loops(matching: tuple[int, ...], n: int) -> int:
    loops = 0
    visited = [False] * (2 * n)
    for start in range(2 * n):
        if visited[start]:
            continue
        loops += 1
        x = start
        while not visited[x]:
            visited[x] = True
            y = matching[x]
            visited[y] = True
            x = y + n if y < n else y - n
    return loops


def jones(w: BraidWord, guard: int = DEFAULT_JONES_GUARD) -> LaurentPoly | None:
    """Jones polynomial of the closure, in quarter powers of t.

    Exponent k encodes t^(k/4); knots land on multiples of 4.  Absent (None)
    when the word has more crossings than the guard allows.

    V(t) is (-A)^(-3 writhe) times the Kauffman bracket at A = t^(-1/4), so
    the state sum runs in quarter powers of t directly: A^e is quarter
    exponent -e.  The vertical smoothing of a crossing of sign s contributes
    A^s, a shift by -s; the cup-cap smoothing A^-s, a shift by +s; and the
    normalization is (-1)^writhe times a shift by +3 writhe.

    The sum is evaluated by resolving crossings one at a time and bucketing
    partial states by their planar matching of the n top points and the n
    frontier points, so equal tangles share work; at most Catalan(n) buckets
    exist at any time and the result equals the plain 2^crossings
    enumeration exactly.
    """
    if len(w.letters) > guard:
        return None
    n = w.strands
    init = tuple(list(range(n, 2 * n)) + list(range(n)))
    states: dict[tuple[int, ...], LaurentPoly] = {init: LaurentPoly.one()}
    for letter in w.letters:
        i = abs(letter)
        x, y = n + i - 1, n + i
        sign = 1 if letter > 0 else -1
        acc: dict[tuple[int, ...], LaurentPoly] = {}
        for m, coeff in states.items():
            # vertical smoothing
            prior = acc.get(m)
            bumped = coeff.shifted(-sign)
            acc[m] = bumped if prior is None else prior + bumped
            # cup-cap smoothing
            a, b = m[x], m[y]
            c2 = coeff.shifted(sign)
            if a == y:
                m2 = m
                c2 = c2 * _DELTA
            else:
                lst = list(m)
                lst[a], lst[b] = b, a
                lst[x], lst[y] = y, x
                m2 = tuple(lst)
            prior = acc.get(m2)
            acc[m2] = c2 if prior is None else prior + c2
        states = {key: val for key, val in acc.items() if not val.is_zero}

    bracket = LaurentPoly.zero()
    for m, coeff in states.items():
        bracket = bracket + coeff * _DELTA ** (_closure_loops(m, n) - 1)

    writhe = w.letter_stats().exponent_sum
    normalized = bracket.shifted(3 * writhe)
    return normalized.scaled(-1) if writhe % 2 else normalized


# -- Euler characteristic and aggregation --------------------------------------


def euler_char(w: BraidWord) -> int:
    """chi of the Bennequin surface of a positive word: strands - letters."""
    if not w.is_positive:
        raise ValueError("Euler characteristic is defined here for positive words")
    return w.strands - len(w.letters)


def bundle(w: BraidWord, guard: int = DEFAULT_JONES_GUARD) -> InvariantBundle:
    """Run every engine applicable to the word."""
    positive = w.is_positive
    return InvariantBundle(
        components=w.component_count(),
        letters=len(w.letters),
        euler_char=euler_char(w) if positive else None,
        braid_index=braid_index_by_full_twist(w) if positive else None,
        alexander=alexander(w),
        jones=jones(w, guard),
    )


@lru_cache(maxsize=None)
def torus_reference(p: int, q: int, guard: int = DEFAULT_JONES_GUARD) -> InvariantBundle:
    """Invariant bundle of the torus link T(p, q), computed by self-application.

    Runs the engines on the standard braid (sigma_1...sigma_{q-1})^p on q
    strands (callers pass q <= p, so this is the cheaper presentation) rather
    than trusting closed-form tables; the Alexander closed form survives only
    as an independent cross-check in the test suite.

    This is the one cached engine.  Its keys are the (p, q, guard) candidates
    of a sweep grid, a small set (428 at p <= 9) that every row's
    certificate draws on again, so most calls hit (83% of the p <= 9 sweep).
    """
    if not 1 <= q <= p:
        raise ValueError("torus reference expects 1 <= q <= p")
    return bundle(torus_braid(p, q), guard)
