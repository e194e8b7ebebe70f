"""Exact link invariants of braid closures.

Four engines feed one bundle per word:

* components, from the word's permutation;
* Euler characteristic of the Bennequin surface of a positive word, which is
  genus-minimizing, so chi = strands - letters is a link invariant;
* the one-variable Alexander polynomial through the reduced Burau
  representation: det(rho(w) - I) equals, up to a unit +-t^k, the Alexander
  polynomial times (1 + t + ... + t^{n-1});
* the Jones polynomial through the Kauffman bracket, one integer packed at
  t^(1/2) = 2^K per planar-matching bucket, under a crossing guard.

Torus references (torus_reference), the one cache, compute each invariant
on its first read, so a candidate settled by the braid index never builds
an Alexander or Jones polynomial.

Alexander values are unit-normalized so "equal up to units" is plain
equality.  Jones values live in quarter powers of t (exponent k encodes
t^(k/4)), which keeps links with half-integer powers exact.

Every word, positive or signed, takes the same exact path to Alexander, on
packed integers from the first letter to the quotient: literal full twists
are split off and become one shift by a power of t, since rho(Delta^2) =
t^n I; the Burau columns of the other letters are updated as integers
packed at t = 2^K1, K1 set by one norm bound per column; one digit pass
reads their coefficients and lowest exponents; laurent.packed_determinant
repacks the product minus the identity for one integer determinant; and the
division by 1 + t + ... + t^(n-1) is one integer division whose quotient is
unpacked once.  These widths and the Jones one come from proved bounds on
coefficient size (see _burau_columns, laurent.packed_determinant,
laurent.divide_by_strand_sum and jones), so the recovery of coefficients is
exact, never heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .braid import BraidWord, split_full_twists, torus_braid
from .garside import braid_index_by_full_twist
from .laurent import (
    LaurentPoly,
    digits_of,
    divide_by_strand_sum,
    packed_determinant,
    unpack,
)

# Cost model of jones: about letters x min(Catalan(strands), 2^letters) bucket
# updates, each a shift and an add on an integer of at most 2 x letters digits
# of K = letters + strands + 1 bits.  Words above the guard are not summed.
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


def _burau_columns(w: BraidWord) -> tuple[list[list[int]], int, int]:
    """Columns of t^neg times the reduced Burau matrix, packed at t = 2^K1.

    Returns (cols, K1, neg), neg the number of inverse letters: cols[c][r]
    packs entry (r, c) of t^neg rho(w), a polynomial (see laurent.unpack).
    Right multiplication by the matrix of sigma_i changes only column
    c = i - 1, to t*col[c-1] - t*col[c] + col[c+1], where a neighbour outside
    the matrix counts as zero.  The matrix of sigma_i^-1 has entries t^-1, so
    an inverse letter is applied as t*sigma_i^-1 instead: column c becomes
    t*col[c-1] - col[c] + col[c+1] and every other column is multiplied by t,
    a shift by K1 bits.

    Full twists.  The updates run only on the letters left once the j literal
    full twists are split off (braid.split_full_twists), w = Delta^(2j) rest.
    rho(Delta^2) = t^n I.  Delta^2 is central and at generic t the reduced
    Burau representation is irreducible over an algebraically closed field
    (over C whenever t is not a root of [n]_t; Formanek 1996), so by Schur's
    lemma rho(Delta^2) is a scalar c.  det rho(sigma_i) = -t and Delta^2 has
    n(n-1) letters, so c^(n-1) = t^(n(n-1)) and c = +-t^n; at t = 1, rho
    factors through the symmetric group, where Delta^2 is the identity, so
    c = t^n.  Hence rho(w) = t^(nj) rho(rest): the columns are shifted by
    n j K1 bits at the end, and neg, the inverse letters of rest, counts all
    of w's.

    Burau width K1.  One integer M_c per column, from 1 (the identity),
    bounds the l1 norm of every entry of column c: an update adds three
    neighbours times monomials of coefficient +-1, so the new M_c is at most
    M_(c-1) + M_c + M_(c+1), and a shift by t keeps a bound.  With B = max M_c
    over the letters of rest, every coefficient of t^neg rho(rest) minus the
    identity is at most B + 1 < 2^(K1-1) for K1 = bit_length(B + 1) + 1
    (laurent.balanced_digits).  The factor t^(nj) is a monomial, so it keeps
    every l1 norm and the same bound holds for t^neg rho(w) minus the identity.
    """
    m = w.strands - 1
    twists, letters = split_full_twists(w)
    # a zero column on each side, so that column c = i - 1 sits at index i
    norms = [0] + [1] * m + [0]
    for i in map(abs, letters):
        norms[i] += norms[i - 1] + norms[i + 1]
    k = (max(norms) + 1).bit_length() + 1

    zero = [0] * m
    cols = [zero] + [[int(r == c) for r in range(m)] for c in range(m)] + [zero]
    neg = 0
    for letter in letters:
        if letter > 0:
            left, col, right = cols[letter - 1], cols[letter], cols[letter + 1]
            cols[letter] = [((a - b) << k) + d for a, b, d in zip(left, col, right)]
        else:
            i = -letter
            left, col, right = cols[i - 1], cols[i], cols[i + 1]
            cols = [[x << k for x in other] for other in cols]
            cols[i] = [(a << k) - b + d for a, b, d in zip(left, col, right)]
            neg += 1
    cols = cols[1:-1]
    if twists:
        shift = (m + 1) * twists * k
        cols = [[x << shift for x in col] for col in cols]
    return cols, k, neg


def alexander(w: BraidWord) -> LaurentPoly:
    """Unit-normalized one-variable Alexander polynomial of the closure.

    Zero (the empty map) for split closures such as unlinks; otherwise the
    lowest exponent is 0 and the lowest coefficient positive.

    One packed pipeline; no polynomial is built before the quotient.  The
    Burau columns of t^neg rho(w) come packed at t = 2^K1 (_burau_columns),
    and t^neg, packed as 1 << K1 neg, is subtracted from each diagonal entry.
    One digit pass (laurent.digits_of) reads every entry.  The columns, the
    rows of the transpose, which has the same determinant, go to
    laurent.packed_determinant with the slack 2n + 1 that
    laurent.divide_by_strand_sum needs to divide by [n]_t = 1 + t + ... +
    t^(n-1) in packed form, unpack the quotient once and raise
    InexactDivisionError unless the division is exact.  The determinant's
    shift by a power of t is a unit and drops out in the normalization.
    """
    n = w.strands
    if n == 1:
        return LaurentPoly.one()
    cols, k, neg = _burau_columns(w)
    one = 1 << k * neg
    for c, col in enumerate(cols):
        col[c] -= one
    digit_cols = [[digits_of(v, k) for v in col] for col in cols]
    det, k2, bound, _ = packed_determinant(digit_cols, 2 * n + 1)
    if not det:
        return LaurentPoly.zero()
    return divide_by_strand_sum(det, n, k2, bound).unit_normalized()


# -- Kauffman bracket / Jones --------------------------------------------------


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

    V(t) is (-A)^(-3 writhe) times the Kauffman bracket at A = t^(-1/4),
    summed crossing by crossing over buckets keyed by the planar matching of
    the n top and n frontier points: at most Catalan(n) of them, and exactly
    the 2^crossings enumeration.  A crossing of sign s smooths vertically to
    t^(-s/4) and cup-cap to t^(s/4); if the cup-cap closes a loop, its loop
    value -(t^(1/2) + t^(-1/2)) merges with the vertical term into -t^(3s/4).
    Times t^((2-s)/4) these are u^(1-s), u and -u^(1+s) in u = t^(1/2), so
    each bucket is an integer packed at u = 2^K (see laurent.unpack) and each
    smoothing a shift by 0, K or 2K bits.  A bucket closing to L loops gets
    the loop value to the L-1, padded by u^(n-1) to (-1)^(L-1) (1 + u^2)^(L-1)
    u^(n-L).  The sum is unpacked once; u^e becomes quarter exponent 2e, less
    the padding 2(n-1) and the offsets 2c - writhe of the c crossings, plus
    the normalization 3 writhe.

    Digit width.  A crossing turns a bucket of l1 norm N into terms of norm N
    in two buckets, or in one at a kink, and sums are subadditive, so all
    buckets together have norm at most 2^c; the closure factors have norm
    2^(L-1) <= 2^(n-1).  Every coefficient of the sum is at most
    B = 2^(c+n-1), and K = bit_length(B) + 1 = c + n + 1 unpacks it exactly.
    """
    if len(w.letters) > guard:
        return None
    n, c = w.strands, len(w.letters)
    k = c + n + 1
    states = {tuple(list(range(n, 2 * n)) + list(range(n))): 1}
    for letter in w.letters:
        i = abs(letter)
        x, y = n + i - 1, n + i
        vertical, kink = (0, 2 * k) if letter > 0 else (2 * k, 0)
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for m, v in states.items():
            a = m[x]
            if a == y:
                acc[m] = get(m, 0) - (v << kink)
                continue
            acc[m] = get(m, 0) + (v << vertical)
            b = m[y]
            lst = list(m)
            lst[a], lst[b] = b, a
            lst[x], lst[y] = y, x
            m2 = tuple(lst)
            acc[m2] = get(m2, 0) + (v << k)
        states = {key: val for key, val in acc.items() if val}

    by_loops = [0] * (n + 1)
    for m, v in states.items():
        by_loops[_closure_loops(m, n)] += v
    loop = -1 - (1 << 2 * k)
    packed = sum(v * loop ** (L - 1) << (n - L) * k for L, v in enumerate(by_loops) if v)

    writhe = w.letter_stats().exponent_sum
    offset = 4 * writhe - 2 * c - 2 * (n - 1)
    sign = -1 if writhe % 2 else 1
    return LaurentPoly({2 * e + offset: sign * d for e, d in unpack(packed, k, 0).terms()})


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


class TorusReference:
    """Invariant bundle of T(p, q) whose costly fields are computed when first read.

    It has the field names of InvariantBundle.  The braid
    (sigma_1...sigma_{q-1})^p is built once and kept as word; components,
    letters and euler_char are set at once, and braid_index, alexander and
    jones each run their engine on word on its first read and keep the value.
    A certificate reads the braid index first and stops at the first mismatch,
    so most references never build an Alexander or Jones polynomial.
    """

    def __init__(self, p: int, q: int, guard: int):
        self.word = w = torus_braid(p, q)
        self.guard = guard
        self.components = w.component_count()
        self.letters = len(w.letters)
        self.euler_char = euler_char(w)

    @cached_property
    def braid_index(self) -> int | None:
        return braid_index_by_full_twist(self.word)

    @cached_property
    def alexander(self) -> LaurentPoly:
        return alexander(self.word)

    @cached_property
    def jones(self) -> LaurentPoly | None:
        return jones(self.word, self.guard)


@lru_cache(maxsize=None)
def torus_reference(p: int, q: int, guard: int = DEFAULT_JONES_GUARD) -> TorusReference:
    """Invariant bundle of the torus link T(p, q), computed by self-application.

    Runs the engines on the standard braid (sigma_1...sigma_{q-1})^p on q
    strands (callers pass q <= p, so this is the cheaper presentation) rather
    than trusting closed-form tables; the Alexander closed form survives only
    as an independent cross-check in the test suite.  Each invariant is
    computed on its first read (TorusReference).

    This is the one cached engine.  Its keys are the (p, q, guard) candidates
    of a sweep grid, a small set (428 at p <= 9) that every row's
    certificate draws on again, so most calls hit (83% of the p <= 9 sweep).
    Lazy fields keep each cached entry small: at p <= 9, 373 of the 428
    references are settled by the braid index alone.
    """
    if not 1 <= q <= p:
        raise ValueError("torus reference expects 1 <= q <= p")
    return TorusReference(p, q, guard)
