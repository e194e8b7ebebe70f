"""Independent brute-force oracles used only by the tests.

Each oracle recomputes a quantity along a path disjoint from the library
engine it checks: the Kauffman bracket by plain 2^crossings enumeration with
union-find loop counting, and for long words by a state sum bucketed by
planar matching over dict polynomials, the torus-knot Alexander and Jones
polynomials by exact division of their closed-form quotients, the reduced
Burau matrix as a product of generator matrices over Laurent polynomials,
the Alexander polynomial from a minor of the unreduced Burau matrix,
determinants by Leibniz expansion, Hadamard's products by plain loops,
polynomial division by the schoolbook method on dense coefficient lists,
values at a point as exact fractions, the digit widths of the Alexander
columns and of the Kauffman state sum from their own bounds, the strand
permutation by following each strand down the word, the steps of the strand
absorption letter by letter from their formula, the Garside normal form by
left-weighting every adjacent pair until nothing changes, braid-word
equivalence by closing the word under commutation and braid relations,
torus candidate parameters by direct integer enumeration, and sweep reports
by one json.dump of the whole document and a CSV table flattened from the
list of every row's dict.

The module also holds test helpers that are not oracles: the polynomial
matrix type the oracles compute with, small polynomial and permutation-braid
helpers, the braid words that only the tests build (torus braids, standard
braids of T-links, half twists) and count (letter_stats), the braid-word
moves that only the tests make (product, inverse, conjugation, Markov
stabilization and destabilization), and reduced_burau and determinant,
which read the library's packed engines (invariants._packed_columns,
laurent.determinant) back as polynomial matrices so that the tests
can compare those engines with the oracles.  They are views of the engines
under test, not independent checks.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import gcd
from typing import Iterable, Sequence

from tlinks.braid import BraidWord, Presentation
from tlinks.cli import _CSV_FIELDS, report_row
from tlinks.garside import NormalForm
from tlinks.invariants import _column_bound, _packed_columns
from tlinks import laurent
from tlinks.laurent import InexactDivisionError, LaurentPoly, unpack
from tlinks.oracle import SweepReport
from tlinks.tlink import FullTwistForm, TLinkSpec, standard_presentation

_DELTA_A = LaurentPoly({2: -1, -2: -1})


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

    @property
    def size(self) -> int:
        return len(self.entries)


def shifted(p: LaurentPoly, k: int) -> LaurentPoly:
    """p times t^k."""
    return LaurentPoly({e + k: c for e, c in p.terms()})


def scaled(p: LaurentPoly, factor: int) -> LaurentPoly:
    return LaurentPoly({e: c * factor for e, c in p.terms()})


def poly_pow(p: LaurentPoly, k: int) -> LaurentPoly:
    """p^k by repeated squaring, for k >= 0."""
    if k < 0:
        raise ValueError("negative powers are not defined for polynomials")
    result = LaurentPoly.one()
    while k:
        if k & 1:
            result = result * p
        p = p * p
        k >>= 1
    return result


def max_exp(p: LaurentPoly) -> int:
    """The highest exponent of a nonzero polynomial."""
    if not p:
        raise ValueError("zero polynomial has no maximal exponent")
    return p.terms()[-1][0]


def evaluate(p: LaurentPoly, x: int) -> Fraction:
    """Exact value at a nonzero integer point (a Fraction because of t^-k terms)."""
    if x == 0:
        raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
    return sum((Fraction(c) * Fraction(x) ** e for e, c in p.terms()), Fraction(0))


def divide_exact(p: LaurentPoly, divisor: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / divisor; raises InexactDivisionError if not divisible.

    Schoolbook division from the top on dense coefficient lists, both
    operands shifted to lowest exponent 0.
    """
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return LaurentPoly.zero()
    num, den = dict(p.terms()), dict(divisor.terms())
    lo, dlo = p.low, divisor.low
    rem = [num.get(e, 0) for e in range(lo, max_exp(p) + 1)]
    den_list = [den.get(e, 0) for e in range(dlo, max_exp(divisor) + 1)]
    top = len(den_list) - 1
    quot = [0] * (len(rem) - top)
    for pos in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[pos + top], den_list[top])
        if r:
            raise InexactDivisionError("polynomial division is not exact")
        if q:
            quot[pos] = q
            for j, d in enumerate(den_list):
                rem[pos + j] -= q * d
    if any(rem[:top]):
        raise InexactDivisionError("polynomial division is not exact")
    return LaurentPoly({e + lo - dlo: c for e, c in enumerate(quot)})


def identity_matrix(n: int) -> PolyMatrix:
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return PolyMatrix.from_rows([one if i == j else zero for j in range(n)] for i in range(n))


def matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Schoolbook product of two square matrices of the same size."""
    if a.size != b.size:
        raise ValueError("size mismatch")
    cols = list(zip(*b.entries))
    return PolyMatrix.from_rows(
        [sum((x * y for x, y in zip(row, col)), LaurentPoly.zero()) for col in cols]
        for row in a.entries
    )


def matsub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.size != b.size:
        raise ValueError("size mismatch")
    return PolyMatrix.from_rows(
        [x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)
    )


def _find(parent: dict[int, int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: dict[int, int], a: int, b: int) -> None:
    parent[_find(parent, a)] = _find(parent, b)


def brute_jones(w: BraidWord) -> LaurentPoly:
    """Jones polynomial by full state enumeration, in quarter powers of t.

    States pick, per crossing, either the vertical smoothing (coefficient
    A^sign) or the cup-cap smoothing (coefficient A^-sign); loops are counted
    by union-find over explicit strand segments.
    """
    n, letters = w.strands, w.letters
    total = LaurentPoly.zero()
    for state in product((0, 1), repeat=len(letters)):
        parent = {i: i for i in range(n)}
        cur = list(range(n))
        next_id = n
        a_exp = 0
        for pick, e in zip(state, letters):
            i = abs(e)
            sign = 1 if e > 0 else -1
            if pick == 0:
                a_exp += sign  # strands run straight through
            else:
                a_exp -= sign
                _union(parent, cur[i - 1], cur[i])
                parent[next_id] = next_id
                cur[i - 1] = cur[i] = next_id
                next_id += 1
        for c in range(n):
            _union(parent, cur[c], c)
        loops = len({_find(parent, x) for x in parent})
        total = total + t_power(a_exp) * poly_pow(_DELTA_A, loops - 1)
    writhe = sum(1 if e > 0 else -1 for e in letters)
    f = shifted(total, -3 * writhe)
    if writhe % 2:
        f = scaled(f, -1)
    return LaurentPoly({-e: c for e, c in f.terms()})


def bucket_jones(w: BraidWord) -> LaurentPoly:
    """Jones polynomial by a bucketed Kauffman state sum, in quarter powers of t.

    Partial states are keyed by their planar matching of the n top points
    (0..n-1) and the n frontier points (n..2n-1), and each bucket holds a
    dict polynomial in quarter powers of t: the vertical smoothing of a
    crossing of sign s shifts it by -s, the cup-cap smoothing by +s, times the
    loop value when it closes a loop.  Closure loops are counted by union-find,
    joining top point j to frontier point n + j.  The work is letters times
    Catalan(strands) polynomial additions, so unlike brute_jones it reaches
    words of a hundred letters and more; there is no crossing guard.
    """
    n = w.strands
    zero = LaurentPoly.zero()
    states = {tuple(list(range(n, 2 * n)) + list(range(n))): LaurentPoly.one()}
    for letter in w.letters:
        i = abs(letter)
        x, y = n + i - 1, n + i
        sign = 1 if letter > 0 else -1
        acc: dict[tuple[int, ...], LaurentPoly] = {}
        for m, coeff in states.items():
            acc[m] = acc.get(m, zero) + shifted(coeff, -sign)
            a, b = m[x], m[y]
            cup = shifted(coeff, sign)
            if a == y:
                m2, cup = m, cup * _DELTA_A
            else:
                lst = list(m)
                lst[a], lst[b] = b, a
                lst[x], lst[y] = y, x
                m2 = tuple(lst)
            acc[m2] = acc.get(m2, zero) + cup
        states = {m: v for m, v in acc.items() if v}
    bracket = zero
    for m, coeff in states.items():
        parent = {p: p for p in range(2 * n)}
        for p, q in enumerate(m):
            _union(parent, p, q)
        for j in range(n):
            _union(parent, j, n + j)
        loops = len({_find(parent, p) for p in parent})
        bracket = bracket + coeff * poly_pow(_DELTA_A, loops - 1)
    writhe = sum(1 if e > 0 else -1 for e in w.letters)
    normalized = shifted(bracket, 3 * writhe)
    return scaled(normalized, -1) if writhe % 2 else normalized


def burau_product(w: BraidWord) -> PolyMatrix:
    """Reduced Burau matrix as a product of generator matrices.

    The matrix of sigma_i is the identity except in column c = i - 1, which
    holds (t, -t, 1) for sigma_i and (1, -t^-1, t^-1) for its inverse in rows
    c-1, c and c+1, clipped to the (n-1)x(n-1) matrix."""
    m = w.strands - 1
    out = identity_matrix(m)
    for letter in w.letters:
        c = abs(letter) - 1
        t = t_power(1 if letter > 0 else -1)
        column = (t, -t, LaurentPoly.one()) if letter > 0 else (LaurentPoly.one(), -t, t)
        rows = [list(row) for row in identity_matrix(m).entries]
        for r, entry in zip((c - 1, c, c + 1), column):
            if 0 <= r < m:
                rows[r][c] = entry
        out = matmul(out, PolyMatrix.from_rows(rows))
    return out


def leibniz_determinant(m: PolyMatrix) -> LaurentPoly:
    """sum over permutations s of sgn(s) prod_i m[i][s(i)]; meant for size <= 5."""
    n = m.size
    total = LaurentPoly.zero()
    for perm in permutations(range(n)):
        term = LaurentPoly.one()
        for i, j in enumerate(perm):
            term = term * m.entries[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total + scaled(term, -1 if inversions % 2 else 1)
    return total


def unreduced_burau(w: BraidWord) -> PolyMatrix:
    """The n x n unreduced Burau matrix B(w), a product of generator matrices.

    sigma_i is I + [[1 - t, t], [1, 0]] + I and sigma_i^-1 is
    I + [[0, 1], [t^-1, 1 - t^-1]] + I, the 2 x 2 block in rows and columns
    i and i + 1 (Birman's convention), multiplied left to right: a right
    factor mixes columns i and i + 1 of the product by its block.
    """
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    rows = [list(row) for row in identity_matrix(w.strands).entries]
    for letter in w.letters:
        a = abs(letter) - 1
        t = t_power(1 if letter > 0 else -1)
        (p, q), (r, s) = ((one - t, t), (one, zero)) if letter > 0 else ((zero, one), (t, one - t))
        for row in rows:
            x, y = row[a], row[a + 1]
            row[a], row[a + 1] = x * p + y * r, x * q + y * s
    return PolyMatrix.from_rows(rows)


def alexander_by_minor(w: BraidWord) -> LaurentPoly:
    """Unit-normalized Alexander polynomial from the unreduced Burau matrix.

    The identity (J. Birman, Braids, Links, and Mapping Class Groups, Ann. of
    Math. Studies 82, 1974, ch. 3): for a braid w on n strands, the Alexander
    polynomial of its closure equals, up to a unit +-t^e, the determinant of
    the leading (n - 1) x (n - 1) minor of I - B(w), B the unreduced Burau
    matrix (unreduced_burau).  I - B(w) is the Fox Jacobian, every generator
    sent to t, of the link group presentation <x_1, ..., x_n | x_i = w(x_i)>
    from Artin's action; one relation follows from the others, and deleting
    its row and one column leaves the minor.  It is 0 for a split closure,
    and the empty minor of one strand gives 1.  No division by [n]_t, no
    Schur step for full twists and no digit width: every letter, twists
    included, is a generator matrix, and the minor is expanded by Leibniz.
    """
    m = w.strands - 1
    minus = matsub(identity_matrix(w.strands), unreduced_burau(w))
    det = leibniz_determinant(PolyMatrix.from_rows(row[:m] for row in minus.entries[:m]))
    return det.unit_normalized() if det else det


def hadamard_products(a: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(prod over rows, prod over columns) of the sums of squared entries of a square matrix."""
    rows = cols = 1
    for i in range(len(a)):
        row = col = 0
        for j in range(len(a)):
            row += a[i][j] * a[i][j]
            col += a[j][i] * a[j][i]
        rows *= row
        cols *= col
    return rows, cols


def torus_alexander_closed_form(p: int, q: int) -> LaurentPoly:
    """Unit-normalized (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)), gcd(p,q) = 1."""
    if gcd(p, q) != 1:
        raise ValueError("closed form applies to coprime parameters only")
    minus_one = LaurentPoly({0: -1})
    numerator = (t_power(p * q) + minus_one) * (t_power(1) + minus_one)
    quotient = divide_exact(numerator, t_power(p) + minus_one)
    quotient = divide_exact(quotient, t_power(q) + minus_one)
    return quotient.unit_normalized()


def torus_jones_closed_form(p: int, q: int) -> LaurentPoly:
    """V(T(p,q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2).

    Jones 1987, for coprime p and q; returned in quarter powers of t.
    """
    if gcd(p, q) != 1:
        raise ValueError("closed form applies to coprime parameters only")
    t = t_power
    numerator = LaurentPoly.one() - t(p + 1) - t(q + 1) + t(p + q)
    v = shifted(divide_exact(numerator, LaurentPoly.one() - t(2)), (p - 1) * (q - 1) // 2)
    return LaurentPoly({4 * e: c for e, c in v.terms()})


def burau_norm_bound(m: int, letters: Sequence[int]) -> int:
    """The largest of m per-column bounds on the l1 norms of the entries of rho(letters).

    rho is the reduced Burau representation on m + 1 strands.  Every column
    starts at 1, the identity's.  Right multiplication by the matrix of
    sigma_g^(+-1) rewrites only column g - 1, as its neighbours and itself
    times monomials of coefficient +-1, so its bound becomes the sum of the
    three bounds (a neighbour outside the matrix counts as 0).  The bound is
    not tight: it ignores cancellation, and it takes the largest column for
    every entry.
    """
    norms = [1] * m
    for e in letters:
        c = abs(e) - 1
        norms[c] = sum(norms[max(c - 1, 0) : c + 2])
    return max(norms)


def alexander_width(rest: BraidWord, twists: int) -> int:
    """K1 = bit_length(B1 + B2) + 1, the digit width of the matrix alexander packs.

    The matrix is t^N (t^(nj) rho(w1) - rho(w2^-1)), rest = w1 w2 cut at half
    its letters, or t^(nj) rho(rest) - I (w2 empty) for a positive rest with
    j = twists >= 1.  B1 and B2 bound the l1 norms of the entries of the two
    terms (burau_norm_bound; w2^-1 reads w2's letters backwards), so every
    coefficient of the difference lies in |c| <= B1 + B2 < 2^(K1-1).  The
    width is not tight: the bounds are not, and the entries of the two terms
    rarely reach them together.
    """
    letters, m = rest.letters, rest.strands - 1
    h = len(letters) if twists and rest.is_positive else len(letters) // 2
    b1 = burau_norm_bound(m, letters[:h])
    b2 = burau_norm_bound(m, letters[h:][::-1])
    return (b1 + b2).bit_length() + 1


def state_sum_width(w: BraidWord) -> int:
    """K = bit_length(B) + 1 with B = 2^(c+n-1), the digit width of a Kauffman state sum.

    Each of the c crossings splits a bucket into at most two terms of the
    same l1 norm, so the buckets sum to norm at most 2^c, and a closure
    factor (-1)^(L-1) (1 + u^2)^(L-1) u^(n-L) of L <= n loops has norm at most
    2^(n-1): no coefficient of the packed sum exceeds B.  The bound is not
    tight: most buckets cancel in part, and few close to n loops.
    """
    return (1 << len(w.letters) + w.strands - 1).bit_length() + 1


def strand_permutation(w: BraidWord) -> tuple[int, ...]:
    """The strand permutation of w as a 1-based image tuple: images[j-1] = top strand at slot j.

    Each top strand is followed down the letters on its own: sigma_g^(+-1)
    moves a strand at position g to g + 1 and one at g + 1 to g.
    """
    images = [0] * w.strands
    for strand in range(1, w.strands + 1):
        at = strand
        for e in w.letters:
            g = abs(e)
            if at == g:
                at = g + 1
            elif at == g + 1:
                at = g
        images[at - 1] = strand
    return tuple(images)


def cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint cycles of a 1-based image tuple, each from its minimum, sorted by minimum."""
    out: list[tuple[int, ...]] = []
    for start in range(1, len(images) + 1):
        if any(start in c for c in out):
            continue
        cyc = [start]
        while (nxt := images[cyc[-1] - 1]) != start:
            cyc.append(nxt)
        out.append(tuple(cyc))
    return out


def is_identity(images: Sequence[int]) -> bool:
    return all(img == i for i, img in enumerate(images, start=1))


def permutation_inverse(images: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(images)
    for i, img in enumerate(images, start=1):
        inv[img - 1] = i
    return tuple(inv)


# -- braid words only the tests build, and their letter counts ----------------


def torus_braid(p: int, q: int) -> BraidWord:
    """The standard braid (sigma_1...sigma_{q-1})^p of T(p,q) on q strands, written out."""
    if q < 1 or p < 1:
        raise ValueError("torus parameters must be positive")
    return Presentation((), q, p).word()


def standard_braid(spec: TLinkSpec) -> BraidWord:
    """The defining positive braid of the T-link, on r_k strands, written out."""
    return standard_presentation(spec).word()


def absorbed_braid(form: FullTwistForm, j: int) -> BraidWord:
    """Step j of the strand absorption of form, written letter by letter.

    The braid on p - j strands

        (sigma_{a_n-1}...sigma_{a_n-q+1})^j
        (sigma_1...sigma_{a_1-1})^{s_1 a_1} ... (sigma_1...sigma_{a_n-1})^{s_n a_n}
        (sigma_1...sigma_{p-1-j})^q,

    the formula of the tlink.absorb_strands docstring, for 0 <= j <= p - a_n.
    The last step needs no merge here: its base run (sigma_1...sigma_{a_n-1})^q
    follows the a_n-strand block letter for letter.
    """
    p, q = form.base
    a_n = form.a_max
    letters = []
    for _ in range(j):
        for e in range(a_n - 1, a_n - q, -1):
            letters.append(e)
    for a, s in form.twist_pairs:
        for _ in range(s * a):
            for e in range(1, a):
                letters.append(e)
    for _ in range(q):
        for e in range(1, p - j):
            letters.append(e)
    return BraidWord(p - j, tuple(letters))


def delta_word(n: int) -> BraidWord:
    """The positive half twist (sigma_1)(sigma_2 sigma_1)...(sigma_{n-1}...sigma_1)."""
    if n < 2:
        raise ValueError("the half twist needs at least 2 strands")
    letters = []
    for k in range(1, n):
        letters.extend(range(k, 0, -1))
    return BraidWord(n, tuple(letters))


def letter_stats(w: BraidWord) -> tuple[int, int, int]:
    """(positive letters, negative letters, exponent sum) of w."""
    pos = sum(1 for e in w.letters if e > 0)
    neg = len(w.letters) - pos
    return pos, neg, pos - neg


def t_power(exp: int) -> LaurentPoly:
    """The monomial t^exp."""
    return LaurentPoly({exp: 1})


# -- braid-word moves only the tests make --------------------------------------


def word_product(a: BraidWord, b: BraidWord) -> BraidWord:
    """a * b: the letters of a, then those of b."""
    if a.strands != b.strands:
        raise ValueError("strand counts differ")
    return BraidWord(a.strands, a.letters + b.letters)


def word_inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(-e for e in reversed(w.letters)))


def conjugated_by(w: BraidWord, g: BraidWord) -> BraidWord:
    """g^-1 * w * g; the closure's link type is unchanged."""
    if g.strands != w.strands:
        raise ValueError("strand counts differ")
    return word_product(word_product(word_inverse(g), w), g)


def stabilized(w: BraidWord) -> BraidWord:
    """Markov stabilization: same closure on one more strand."""
    return BraidWord(w.strands + 1, w.letters + (w.strands,))


def destabilized(w: BraidWord) -> BraidWord:
    """Markov destabilization.

    Requires sigma_{n-1}^{+-1} to occur exactly once; rotates the word
    cyclically (a conjugation, harmless to the closure) to bring that letter
    last, deletes it, and drops to n-1 strands.
    """
    top = w.strands - 1
    if top < 1:
        raise ValueError("cannot destabilize a 1-strand braid")
    hits = [i for i, e in enumerate(w.letters) if abs(e) == top]
    if len(hits) != 1:
        raise ValueError(f"sigma_{top} must occur exactly once, found {len(hits)} occurrences")
    i = hits[0]
    return BraidWord(w.strands - 1, w.letters[i + 1 :] + w.letters[:i])


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _descents(p: tuple[int, ...]) -> set[int]:
    return {g for g in range(1, len(p)) if p[g - 1] > p[g]}


def starting_set(f: tuple[int, ...]) -> frozenset[int]:
    """Generators that left-divide the permutation braid f, a 1-based image tuple."""
    return frozenset(_descents(f))


def finishing_set(f: tuple[int, ...]) -> frozenset[int]:
    """Generators that right-divide the permutation braid f, a 1-based image tuple."""
    return frozenset(_descents(permutation_inverse(f)))


def _perm_to_letters(images: Sequence[int]) -> tuple[int, ...]:
    """A positive word for a permutation: strip its least left descent until none is left."""
    p, letters = list(images), []
    while descents := _descents(p):
        g = min(descents)
        letters.append(g)
        p[g - 1], p[g] = p[g], p[g - 1]
    return tuple(letters)


def factor_words(nf: NormalForm) -> list[tuple[int, ...]]:
    """A positive word for each permutation-braid factor of a normal form."""
    return [_perm_to_letters(f) for f in nf.factors]


def _swap_positions(p: tuple[int, ...], g: int) -> tuple[int, ...]:
    """sigma_g * p on a 0-based image tuple: exchange positions g-1 and g."""
    out = list(p)
    out[g - 1], out[g] = out[g], out[g - 1]
    return tuple(out)


def _swap_values(p: tuple[int, ...], g: int) -> tuple[int, ...]:
    """p * sigma_g on a 0-based image tuple: exchange the values g-1 and g."""
    return tuple(g if v == g - 1 else g - 1 if v == g else v for v in p)


def fixpoint_normal_form(w: BraidWord) -> NormalForm:
    """Garside normal form by global left-weighting passes to a fixpoint.

    The word is split greedily into permutation braids (0-based image
    tuples); then every adjacent pair is left-weighted, sliding sigma_g from
    the head of the right factor onto the left factor while g is a starting
    generator of the right factor and not a finishing generator of the left,
    and the passes over all pairs repeat until none changes anything.
    """
    n = w.strands
    if n == 1 or not w.letters:
        return NormalForm(n, 0, ())
    ident = tuple(range(n))
    factors: list[tuple[int, ...]] = []
    for g in w.letters:
        if factors and g not in _descents(_perm_inverse(factors[-1])):
            factors[-1] = _swap_values(factors[-1], g)
        else:
            factors.append(_swap_positions(ident, g))
    changed = True
    while changed:
        factors = [f for f in factors if f != ident]
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            while moves := _descents(b) - _descents(_perm_inverse(a)):
                g = min(moves)
                a, b = _swap_values(a, g), _swap_positions(b, g)
                changed = True
            factors[i], factors[i + 1] = a, b
    delta = ident[::-1]
    inf = 0
    while inf < len(factors) and factors[inf] == delta:
        inf += 1
    tail = tuple(tuple(v + 1 for v in f) for f in factors[inf:])
    return NormalForm(n, inf, tail)


def relation_closure(letters: tuple[int, ...], strands: int) -> frozenset[tuple[int, ...]]:
    """All positive words reachable by commutation and braid moves."""
    seen = {letters}
    frontier = [letters]
    while frontier:
        word = frontier.pop()
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if abs(a - b) >= 2:
                nxt = word[:i] + (b, a) + word[i + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for i in range(len(word) - 2):
            a, b, c = word[i], word[i + 1], word[i + 2]
            if a == c and abs(a - b) == 1:
                nxt = word[:i] + (b, a, b) + word[i + 3 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return frozenset(seen)


def enumerate_torus_candidates(components: int, euler_char: int) -> list[tuple[int, int]]:
    """(p, q) with q <= p, gcd = components, p + q - pq = euler_char, by scan."""
    target = 1 - euler_char
    out = []
    if target == 0:
        return [(1, 1)] if components == 1 else []
    bound = target + 2
    for p in range(1, bound):
        for q in range(1, p + 1):
            if (p - 1) * (q - 1) == target and gcd(p, q) == components:
                out.append((p, q))
    return sorted(out, key=lambda pq: (pq[1], pq[0]))


# -- views of the library engines under test (not independent) ----------------


def reduced_burau(w: BraidWord) -> PolyMatrix:
    """The packed Burau columns of alexander (invariants._packed_columns), unpacked.

    Product of the (n-1)x(n-1) generator matrices of every letter, full twists
    included, left to right.
    """
    if w.strands < 2:
        raise ValueError("the reduced Burau representation needs at least 2 strands")
    m = w.strands - 1
    k = _column_bound(m, w.letters).bit_length() + 1
    _, neg, _ = letter_stats(w)
    cols = _packed_columns(m, w.letters, k, neg)
    return PolyMatrix.from_rows([unpack(col[r], k, -neg) for col in cols] for r in range(m))


def determinant(m: PolyMatrix) -> LaurentPoly:
    """Exact determinant, as one packed integer determinant (laurent.determinant)."""
    return laurent.determinant(m.entries)[0]


def whole_json_report(report: SweepReport, path: str, include_timings: bool) -> None:
    """The JSON sweep report as one json.dump of the whole document, every row in memory."""
    doc = {
        "params": dict(report.params),
        "rows": [report_row(r, include_timings) for r in report.rows],
        "disagreements": len(report.disagreements),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def whole_csv_report(report: SweepReport, path: str, include_timings: bool) -> None:
    """The CSV sweep report flattened from the list of every row's dict; None is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        for row in [report_row(r, include_timings) for r in report.rows]:
            verdict, cert, inv = row["verdict"], row["certificate"], row["invariants"]
            writer.writerow(
                [
                    row["input"],
                    ";".join(f"{a},{s}" for a, s in row["pairs"]),
                    verdict["kind"],
                    verdict["rule"],
                    cert["kind"],
                    "|".join(f"{c['p']}:{c['q']}:{c['reason']}" for c in cert["candidates"]),
                    int(cert["guardHit"]),
                    inv["components"],
                    inv["letters"],
                    inv["eulerChar"],
                    inv["braidIndex"],
                    inv["alexander"],
                    inv["jones"],
                    row["timingMs"],
                ]
            )
