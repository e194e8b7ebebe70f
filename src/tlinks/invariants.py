"""Exact link invariants of braid closures.

Five engines feed one class, Closure, the invariants of the closure of
Delta^(2j) rest.  A braid built from parameters (a T-link, a sweep
presentation, a torus braid) ends in a syllable (sigma_1...sigma_{n-1})^s on
all n strands, and syllable_closure takes j = floor(s/n) from it by divmod;
closure scans a raw word once for its literal twists (braid.split_full_twists):

* components, from the permutation of rest: Delta^2 is a pure braid, so
  A Delta^2 B permutes the strands as A B does;
* Euler characteristic of the Bennequin surface of a positive word, which is
  genus-minimizing, so chi = strands - letters is a link invariant;
* the braid index of a positive word, by the full-twist criterion
  (_braid_index): n when j >= 1 or the Garside infimum is at least 2;
* the one-variable Alexander polynomial through the reduced Burau
  representation: det(rho(w) - I) equals, up to a unit +-t^k, the Alexander
  polynomial times (1 + t + ... + t^{n-1}); alexander takes rest and j;
* the Jones polynomial through the Kauffman bracket, under a crossing guard
  on the braid's letter count: the braid is first reduced by exact moves and
  split into pieces (braid.closure_pieces), and each piece is summed with one
  integer packed at t^(1/2) = 2^K per planar-matching bucket, its moves read
  from one Temperley-Lieb move table per strand count.

Alexander and Jones are computed on their first read, the other fields at
once.  The Closure is the one record of a closure's invariants: certificates
and torus references read it lazily, so a candidate settled by the component
count or the braid index never builds an Alexander polynomial, and
Closure.bundle computes both polynomials at once for bundle and sweep rows.

Alexander values are unit-normalized so "equal up to units" is plain
equality.  Jones values live in quarter powers of t (exponent k encodes
t^(k/4)), which keeps links with half-integer powers exact.

Every word, positive or signed, takes the same exact path to Alexander, on
packed integers from the first letter to the determinant: the j full twists
split off by the caller become a factor t^(nj), since rho(Delta^2) = t^n I.
A positive word with a literal twist keeps the matrix t^(nj) rho(rest) - I.
Any other word is cut in half, rest = w1 w2, and takes t^(nj) rho(w1) -
rho(w2^-1) instead: it equals (rho(w) - I) rho(w2)^-1, and det rho(w2) is a
unit +-t^e, so both give Alexander, but the halves pack about half as wide;
a twist-free word is first reduced (Closure), and a split one is 0.  One
column routine updates the Burau columns of either half as integers packed
at t = 2^K1, O(m) per letter of either sign, K1 set by one norm bound per
column of each half; laurent.unpack reads every entry as a LaurentPoly;
laurent.determinant repacks the matrix, at a width set by Hadamard's bound
on its coefficients, for one integer determinant, and returns it unpacked
with that bound; and the determinant is divided by
1 + t + ... + t^(n-1) on its coefficients.  These widths and the Jones one
come from proved bounds on coefficient size (see _packed_columns,
_alexander_columns, laurent.determinant and _state_sum), so the recovery of
coefficients is exact, never heuristic.  A 1-strand word takes the same
path: its matrix is empty, of determinant 1, and the quotient by [1]_t = 1
is 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from threading import Lock

from .braid import BraidWord, Presentation, closure_pieces, split_full_twists
from .garside import infimum
from .laurent import LaurentPoly, determinant, divide_by_strand_sum, unpack

# Cost model of jones: per piece of the reduced word, at most letters x
# min(Catalan(strands), 2^letters) bucket updates, each a list index into the
# move table of its strand count and a shift and an add on an integer of at
# most 2 x letters digits of K = letters + strands + 1 bits, after one
# C-level copy of the buckets per letter.  The rotation that the sum starts
# from (_late_start, at most letters^2 steps) meets fewer buckets: on the 456
# pieces of the seed-0 words benchmark, 156,577 updates where the word as
# given meets 265,190 (the best rotation meets 152,697).  A move is worked
# out once per process per strand count (_state_sum), so a cold table adds
# at most (strands - 1) x Catalan(strands) cup-cap moves, shared by later
# words.  The reduction before it (braid.closure_pieces) is repeated list
# scans; on every word measured it costs a small part of the state sum on
# what it leaves.  The guard counts the letters of the word as given, before
# the reduction, so which words get a Jones value does not depend on how far
# they reduce.
DEFAULT_JONES_GUARD = 24


# -- reduced Burau representation and Alexander polynomial ---------------------


def _column_bound(m: int, letters: tuple[int, ...]) -> int:
    """B = max M_c, a bound on the l1 norm of every entry of rho(letters).

    One integer M_c per column, from 1 (the identity), bounds the l1 norm of
    every entry of column c.  An update of column c (see _packed_columns)
    adds its two neighbours and itself times monomials of coefficient +-1, so
    the new M_c is at most M_(c-1) + M_c + M_(c+1); a factor t^N keeps every
    l1 norm, so B bounds the entries of t^N rho(letters) too.
    """
    # a zero column on each side, so that column c = i - 1 sits at index i
    norms = [0] + [1] * m + [0]
    for i in map(abs, letters):
        norms[i] += norms[i - 1] + norms[i + 1]
    return max(norms)


def _packed_columns(m: int, letters: tuple[int, ...], k: int, power: int) -> list[list[int]]:
    """Columns of t^power rho(letters), the reduced Burau matrix, packed at t = 2^k.

    power must be at least the number of inverse letters.  cols[c][r] packs
    entry (r, c), a polynomial (see laurent.unpack).  The columns start as
    t^power I.  Right multiplication by the matrix of sigma_i changes only
    column c = i - 1, to t*col[c-1] - t*col[c] + col[c+1], and by the matrix
    of sigma_i^-1 only column c, to col[c-1] + t^-1 (col[c+1] - col[c]); a
    neighbour outside the matrix counts as zero.  Each letter is O(m).

    Exact shift.  Division by t is the right shift `(d - b) >> k`, and it is
    exact.  After p inverse letters the matrix is t^(power-p) times
    t^p rho(prefix), a product of the matrices of sigma_i and t sigma_i^-1,
    whose entries (0, +-1, +-t) have no negative exponent.  So while an
    inverse letter is still to come, p < power and every entry is t times a
    polynomial: it has no constant term.  Then d - b packs t Q for a
    polynomial Q, its packed value is 2^k Q(2^k), and the floor shift by k
    bits returns Q(2^k) exactly, negative values included.  Packing is
    evaluation at 2^k, a ring homomorphism, so this holds at any k; the width
    only matters when the entries are read back (_column_bound).
    """
    zero = [0] * m
    one = 1 << k * power
    cols = [zero] + [[one if r == c else 0 for r in range(m)] for c in range(m)] + [zero]
    for letter in letters:
        if letter > 0:
            left, col, right = cols[letter - 1], cols[letter], cols[letter + 1]
            cols[letter] = [((a - b) << k) + d for a, b, d in zip(left, col, right)]
        else:
            i = -letter
            left, col, right = cols[i - 1], cols[i], cols[i + 1]
            cols[i] = [a + ((d - b) >> k) for a, b, d in zip(left, col, right)]
    return cols[1:-1]


def _alexander_columns(rest: BraidWord, twists: int) -> tuple[list[list[int]], int]:
    """Columns of the matrix whose determinant alexander reads, packed at t = 2^K1.

    Returns (cols, K1) for w = Delta^(2j) rest, j = twists: cols[c][r]
    packs, from t^0 up, entry (r, c) of t^(nj) rho(rest) - I for a positive
    rest and j >= 1, or of t^N (t^(nj) rho(w1) - rho(w2^-1)) else.
    Either way the determinant is +-t^e det(rho(w) - I) for some e.

    Full twists.  j comes apart from the letters of rest, so no letter of a
    twist is read here.  rho(Delta^2) = t^n I.  Delta^2 is central and at
    generic t the reduced Burau representation is irreducible over an
    algebraically closed field (over C whenever t is not a root of [n]_t;
    Formanek 1996), so by Schur's lemma rho(Delta^2) is a scalar c.
    det rho(sigma_i) = -t and Delta^2 has n(n-1) letters, so
    c^(n-1) = t^(n(n-1)) and c = +-t^n; at t = 1, rho factors through the
    symmetric group, where Delta^2 is the identity, so c = t^n.  Hence
    rho(w) = t^(nj) rho(rest), and the factor t^(nj) is a start at a higher
    power of t in _packed_columns.

    Half split.  rest = w1 w2, cut at h = floor(len(rest) / 2), and cols
    pack t^N (t^(nj) rho(w1) - rho(w2^-1)), where w2^-1 is w2's letters
    reversed and negated and N is the larger count of inverse letters of w1
    and w2^-1.  Since rho(w) = t^(nj) rho(w1) rho(w2),

        rho(w) - I = (t^(nj) rho(w1) - rho(w2)^-1) rho(w2),

    and det rho(sigma_i^(+-1)) = (-t)^(+-1), so det rho(w2) is a unit +-t^e;
    with the factor t^N, the two determinants agree up to a unit, which drops
    out in the normalization.  Each half has about half the letters, so its
    entries are about half as wide as those of rho(w).

    A positive rest with j >= 1 keeps t^(nj) rho(rest) - I: the same code
    with h = len(rest) and an empty second half, N = 0, and -I subtracted on
    the diagonal only.  There t^(nj) sets the first half apart in degree, so
    a difference of halves packs wider at the determinant: over the 1064
    p <= 9 sweep words, K2 averages 9.54 bits split against 8.75 with -I,
    and over the 3000 p <= 11 rows alexander took 1.15 s split against
    0.99 s with -I (best of six; Python 3.11, shared 2-core x86-64 host).

    Width K1.  With B1 and B2 the column bounds (_column_bound) of w1 and
    w2^-1, every entry of t^(N+nj) rho(w1) has l1 norm at most B1 and every
    entry of t^N rho(w2^-1) at most B2, so every coefficient of their
    difference is at most B1 + B2 < 2^(K1-1) for K1 = bit_length(B1 + B2) + 1
    (laurent.unpack).  An empty second half is I, B2 = 1, which is
    the width bit_length(B1 + 1) + 1 of rho(rest) - I.
    """
    n, m, letters = rest.strands, rest.strands - 1, rest.letters
    h = len(letters) if twists and rest.is_positive else len(letters) // 2
    first = letters[:h]
    second = tuple(-x for x in reversed(letters[h:]))
    power = max(sum(x < 0 for x in first), sum(x < 0 for x in second))
    k = (_column_bound(m, first) + _column_bound(m, second)).bit_length() + 1
    cols = _packed_columns(m, first, k, power + n * twists)
    if second:
        subtrahend = _packed_columns(m, second, k, power)
        cols = [[a - b for a, b in zip(col, sub)] for col, sub in zip(cols, subtrahend)]
    else:
        for c, col in enumerate(cols):
            col[c] -= 1
    return cols, k


def alexander(w: BraidWord, twists: int = 0) -> LaurentPoly:
    """Unit-normalized one-variable Alexander polynomial of the closure of Delta^(2 twists) w.

    Zero (no coefficients) for split closures such as unlinks; otherwise the
    lowest exponent is 0 and the lowest coefficient positive.  The braid is
    Delta^(2j) rest with j = twists and rest = w; w is neither scanned for
    more full twists nor reduced (Closure passes a split or reduced word).

    One packed pipeline: the columns of a matrix with determinant
    +-t^e det(rho(Delta^(2j) rest) - I) come packed at t = 2^K1
    (_alexander_columns): t^(nj) rho(rest) - I for a positive rest and
    j >= 1, t^N (t^(nj) rho(w1) - rho(w2^-1)) else.  laurent.unpack reads
    every entry as a LaurentPoly, zero entries as one shared zero.  The
    columns, the rows of the transpose, which has the same determinant, go
    to laurent.determinant, which returns it as a polynomial with a bound
    on its coefficients; laurent.divide_by_strand_sum divides it by
    [n]_t = 1 + t + ... + t^(n-1), and raises InexactDivisionError unless the
    division is exact.  The unit +-t^e drops out in the normalization.  On
    one strand the matrix is empty, its determinant 1 and the quotient 1.
    """
    cols, k = _alexander_columns(w, twists)
    det, bound = determinant([[unpack(v, k, 0) for v in col] for col in cols])
    quotient = divide_by_strand_sum(det, w.strands, bound)
    return quotient.unit_normalized() if quotient else quotient


# -- Kauffman bracket / Jones --------------------------------------------------


def _closure_loops(matching: tuple[int, ...], n: int) -> int:
    """Loops of a matching of n top and n frontier points once closed.

    The closure joins top point j to frontier point n + j.  A loop that meets
    position j runs through both of its points, so one walk from the top
    point of each position not yet met finds every loop once.
    """
    loops = 0
    met = [False] * n
    for start in range(n):
        if met[start]:
            continue
        loops += 1
        x = start
        while True:
            y = matching[x]
            # on to the other point of y's position, by its closure arc
            if y < n:
                met[y] = True
                x = y + n
            else:
                x = y - n
                met[x] = True
            if x == start:
                break
    return loops


# V(L1 u L2) = -(t^(1/2) + t^(-1/2)) V(L1) V(L2); the factor in quarter exponents
_SPLIT_FACTOR = LaurentPoly({2: -1, -2: -1})


class _MoveTable:
    """The Temperley-Lieb action of sigma_1 ... sigma_(n-1) on the n-strand matchings, grown on use.

    matchings[s] is the matching numbered s, in the order first met, and ids
    maps it back; loops[s] is its closure-loop count (_closure_loops), taken
    once when it is numbered.  moves[i][s] is the id that the cup-cap
    smoothing of sigma_i leads to from s, -1 where it closes a loop (a
    kink), None until a state sum first needs it (moves[0] unused).  The
    kept tables are shared by every caller in the process, so cup_cap
    numbers a new matching under the table's lock: numbered by two threads
    at once, it could get the id of another matching.
    """

    __slots__ = ("n", "matchings", "ids", "loops", "moves", "lock")

    def __init__(self, n: int):
        self.n = n
        self.matchings: list[tuple[int, ...]] = []
        self.ids: dict[tuple[int, ...], int] = {}
        self.loops: list[int] = []
        self.moves: list[list[int | None]] = [[] for _ in range(n)]
        self.lock = Lock()
        self._number(tuple(range(n, 2 * n)) + tuple(range(n)))  # id 0, the identity

    def _number(self, m: tuple[int, ...]) -> int:
        s = self.ids[m] = len(self.matchings)
        self.matchings.append(m)
        self.loops.append(_closure_loops(m, self.n))
        for move in self.moves[1:]:
            move.append(None)
        return s

    def cup_cap(self, s: int, i: int) -> int:
        """moves[i][s], worked out and stored."""
        n, m = self.n, self.matchings[s]
        x, y = n + i - 1, n + i
        a, b = m[x], m[y]
        if a == y:
            t = -1
        else:
            lst = list(m)
            lst[a], lst[b] = b, a
            lst[x], lst[y] = y, x
            m2 = tuple(lst)
            with self.lock:
                t = self.ids.get(m2)
                if t is None:
                    t = self._number(m2)
        self.moves[i][s] = t
        return t


# Move tables kept for the life of the process, by strand count, for at most
# this many strands (see _state_sum)
_RETAINED_STRANDS = 9
_move_tables: dict[int, _MoveTable] = {}


def _late_start(gens: list[int]) -> int:
    """The start of the rotation of gens whose prefixes take in new generators latest.

    Minimizes the sum over i of 2^(distinct generators among the first i
    letters of the rotation), the first one on a tie.  The buckets of
    _state_sum before letter i are the matchings that those generators
    reach, so the sum estimates the updates (it is not a bound: 3 strands
    have 5 matchings, reached by 2 generators).  Each rotation stops
    counting once it has met every generator, where the rest of its sum is
    one product, or once it is past the best.
    """
    c, every = len(gens), len(set(gens))
    cycle = gens + gens
    best, start = None, 0
    for r in range(c):
        seen: set[int] = set()
        cost = 0
        for i in range(r, r + c):
            cost += 1 << len(seen)
            seen.add(cycle[i])
            if len(seen) == every:
                cost += (r + c - 1 - i) << every
                break
            if best is not None and cost >= best:
                break
        if best is None or cost < best:
            best, start = cost, r
    return start


def _state_sum(w: BraidWord) -> LaurentPoly:
    """Jones polynomial of the closure by the Kauffman state sum.

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
    u^(n-L).  The sum is unpacked once, and its u-digits go to every second
    place of one dense list of quarter exponents: u^e becomes quarter
    exponent 2e, less the padding 2(n-1) and the offsets 2c - writhe of the
    c crossings, plus the normalization 3 writhe.

    One letter.  The vertical terms keep every bucket's matching, so the new
    buckets start as one copy of the old ones, times u^(1-s): dict.copy for
    sigma_i, a comprehension shifting by 2K for sigma_i^-1.  Then each
    bucket adds its cup-cap term u to the bucket it moves to, or, at a kink,
    trades its copied vertical term for the kink term: -u^(1+s) - u^(1-s) is
    -(1 + u^2) for either sign.  A bucket whose terms cancel stays, as 0:
    it adds nothing to the sum, and the buckets are bounded by the move
    table, not by how many stay.

    Start of the sum.  A rotation of the word is a conjugation, and its
    closed braid is the same diagram, so every rotation gives the same
    bracket; but the buckets met differ.  Before letter i they are the
    matchings that the first i letters reach, so the sum starts at the
    rotation whose prefixes take in new generators latest (_late_start), an
    estimate that picks the order only, never a value.

    One move table per strand count.  The cup-cap smoothings are the
    Temperley-Lieb action of the generators on the matchings (Jones 1987),
    which depends on n alone, so they are worked out once per process per
    strand count, in a _MoveTable that every state sum on n strands reads
    and extends.  A matching gets an id, and its closure-loop count, when
    first met, and buckets are keyed by id; the cup-cap smoothing of
    matching s at sigma_i is worked out the first time a bucket needs it and
    kept as the id it leads to, or -1 where it closes a loop.  A smoothing
    is then a list index and the shift-adds, and a final bucket reads its
    loop count.  The table is structure, not a result: it is keyed by n,
    never by the word, so each word still gets its own state sum; and every
    bucket is an exact integer, so ids numbered in another order change only
    the order of the additions, never a value.

    Retention bound.  The tables for n <= _RETAINED_STRANDS = 9 are kept;
    above that, each call builds a table of its own.  A matching of a table
    is what the smoothed diagram leaves between the top and the frontier
    once its closed loops are counted out: arcs that end at the 2n points
    and, as every smoothing is planar, do not cross.  These are non-crossing
    perfect matchings of 2n points on the boundary of the rectangle, a
    circle, which Catalan(n) counts.  So the table for n holds at most
    Catalan(n) matchings and (n-1) Catalan(n) moves, and the kept tables at
    most Catalan(1) + ... + Catalan(9) = 6917 matchings and 52,362 moves.

    Digit width.  A crossing turns a bucket of l1 norm N into terms of norm N
    in two buckets, or in one at a kink, and sums are subadditive, so all
    buckets together have norm at most 2^c; the closure factors have norm
    2^(L-1) <= 2^(n-1).  Every coefficient of the sum is at most
    B = 2^(c+n-1), and K = bit_length(B) + 1 = c + n + 1 unpacks it exactly.
    """
    n, c = w.strands, len(w.letters)
    k = c + n + 1
    table = _move_tables.get(n)
    if table is None:
        table = _MoveTable(n)
        if n <= _RETAINED_STRANDS:
            _move_tables[n] = table
    moves, cup_cap = table.moves, table.cup_cap

    k2 = 2 * k
    r = _late_start([abs(e) for e in w.letters])
    states = {0: 1}
    for letter in w.letters[r:] + w.letters[:r]:
        i = abs(letter)
        move = moves[i]
        acc = states.copy() if letter > 0 else {s: v << k2 for s, v in states.items()}
        get = acc.get
        for s, v in states.items():
            t = move[s]
            if t is None:
                t = cup_cap(s, i)
            if t < 0:
                acc[s] -= v + (v << k2)
            else:
                acc[t] = get(t, 0) + (v << k)
        states = acc

    loops = table.loops
    by_loops = [0] * (n + 1)
    for s, v in states.items():
        by_loops[loops[s]] += v
    loop = -1 - (1 << 2 * k)
    packed = sum(v * loop ** (L - 1) << (n - L) * k for L, v in enumerate(by_loops) if v)

    writhe = 2 * sum(e > 0 for e in w.letters) - c
    offset = 4 * writhe - 2 * c - 2 * (n - 1)
    sign = -1 if writhe % 2 else 1
    u = unpack(packed, k, 0)
    quarters = [0] * (2 * len(u.coeffs) - 1)
    quarters[::2] = [sign * d for d in u.coeffs]
    return LaurentPoly.from_digits(2 * u.low + offset, quarters)


def jones(w: BraidWord, guard: int = DEFAULT_JONES_GUARD, twists: int = 0) -> LaurentPoly | None:
    """Jones polynomial of the closure of Delta^(2 twists) w, in quarter powers of t.

    Exponent k encodes t^(k/4); knots land on multiples of 4.  Absent (None)
    when the braid as given, not its reduction, has more than guard letters:
    len(w) + twists n(n-1), counted before any twist letter is written.

    Closure.jones reduces the word by braid.closure_pieces, and the state sum
    (_state_sum) runs on each piece that has letters.  V is an invariant of
    the closure's link type, and no move changes that type.  A cancellation
    of sigma_g^e against sigma_g^-e across letters that commute with sigma_g
    changes the braid only by a conjugation (if it runs across the ends of
    the word) and a free cancellation.  A destabilization is Markov's move,
    after a conjugation by Delta at the bottom of a piece; both keep the
    closure.  A split writes the closure as the split union of the pieces'
    closures, and V(L1 u L2) = -(t^(1/2) + t^(-1/2)) V(L1) V(L2), so V is the
    product of the pieces' values times that split factor once per piece
    past the first.  A piece of one strand and no letters is an unknot,
    V = 1, so the empty word on n strands gets (-t^(1/2) - t^(-1/2))^(n-1).
    """
    return Closure(w, twists, guard).jones


# -- braid index and the lazy closure ------------------------------------------


def _braid_index(rest: BraidWord, twists: int) -> int | None:
    """Braid index of Delta^(2 twists) rest, rest positive, by the full-twist criterion, else None.

    Franks and Williams (Trans. AMS 1987): a positive n-strand braid
    containing Delta^2 closes to a link of braid index exactly n; without a
    full twist the criterion says nothing, so the result is None, not a bound.
    Literal twist first, then the infimum: Delta^2 is central, so a literal
    block anywhere in a word A Delta^2 B gives Delta^2 A B, which settles
    every sweep word and torus braid without a normal form.  Otherwise the
    Garside infimum decides (infimum >= 2), since Delta^2 can be hidden by
    braid relations, e.g. (sigma_2 sigma_1)^3 on 3 strands.  One strand
    closes to an unknot, of braid index 1.

    Crossing pre-check.  Positive words of one braid are joined by positive
    relations, as B_n+ embeds in B_n (Garside), and a relation keeps how often
    each pair of strands (labelled at the top) crosses: both sides permute the
    strands alike, sigma_i sigma_j = sigma_j sigma_i crosses the same two
    disjoint pairs and sigma_i sigma_(i+1) sigma_i = sigma_(i+1) sigma_i
    sigma_(i+1) each pair of its three strands once.  Delta^2 is pure and
    crosses every pair twice, so rest = Delta^2 u with u positive crosses
    every pair at least twice: one pass that finds a pair crossing fewer
    times rules out infimum >= 2, with no normal form.
    """
    n = rest.strands
    if n == 1 or twists >= 1:
        return n
    at, once, twice = list(range(n)), set(), set()
    for i in rest.letters:
        a, b = at[i - 1], at[i]
        at[i - 1], at[i] = b, a
        pair = a * n + b if a < b else b * n + a
        (twice if pair in once else once).add(pair)
    if len(twice) == n * (n - 1) // 2 and infimum(rest) >= 2:
        return n
    return None


class _first_read:
    """A field computed on its first read and kept as a plain instance attribute.

    functools.cached_property does the same, but before Python 3.12 it
    computes under one lock for the whole class, so two threads could never
    compute the Jones or Alexander polynomials of two closures at once.  This
    descriptor takes no lock.  It defines only __get__, so once the value is
    in the instance's __dict__, a read finds it there and __get__ is not
    called again.  Two threads that read one closure's field at once may
    both compute it; the engines are exact, so both store the same value.
    """

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class Closure:
    """Invariants of the closure of Delta^(2 twists) rest, the one record of them.

    The fields are components, letters, euler_char, braid_index, alexander
    and jones; euler_char and braid_index are None for a word that is not
    positive, and jones is None when jones_guarded, more letters than guard.
    alexander and jones run their engine on first read, the other fields at
    once and with no twist letter written: Delta^2 is a positive pure braid.
    Both read one reduction, pieces (braid.closure_pieces): jones multiplies
    the pieces' state sums (see jones), and a twist-free alexander reads the
    one piece, which closes to the same link, or is 0 for a split link; with
    a literal twist, alexander reads rest and j as they are.
    """

    def __init__(self, rest: BraidWord, twists: int, guard: int):
        n = rest.strands
        self.rest, self.twists, self.guard = rest, twists, guard
        self.components = rest.component_count()
        self.letters = twists * n * (n - 1) + len(rest.letters)
        self.jones_guarded = self.letters > guard  # so jones is None
        positive = rest.is_positive
        self.euler_char = n - self.letters if positive else None
        self.braid_index = _braid_index(rest, twists) if positive else None

    @_first_read
    def pieces(self) -> tuple[BraidWord, ...]:
        """braid.closure_pieces of Delta^(2 twists) rest, the twists written out."""
        n = self.rest.strands
        return closure_pieces(BraidWord(n, tuple(range(1, n)) * (n * self.twists) + self.rest.letters))

    @_first_read
    def alexander(self) -> LaurentPoly:
        if self.twists:
            return alexander(self.rest, self.twists)
        return alexander(self.pieces[0]) if len(self.pieces) == 1 else LaurentPoly.zero()

    @_first_read
    def jones(self) -> LaurentPoly | None:
        if self.jones_guarded:
            return None
        sums = [_state_sum(piece) for piece in self.pieces if piece.letters]
        return prod(sums + [_SPLIT_FACTOR] * (len(self.pieces) - 1), start=LaurentPoly.one())

    def bundle(self) -> Closure:
        """This closure, its Alexander and Jones polynomials computed now."""
        _ = self.alexander, self.jones
        return self


def syllable_closure(p: Presentation, guard: int) -> Closure:
    """The lazy closure of prefix (sigma_1...sigma_{n-1})^exponent on n strands, split by divmod.

    (sigma_1...sigma_{n-1})^n = Delta^2, which is central, so the braid is
    Delta^(2 floor(exponent/n)) prefix (sigma_1...sigma_{n-1})^(exponent mod n)
    (Presentation.split), and the twists are never written out.  Every braid
    built from parameters ends in such a syllable (braid.Presentation):
    T-links, sweep presentations and torus references (at n = 1 the syllable
    is empty).  On those braids the split equals that of
    braid.split_full_twists on the written-out word, which the tests check.
    """
    twists, rest = p.split()
    return Closure(rest, twists, guard)


def closure(w: BraidWord, guard: int = DEFAULT_JONES_GUARD) -> Closure:
    """The lazy closure of a raw word, on its one split w = Delta^(2j) rest."""
    twists, letters = split_full_twists(w)
    return Closure(BraidWord(w.strands, letters), twists, guard)


def bundle(w: BraidWord, guard: int = DEFAULT_JONES_GUARD) -> Closure:
    """The closure of the word, every invariant computed now (Closure.bundle)."""
    return closure(w, guard).bundle()


@lru_cache(maxsize=None)
def torus_reference(p: int, q: int, guard: int = DEFAULT_JONES_GUARD) -> Closure:
    """Invariants of the torus link T(p, q), computed by self-application.

    The engines run on the standard braid delta^p, delta = sigma_1...sigma_{q-1}
    on q <= p strands (the cheaper presentation), not on closed-form tables,
    which the test suite keeps as a cross-check.  As delta^q = Delta^2, the
    braid is Delta^(2 floor(p/q)) delta^(p mod q) (syllable_closure), and it
    is never written out (at q = 1 both are the empty word).  Alexander and
    Jones are computed on their first read (Closure).

    This is the one cached engine, and it is unbounded.  Its keys are the
    (p, q, guard) candidates of a sweep grid, a small set that every row's
    certificate draws on again, so most calls hit (83% of the p <= 9 sweep).
    It is the only state a streamed sweep keeps, and it grows with the
    torus candidates, not with the rows: 428 entries for the 1064 rows at
    p <= 9, 1786 for the 33,606 rows of (max_p, max_n, max_s) = (11, 3, 3).
    Lazy fields keep each cached entry small: at p <= 9, 373 of the 428
    references are settled by the braid index alone.
    """
    if not 1 <= q <= p:
        raise ValueError("torus reference expects 1 <= q <= p")
    return syllable_closure(Presentation((), q, p), guard)
