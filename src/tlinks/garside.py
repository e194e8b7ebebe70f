"""Garside left-weighted normal form for positive braid words.

A positive braid factors uniquely as Delta^inf * A_1 ... A_m where Delta is
the positive half twist, each A_i is a permutation braid (a positive word in
which every pair of strands crosses at most once, hence identified with a
permutation) and every adjacent pair is left-weighted: the starting set of
the right factor is contained in the finishing set of the left factor.  Equal
positive words get identical normal forms, which settles the word problem and
makes "contains a full twist" decidable as infimum >= 2 (the braid-index
criterion in invariants reads it when a word has no literal full twist).

The form is built incrementally (El-Rifai & Morton 1994, "Algorithms for
positive braids"; Epstein et al., *Word Processing in Groups*, ch. 9): the
word is split greedily into permutation braids and the form is multiplied on
the right by one of them at a time, with one right-to-left pass.

Factors are 1-based image tuples f, f[i-1] = image of position i.  Inside
normal_form permutations are 0-based image lists p with p[i] = image of
position i, composed in diagram order (left word acts first), each kept with
its inverse list so that moving one generator costs O(1).  The result, a
NormalForm, is an immutable NamedTuple (strands, infimum, factors).
"""

from __future__ import annotations

from typing import NamedTuple

from .braid import BraidWord


def _times(p: list[int], inv: list[int], g: int) -> None:
    """p <- p * sigma_g in place: exchange the values g-1 and g (and their inverse entries)."""
    x, y = inv[g - 1], inv[g]
    p[x], p[y] = g, g - 1
    inv[g - 1], inv[g] = y, x


def _left_weight(a: list[int], ai: list[int], b: list[int], bi: list[int]) -> bool:
    """Left-weight the pair (a, b) in place; True when a grew.

    While some g is in the starting set of b and not in the finishing set of
    a, sigma_g slides from the head of b onto the tail of a: a <- a * sigma_g
    and b <- sigma_g^-1 * b.  A move at
    g changes only the descents at g-1, g and g+1, so the scan steps back one
    place after each move.
    """
    n = len(a)
    grew = False
    g = 1
    while g < n:
        u, v = b[g - 1], b[g]
        if u > v and ai[g - 1] < ai[g]:
            _times(a, ai, g)
            b[g - 1], b[g] = v, u
            bi[u], bi[v] = g, g - 1
            grew = True
            if g > 1:
                g -= 1
        else:
            g += 1
    return grew


class NormalForm(NamedTuple):
    """Left-weighted factorization Delta^infimum * factors of a positive word."""

    strands: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    def canonical_length(self) -> int:
        return len(self.factors)


def normal_form(w: BraidWord) -> NormalForm:
    """Left-weighted normal form of a positive word.

    The letters are split greedily into permutation braids: sigma_g joins the
    last factor while g is not in its finishing set.  Each finished factor B
    multiplies the normal form A_1 ... A_k on the right: B is appended, then
    the pairs (A_k, B), (A_{k-1}, A_k'), ... are left-weighted from right to
    left.  Left-weighting a pair moves letters from the head of its right
    factor onto its left factor, and by the domino rule for greedy normal
    forms the pair to its right, left-weighted one step earlier, stays so.
    When a left factor does not grow, the pairs to its left are those of the
    old normal form, so every adjacent pair is left-weighted and the pass
    stops.  Only trailing factors can be absorbed completely; they are dropped.
    """
    if not w.is_positive:
        raise ValueError("normal form is defined here for positive words only")
    n = w.strands
    if n == 1 or not w.letters:
        return NormalForm(n, 0, ())

    ident = list(range(n))
    perms: list[list[int]] = []
    invs: list[list[int]] = []

    def push(p: list[int], inv: list[int]) -> None:
        perms.append(p)
        invs.append(inv)
        for i in range(len(perms) - 2, -1, -1):
            if not _left_weight(perms[i], invs[i], perms[i + 1], invs[i + 1]):
                break
        while perms[-1] == ident:
            perms.pop()
            invs.pop()

    p, inv = ident[:], ident[:]
    for g in w.letters:
        if inv[g - 1] > inv[g]:
            push(p, inv)
            p, inv = ident[:], ident[:]
        _times(p, inv, g)
    push(p, inv)

    delta = ident[::-1]
    inf = 0
    while inf < len(perms) and perms[inf] == delta:
        inf += 1
    tail = tuple(tuple(i + 1 for i in f) for f in perms[inf:])
    return NormalForm(n, inf, tail)


def infimum(w: BraidWord) -> int:
    """The Delta-power of the normal form, counted in half twists."""
    return normal_form(w).infimum

