"""Braid words and the elementary moves on their closures.

A braid word on n strands is an ordered sequence of nonzero letters e with
1 <= |e| <= n-1; positive e is the generator sigma_e, negative its inverse.
Strand positions are 1-based and letters act left to right; closures join the
bottom of each position to the top of the same position.  This one global
composition convention is shared by every module that consumes braid words.

BraidWord and Presentation are immutable NamedTuples: each equals the plain
tuple of its fields and iterates as one.  A BraidWord checks its letters
when it is made.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import index
from typing import NamedTuple


def integer(value, what: str) -> int:
    """value as an int, read by operator.index.

    int() would truncate 2.9 to 2 and read "3" as 3; operator.index takes
    only integers (and bool), so anything else raises a TypeError naming it.
    """
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


class _BraidWordFields(NamedTuple):
    strands: int
    letters: tuple[int, ...]


class BraidWord(_BraidWordFields):
    """A word in the braid group on `strands` strands.

    An immutable NamedTuple, checked when it is made: it equals the plain
    tuple (strands, letters) and iterates as one, but len() counts its
    letters.  NamedTuple's _make and _replace call len(), so they are not
    used on a BraidWord.
    """

    __slots__ = ()

    def __new__(cls, strands: int, letters: tuple[int, ...]):
        strands = integer(strands, "strand count")
        if strands < 1:
            raise ValueError("strand count must be at least 1")
        letters = tuple(letters)
        # max, min, `in` and sum run at C speed, and a sum of ints is an int
        # (2.0 makes it a float); the letters are walked only to name the
        # first bad one
        top = strands - 1
        if letters and (
            max(letters) > top or min(letters) < -top or 0 in letters or type(sum(letters)) is not int
        ):
            for pos, e in enumerate(letters):
                if integer(e, f"letter at index {pos}") == 0 or abs(e) > top:
                    raise ValueError(
                        f"letter {e} at index {pos} out of range for {strands} strands"
                    )
        return tuple.__new__(cls, (strands, letters))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_positive(self) -> bool:
        return not self.letters or min(self.letters) > 0

    def component_count(self) -> int:
        """Number of link components of the closure: the cycles of the strand permutation.

        labels[j] is the top strand that arrives at bottom slot j (0-based).
        Each letter swaps two neighbouring labels, so the labels stay a
        permutation of 0..n-1, and the closure joins slot j to strand j: one
        component per cycle.  Each cycle is walked once, its labels
        overwritten with -1 as it goes.
        """
        labels = list(range(self.strands))
        for e in self.letters:
            i = abs(e)
            labels[i - 1], labels[i] = labels[i], labels[i - 1]
        count = 0
        for start in range(self.strands):
            if labels[start] >= 0:
                count += 1
                j = start
                while labels[j] >= 0:
                    labels[j], j = -1, labels[j]
        return count

    def __str__(self) -> str:
        return braid_text(self)


def _cancel_pass(letters: list[int]) -> bool:
    """One left-to-right scan of the cyclic word, deleting in place.

    A letter whose first non-commuting successor is its inverse is deleted
    with it, and the scan resumes at the nearest earlier letter that does not
    commute with the pair, the one whose successor may now be an inverse, so
    a cascade such as 1, 4, 2, -2, -1 cancels in one scan.  True if
    anything was deleted.
    """
    deleted, i = False, 0
    while i < len(letters):
        e, m = letters[i], len(letters)
        g, j = abs(e), i
        # the first letter after e, cyclically, that does not commute with it
        for k in range(i + 1, i + m):
            if -2 < abs(letters[k % m]) - g < 2:
                j = k % m
                break
        if letters[j] == -e:
            del letters[max(i, j)], letters[min(i, j)]
            deleted, i = True, i - 1 - (j < i)  # the letter before e, renumbered
            while i > 0 and not -2 < abs(letters[i]) - g < 2:
                i -= 1
            i = max(i, 0)
        else:
            i += 1
    return deleted


def closure_pieces(w: BraidWord) -> tuple[BraidWord, ...]:
    """Reduced words whose closures, side by side, form the closure of w.

    The pieces come in the order of their strands, strand 1 first; a 1-strand
    piece with no letters is an unknot.  Three exact moves are applied until none applies;
    each deletes letters from the cyclic word in place.  Rotating a word is a
    conjugation, so deleting in place is the move made at one end of a
    rotation, followed by rotating back.

    * Cancellation: sigma_g^e and sigma_g^-e cancel when every letter between
      them on one side, going round the cyclic word, commutes with sigma_g,
      that is has |f| outside {g-1, g, g+1}.
    * Destabilization: a generator g with one letter left, the highest of
      its piece (g + 1 has none), is Markov's destabilization: its one
      letter is deleted in place from the list of letters, as the last
      letter of a rotation (see above), and the piece loses its top strand.
      The lowest of its piece (g - 1 has none) is the same move after
      conjugating the piece by Delta, which relabels i as n - i.
    * Split: a generator with no letters left, not destabilized, separates
      the strands below it from those above, so the closure is their split
      union.  Each piece keeps its letters, relabelled from 1.

    The moves run to a fixpoint on one list of letters.  Cancellation scans
    (_cancel_pass) repeat until a scan deletes nothing: then no letter's
    first non-commuting successor is its inverse, so no pair cancels on
    either side.  Then the letters are counted per generator, the lowest
    generator that can be destabilized loses its one letter, and the scans
    run again, until neither move applies.  The generators left with no
    letters, other than the destabilized ones, are the splits.

    Cost.  A scan walks from each letter past the letters that commute with
    it, so it is at most quadratic, and each round but the last deletes
    letters.  After a deletion the scan resumes at the nearest earlier letter
    that does not commute with the deleted pair, so a cascade of
    cancellations separated by far-commuting letters takes one scan, not one
    per pair.  The state sum that jones runs next costs far more: the 400
    guarded words of the benchmark's seed 0 reduce in about 12-20 ms in all,
    and the nested word of 5044 letters (sigma_1 ... sigma_97 sigma_97^-1
    ... sigma_1^-1 on 100 strands, sigma_99^25 after each letter) in two
    scans and about 0.03 s, where the state sum on what is left takes a minute.
    """
    n, letters = w.strands, list(w.letters)
    destabilized = [False] * (n + 1)
    # a pair cancels only if its generator occurs with both signs, and the
    # moves only delete letters, so a word with no such generator (a
    # positive word, say) needs no scan
    occurring = set(letters)
    cancels = any(-e in occurring for e in occurring)
    while True:
        while cancels and _cancel_pass(letters):
            pass
        count = [0] * (n + 1)  # letters per generator; 0 and n stay empty
        for e in letters:
            count[abs(e)] += 1
        # count[0] and count[n] are 0, so g + 1 <= n is read only for 1 <= g < n
        g = next(
            (g for g in range(1, n) if count[g] == 1 and not (count[g - 1] and count[g + 1])), 0
        )
        if not g:
            break
        destabilized[g] = True
        letters.remove(g if g in letters else -g)
    if len(letters) == len(w.letters) and all(count[1:n]):
        return (w,)  # no move applied: one piece, the word itself

    strands, low, piece_of = [1], [0], [0] * n
    for g in range(1, n):
        if count[g]:
            low[-1] = low[-1] or g
            strands[-1] += 1
            piece_of[g] = len(strands) - 1
        elif not destabilized[g]:
            strands.append(1)
            low.append(0)
    pieces: list[list[int]] = [[] for _ in strands]
    for e in letters:
        p = piece_of[abs(e)]
        pieces[p].append(e - low[p] + 1 if e > 0 else e + low[p] - 1)
    return tuple(BraidWord(s, tuple(ws)) for s, ws in zip(strands, pieces))


def syllables(pairs) -> tuple[int, ...]:
    """Letters of the syllables (sigma_1...sigma_{r-1})^s, one per pair (r, s), in order."""
    return tuple(chain.from_iterable(tuple(range(1, r)) * s for r, s in pairs))


class Presentation(NamedTuple):
    """The braid prefix (sigma_1...sigma_{strands-1})^exponent on strands strands.

    Every braid built from parameters ends in a syllable that spans all its
    strands: the standard braid of a T-link, whose last pair is (r_k, s_k);
    each strand-absorption step, (p - j, q), merged into the twist block at
    the last step (tlink); and the torus braid delta^p, (q, p).  As
    (sigma_1...sigma_{n-1})^n = Delta^2, the syllable splits by divmod into
    floor(exponent / n) full twists and what is left (split, which
    invariants.syllable_closure reads), with no twist letter written.
    """

    prefix: tuple[int, ...]
    strands: int
    exponent: int

    def word(self) -> BraidWord:
        """The braid written out letter by letter."""
        return BraidWord(self.strands, self.prefix + syllables([(self.strands, self.exponent)]))

    def split(self) -> tuple[int, BraidWord]:
        """(j, rest) with the braid equal to Delta^(2j) rest, j = floor(exponent / strands).

        Delta^2 is central, so the j full twists come apart from the prefix
        and the exponent mod strands letters left of the syllable; no twist
        letter is written.
        """
        twists, r = divmod(self.exponent, self.strands)
        return twists, self._replace(exponent=r).word()


def split_full_twists(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """(j, rest): the literal full twists of a raw word w removed, j of them.

    Only words given letter by letter (`n=K:` input, bundle) are scanned.  A
    braid built from parameters ends in a syllable on all its strands and is
    split by divmod instead (invariants.syllable_closure); on those braids
    both give the same (j, rest), which the tests check.

    The full twist Delta^2 = (sigma_1...sigma_{n-1})^n is central, so
    w = A Delta^2 B equals Delta^2 A B.  Scanning left to right, each literal
    block (1, ..., n-1) * n that does not overlap an earlier one is removed;
    w equals Delta^(2j) times the braid of the remaining letters.  Inverse
    letters are kept as they are.  Candidate starts are found with
    tuple.index, so the scan runs at C speed between occurrences of sigma_1.
    """
    n, letters = w.strands, w.letters
    size = n * (n - 1)
    if n < 2 or len(letters) < size:
        return 0, letters
    run = tuple(range(1, n))
    block = run * n
    kept: list[tuple[int, ...]] = []  # the letters before each block
    last = start = 0
    stop = len(letters) - size + 1  # a block must start before stop
    try:
        while True:
            start = letters.index(1, start, stop)
            # the short first test spares most candidates a block-sized slice
            if letters[start : start + n - 1] == run and letters[start : start + size] == block:
                kept.append(letters[last:start])
                start = last = start + size
            else:
                start += 1
    except ValueError:
        pass
    j = len(kept)
    if not j:
        return 0, letters
    return j, tuple(chain.from_iterable(kept + [letters[last:]]))


def braid_text(w: BraidWord) -> str:
    """Wire format "n=K: e1,e2,..."."""
    if not w.letters:
        return f"n={w.strands}:"
    return f"n={w.strands}: " + ",".join(str(e) for e in w.letters)


# what int() reads, less other decimal digits and underscores ("1_0")
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def parse_braid_text(text: str) -> BraidWord:
    """Parse the "n=K: e1,e2,..." format; an empty letter list is allowed.

    Numbers are ASCII integers.  int() alone would also read other decimal
    digits and underscores ("n=1_0" as 10 strands), so the whole text is
    checked for both at C speed first, and a good word is then converted by
    one map(int, ...).  On a failure, the first token that _INTEGER does not
    match is named with its index, not the whole list; the tokens are the
    whole text but "n=", ":" and ",", so a text that fails has one, unless
    int() failed on a number of more digits than it converts.  A text with
    no "n=K:" head is quoted by its first 20 characters.
    """
    head, sep, tail = text.partition(":")
    if not sep or not head.strip().startswith("n="):
        raise ValueError(f"expected 'n=K: letters' at the start of {text[:20]!r}")
    tokens = [head.replace("n=", "", 1)] + tail.split(",")
    try:
        if not text.isascii() or "_" in text:
            raise ValueError("not ASCII, or an underscore")
        n = int(tokens[0])
        letters = tuple(map(int, tokens[1:])) if tail.strip() else ()
    except ValueError:
        i = next((i for i, token in enumerate(tokens) if not _INTEGER.fullmatch(token)), None)
        if i is None:
            raise  # int()'s own error on too many digits
        bad = tokens[i].strip(" ")
        name = f"letter {bad!r} at index {i - 1}" if i else f"strand count {bad!r}"
        raise ValueError(f"bad {name}") from None
    return BraidWord(n, letters)
