"""Braid words and the elementary moves on their closures.

A braid word on n strands is an ordered sequence of nonzero letters e with
1 <= |e| <= n-1; positive e is the generator sigma_e, negative its inverse.
Strand positions are 1-based and letters act left to right; closures join the
bottom of each position to the top of the same position.  This one global
composition convention is shared by every module that consumes braid words.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple (images[i-1] = image of i)."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        seen = [False] * self.size
        out = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cyc = []
            j = start
            while not seen[j - 1]:
                seen[j - 1] = True
                cyc.append(j)
                j = self.images[j - 1]
            out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        return len(self.cycles())

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))


class LetterStats(NamedTuple):
    positive: int
    negative: int
    exponent_sum: int


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on `strands` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be at least 1")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        # max, min and `in` run at C speed; the letters are walked only to
        # name the first bad one
        top = self.strands - 1
        if letters and (max(letters) > top or min(letters) < -top or 0 in letters):
            for pos, e in enumerate(letters):
                if e == 0 or abs(e) > top:
                    raise ValueError(
                        f"letter {e} at index {pos} out of range for {self.strands} strands"
                    )

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_positive(self) -> bool:
        return not self.letters or min(self.letters) > 0

    def letter_stats(self) -> LetterStats:
        pos = sum(1 for e in self.letters if e > 0)
        neg = len(self.letters) - pos
        return LetterStats(pos, neg, sum(1 if e > 0 else -1 for e in self.letters))

    def permutation(self) -> Permutation:
        """Bottom-position labelling: images[j-1] = top strand arriving at slot j."""
        labels = list(range(1, self.strands + 1))
        for e in self.letters:
            i = abs(e)
            labels[i - 1], labels[i] = labels[i], labels[i - 1]
        return Permutation(tuple(labels))

    def component_count(self) -> int:
        """Number of link components of the closure."""
        return self.permutation().cycle_count()

    def concat(self, other: "BraidWord") -> "BraidWord":
        if other.strands != self.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return self.concat(other)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-e for e in reversed(self.letters)))

    def conjugated_by(self, g: "BraidWord") -> "BraidWord":
        """g^-1 * self * g; the closure's link type is unchanged."""
        if g.strands != self.strands:
            raise ValueError("strand counts differ")
        return g.inverse().concat(self).concat(g)

    def stabilized(self) -> "BraidWord":
        """Markov stabilization: same closure on one more strand."""
        return BraidWord(self.strands + 1, self.letters + (self.strands,))

    def destabilized(self) -> "BraidWord":
        """Markov destabilization.

        Requires sigma_{n-1}^{+-1} to occur exactly once; rotates the word
        cyclically (a conjugation, harmless to the closure) to bring that
        letter last, deletes it, and drops to n-1 strands.
        """
        top = self.strands - 1
        if top < 1:
            raise ValueError("cannot destabilize a 1-strand braid")
        hits = [i for i, e in enumerate(self.letters) if abs(e) == top]
        if len(hits) != 1:
            raise ValueError(
                f"sigma_{top} must occur exactly once, found {len(hits)} occurrences"
            )
        i = hits[0]
        rotated = self.letters[i + 1 :] + self.letters[:i]
        return BraidWord(self.strands - 1, rotated)

    def __str__(self) -> str:
        return braid_text(self)


def torus_braid(p: int, q: int) -> BraidWord:
    """The standard braid (sigma_1...sigma_{q-1})^p of T(p,q) on q strands."""
    if q < 1 or p < 1:
        raise ValueError("torus parameters must be positive")
    run = tuple(range(1, q))
    return BraidWord(q, run * p)


def split_full_twists(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """(j, rest): the literal full twists of w removed, j of them.

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


def parse_braid_text(text: str) -> BraidWord:
    """Parse the "n=K: e1,e2,..." format; an empty letter list is allowed."""
    head, sep, tail = text.partition(":")
    head = head.strip()
    if not sep or not head.startswith("n="):
        raise ValueError(f"expected 'n=K: letters', got {text!r}")
    try:
        n = int(head[2:])
    except ValueError:
        raise ValueError(f"bad strand count in {head!r}") from None
    tail = tail.strip()
    if not tail:
        return BraidWord(n, ())
    try:
        letters = tuple(int(part.strip()) for part in tail.split(","))
    except ValueError:
        raise ValueError(f"bad letter list in {tail!r}") from None
    return BraidWord(n, letters)
