"""T-link parameters, their standard braids, and the braid-level procedures.

A T-link T((r_1,s_1),...,(r_k,s_k)) with 2 <= r_1 < ... < r_k and s_i >= 1 is
the closure of the positive braid

    (sigma_1...sigma_{r_1-1})^{s_1} ... (sigma_1...sigma_{r_k-1})^{s_k}

on r_k strands.  The constrained shape handled by the classifier keeps full
twists on a_1 < ... < a_n strands in front of a torus base (p, q): pairs
(a_i, s_i*a_i) followed by (p, q) with 1 < q < p, a_i != q and a_n < p.

Every braid built here from parameters ends in a syllable
(sigma_1...sigma_{n-1})^s on all its n strands (braid.Presentation), so its
full twists split off by divmod and are never written out.

Three procedures operate on these words:

* strand absorption: for q < a_n, pull the strand that travels once around
  the closure into the twisted block, one strand at a time, producing the
  steps from the p-strand standard presentation down to an a_n-strand one;
* the base flip: for a_n < q, exchange the torus base (p, q) for (q, p),
  giving an equivalent T-link presented on q strands;
* Markov reduction: trailing exponent-1 syllables collapse into the previous
  pair, destabilizing the closure presentation without changing the link.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .braid import Presentation, integer, syllables


class TLinkParseError(ValueError):
    """Parse failure with the byte offset of the offending input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class TLinkSpec:
    """Parameter pairs (r_i, s_i) of a T-link."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((integer(r, "r"), integer(s, "s")) for r, s in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if not self.pairs:
            raise ValueError("a T-link needs at least one pair")
        if self.pairs[0][0] < 2:
            raise ValueError("r-values must be at least 2")
        for (r1, _), (r2, _) in zip(self.pairs, self.pairs[1:]):
            if r2 <= r1:
                raise ValueError("r-values must be strictly increasing")
        if any(s < 1 for _, s in self.pairs):
            raise ValueError("s-values must be at least 1")

    @property
    def strands(self) -> int:
        return self.pairs[-1][0]

    def __str__(self) -> str:
        return render_tlink(self)


@dataclass(frozen=True)
class FullTwistForm:
    """Full twists on a_1 < ... < a_n strands over a torus base (p, q)."""

    twist_pairs: tuple[tuple[int, int], ...]
    base: tuple[int, int]

    def __post_init__(self):
        pairs = tuple((integer(a, "a"), integer(s, "s")) for a, s in self.twist_pairs)
        object.__setattr__(self, "twist_pairs", pairs)
        object.__setattr__(self, "base", (integer(self.base[0], "p"), integer(self.base[1], "q")))
        p, q = self.base
        if not self.twist_pairs:
            raise ValueError("at least one twist pair is required")
        if not 1 < q < p:
            raise ValueError(f"base requires 1 < q < p, got (p, q) = ({p}, {q})")
        a_values = [a for a, _ in self.twist_pairs]
        if a_values[0] <= 1:
            raise ValueError("twist strand counts must exceed 1")
        if any(a2 <= a1 for a1, a2 in zip(a_values, a_values[1:])):
            raise ValueError("twist strand counts must be strictly increasing")
        if a_values[-1] >= p:
            raise ValueError("twist strand counts must stay below p")
        if any(a == q for a in a_values):
            raise ValueError(f"twist strand count equal to q = {q} is not supported")
        if any(s < 1 for _, s in self.twist_pairs):
            raise ValueError("twist counts must be at least 1")

    @property
    def n(self) -> int:
        return len(self.twist_pairs)

    @property
    def p(self) -> int:
        return self.base[0]

    @property
    def q(self) -> int:
        return self.base[1]

    @property
    def a_max(self) -> int:
        return self.twist_pairs[-1][0]

    def spec(self) -> TLinkSpec:
        """The same link as a generic T-link parameter list."""
        return TLinkSpec(tuple((a, s * a) for a, s in self.twist_pairs) + (self.base,))


def standard_presentation(spec: TLinkSpec) -> Presentation:
    """The defining positive braid of the T-link, on r_k strands, as a Presentation."""
    *head, (n, s) = spec.pairs
    return Presentation(syllables(head), n, s)


def to_full_twist_form(spec: TLinkSpec) -> FullTwistForm | None:
    """Recognize the full-twist shape; None signals "not of that form".

    Every non-final pair must be a whole number of full twists (r | s) and
    the resulting parameters must satisfy the constraint block, including the
    standing assumption a_i != q.  Generic specs reach the classifier, the
    rewrite and the invariants through reduce_tlink, the single gateway,
    which calls this after Markov reduction.
    """
    if len(spec.pairs) < 2:
        return None
    twists = []
    for r, s in spec.pairs[:-1]:
        if s % r != 0:
            return None
        twists.append((r, s // r))
    try:
        return FullTwistForm(tuple(twists), spec.pairs[-1])
    except ValueError:
        return None


def flip_base(form: FullTwistForm) -> TLinkSpec:
    """Exchange the torus base (p, q) for (q, p); requires a_n < q.

    The flipped T-link T((a_1,s_1a_1),...,(a_n,s_na_n),(q,p)) is equivalent
    to the original and is presented on q < p strands, where its trailing
    syllable exponent p > q supplies a full twist.
    """
    if form.a_max > form.q:
        raise ValueError(
            f"flip requires a_n < q, got a_n = {form.a_max} > q = {form.q}"
        )
    return TLinkSpec(form.spec().pairs[:-1] + ((form.q, form.p),))


def absorb_strands(form: FullTwistForm) -> tuple[Presentation, ...]:
    """The steps of the strand absorption for q < a_n < p, step j on p - j strands.

    Step j (0 <= j <= p - a_n) is the braid on p - j strands

        (sigma_{a_n-1}...sigma_{a_n-q+1})^j
        (sigma_1...sigma_{a_1-1})^{s_1 a_1} ... (sigma_1...sigma_{a_n-1})^{s_n a_n}
        (sigma_1...sigma_{p-1-j})^q.

    Each absorption pulls the strand that goes once around the closure into
    the twisted block, trading one strand and one crossing; the closure's
    link type is unchanged, which callers verify through invariants.  The
    last step merges the leftover base syllable into the a_n-strand block,
    whose exponent becomes s_n a_n + q > a_n, so the final braid carries a
    full twist on a_n strands.

    Each step is a Presentation, its base syllable (p - j, q) or, at the
    last step, (a_n, s_n a_n + q) kept as parameters: a step is written out
    only when a caller reads its letters (Presentation.word()).
    """
    p, q = form.base
    *head, (a, s) = ((r, t * r) for r, t in form.twist_pairs)
    if not q < a:
        raise ValueError(f"absorption requires q < a_n, got q = {q}, a_n = {a}")
    block = tuple(range(a - 1, a - q, -1))
    twists = syllables(head)
    written = twists + syllables([(a, s)])
    steps = tuple(Presentation(block * j + written, p - j, q) for j in range(p - a))
    return steps + (Presentation(block * (p - a) + twists, a, s + q),)


def presentation(form: FullTwistForm) -> Presentation:
    """The presentation a certificate reads, following the theorem's own reductions.

    The standard word on p strands rarely exhibits a full twist, so the
    braid-index criterion would sit idle.  The final absorption step
    (q < a_n) ends in the syllable (a_n, s_n a_n + q) and the base flip
    (a_n < q) in (q, p); either exponent exceeds the strand count, so the
    closure carries a full twist.  FullTwistForm rejects a_n = q, so one of
    the two applies.  Either way the result is a Presentation, so its full
    twists split off by divmod and no step of the absorption is written out.
    """
    if form.q < form.a_max:
        return absorb_strands(form)[-1]
    return standard_presentation(flip_base(form))


def markov_reduce(spec: TLinkSpec) -> TLinkSpec:
    """Collapse trailing exponent-1 syllables.

    While the final pair is (r_k, 1) and a preceding pair exists, the braid
    destabilizes from r_k down to r_{k-1} strands and the dangling ascending
    run merges into the previous syllable:

        (..., (r_{k-1}, s_{k-1}), (r_k, 1))  ->  (..., (r_{k-1}, s_{k-1} + 1)).

    Identity when no reduction applies.
    """
    pairs = list(spec.pairs)
    while len(pairs) >= 2 and pairs[-1][1] == 1:
        pairs.pop()
        r, s = pairs[-1]
        pairs[-1] = (r, s + 1)
    return TLinkSpec(tuple(pairs))


def reduce_tlink(spec: TLinkSpec) -> tuple[TLinkSpec, FullTwistForm | None]:
    """The Markov-reduced spec and its full-twist form, None outside that shape.

    The one road from a generic T-link to the classifier (classify_spec),
    the rewrite and the invariants of `tlinks`: a spec with a form is
    computed on presentation(form), the closure its sweep row certifies.
    """
    reduced = markov_reduce(spec)
    return reduced, to_full_twist_form(reduced)


# -- the T((r,s),...) expression grammar -------------------------------------


def render_tlink(spec: TLinkSpec) -> str:
    inner = ",".join(f"({r},{s})" for r, s in spec.pairs)
    return f"T({inner})"


_TOKEN = re.compile(r"[ \t\r\n]*([0-9]+|.|$)")


def parse_tlink(text: str) -> TLinkSpec:
    """Parse `T((r1,s1),(r2,s2),...)`; errors carry byte offsets.

    The input is read as tokens: a run of ASCII digits, one other character,
    or "" at the end, each after optional whitespace.  An error is raised at
    the offending token, and every token before it is ASCII, so its character
    index is its byte offset.  Constraint violations (r-values not strictly
    increasing, zero s-values) and numbers of more digits than int() converts
    (sys.get_int_max_str_digits) are reported at the offending number.
    """
    tokens = ((m[1], m.start(1)) for m in _TOKEN.finditer(text))

    def expect(want: str, read: tuple[str, int] | None = None) -> None:
        token, at = read or next(tokens)
        if token != want:
            # a run of digits is reported by its first digit
            raise TLinkParseError(f"expected {want!r}, found {token[:1] or 'end of input'!r}", at)

    def integer() -> tuple[int, int]:
        token, at = next(tokens)
        if not (token.isascii() and token.isdigit()):
            raise TLinkParseError("expected an unsigned integer", at)
        try:
            return int(token), at
        except ValueError:  # more digits than the interpreter converts
            raise TLinkParseError(f"integer of {len(token)} digits is too long", at) from None

    token, at = next(tokens)
    if token != "T":
        raise TLinkParseError("expected 'T'", at)
    expect("(")
    pairs: list[tuple[int, int]] = []
    positions: list[int] = []
    token = ","
    while token == ",":
        expect("(")
        r, r_at = integer()
        expect(",")
        s, s_at = integer()
        expect(")")
        if s < 1:
            raise TLinkParseError("s-values must be at least 1", s_at)
        pairs.append((r, s))
        positions.append(r_at)
        token, at = next(tokens)
    expect(")", (token, at))
    token, at = next(tokens)
    if token:
        raise TLinkParseError("trailing input after T-link expression", at)
    if pairs[0][0] < 2:
        raise TLinkParseError("r-values must be at least 2", positions[0])
    for i in range(1, len(pairs)):
        if pairs[i][0] <= pairs[i - 1][0]:
            raise TLinkParseError("r-values must be strictly increasing", positions[i])
    return TLinkSpec(tuple(pairs))
