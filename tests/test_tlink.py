import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import absorbed_braid, destabilized, dual_spec, standard_braid
from tlinks.braid import BraidWord, split_full_twists
from tlinks.invariants import DEFAULT_JONES_GUARD, alexander, closure, syllable_closure
from tlinks.oracle import enumerate_forms
from tlinks.tlink import (
    FullTwistForm,
    TLinkParseError,
    TLinkSpec,
    absorb_strands,
    flip_base,
    markov_reduce,
    parse_tlink,
    presentation,
    reduce_tlink,
    render_tlink,
    standard_presentation,
    to_full_twist_form,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        TLinkSpec(((5, 2), (3, 3)))
    with pytest.raises(ValueError):
        TLinkSpec(((1, 2),))
    with pytest.raises(ValueError):
        TLinkSpec(((2, 0),))


def test_standard_braid():
    assert standard_braid(TLinkSpec(((2, 3),))) == BraidWord(2, (1, 1, 1))
    w = standard_braid(TLinkSpec(((3, 2), (5, 2))))
    assert w.strands == 5 and len(w.letters) == 12
    assert w.letters == (1, 2, 1, 2, 1, 2, 3, 4, 1, 2, 3, 4)
    assert standard_braid(TLinkSpec(((2, 1),))) == BraidWord(2, (1,))


def test_to_full_twist_form():
    f = to_full_twist_form(TLinkSpec(((3, 3), (5, 2))))
    assert f is not None and f.twist_pairs == ((3, 1),) and f.base == (5, 2)
    assert to_full_twist_form(TLinkSpec(((3, 4), (5, 2)))) is None
    f2 = to_full_twist_form(TLinkSpec(((2, 2), (3, 6), (7, 4))))
    assert f2 is not None and f2.twist_pairs == ((2, 1), (3, 2)) and f2.base == (7, 4)
    # a_i = q is rejected by the constraint block
    assert to_full_twist_form(TLinkSpec(((2, 2), (5, 2)))) is None
    # a single pair is a plain torus link, not the constrained shape
    assert to_full_twist_form(TLinkSpec(((5, 3),))) is None


def test_gateway_round_trip():
    # a form's spec has no trailing exponent-1 pair, so the gateway returns
    # the spec unreduced, with the form it came from
    forms = list(enumerate_forms(11, 3, 3))
    assert len(forms) == 33606
    for form in forms:
        assert reduce_tlink(form.spec()) == (form.spec(), form), form
    spec = TLinkSpec(((3, 3), (5, 1), (6, 1)))
    assert reduce_tlink(spec) == (TLinkSpec(((3, 3), (5, 2))), FullTwistForm(((3, 1),), (5, 2)))
    assert reduce_tlink(TLinkSpec(((2, 3), (5, 1)))) == (TLinkSpec(((2, 4),)), None)


NON_INTEGERS = [
    # int() would read every one of these; the first bad value is named
    (TLinkSpec, (((2.9, 3),),), "r must be an integer, got 2.9"),
    (TLinkSpec, (((2, 3), (5, "2")),), "s must be an integer, got '2'"),
    (FullTwistForm, (((2.5, 1.7),), (5.9, 3.2)), "a must be an integer, got 2.5"),
    (FullTwistForm, (((2, 1.0),), (5, 3)), "s must be an integer, got 1.0"),
    (FullTwistForm, (((2, 1),), (5.9, 3)), "p must be an integer, got 5.9"),
    (FullTwistForm, (((2, 1),), (5, 3.2)), "q must be an integer, got 3.2"),
]


@pytest.mark.parametrize("cls, args, message", NON_INTEGERS)
def test_non_integer_parameters_rejected(cls, args, message):
    with pytest.raises(TypeError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_full_twist_form_validation():
    with pytest.raises(ValueError):
        FullTwistForm(((3, 1),), (5, 1))  # q must exceed 1
    with pytest.raises(ValueError):
        FullTwistForm(((3, 1),), (3, 2))  # a_n < p fails
    with pytest.raises(ValueError):
        FullTwistForm(((2, 1),), (5, 2))  # a_i = q


def test_flip_base():
    spec = flip_base(FullTwistForm(((2, 1),), (7, 5)))
    assert spec.pairs == ((2, 2), (5, 7))
    spec2 = flip_base(FullTwistForm(((2, 1),), (5, 3)))
    assert spec2.pairs == ((2, 2), (3, 5))
    with pytest.raises(ValueError):
        flip_base(FullTwistForm(((3, 1),), (5, 2)))


def test_absorb_strands_trace():
    f = FullTwistForm(((3, 1),), (5, 2))
    steps = [s.word() for s in absorb_strands(f)]
    assert [s.strands for s in steps] == [5, 4, 3]
    assert steps[-1].letters == (2, 2) + (1, 2) * 5
    # one crossing absorbed per strand, so chi is constant along the steps
    assert len({closure(s).euler_char for s in steps}) == 1
    assert len({s.component_count() for s in steps}) == 1
    assert len({alexander(s) for s in steps}) == 1
    with pytest.raises(ValueError):
        absorb_strands(FullTwistForm(((2, 1),), (5, 3)))


def test_absorb_letter_count_identity():
    # q(p-1) + sum s_i a_i (a_i - 1) letters at the start, one fewer per step
    f = FullTwistForm(((2, 1), (4, 2)), (7, 3))
    steps = [s.word() for s in absorb_strands(f)]
    first = len(steps[0].letters)
    assert first == 3 * 6 + 1 * 2 * 1 + 2 * 4 * 3
    for j, step in enumerate(steps):
        assert len(step.letters) == first - j


def test_markov_reduce():
    assert markov_reduce(TLinkSpec(((2, 2), (3, 3), (4, 1)))).pairs == ((2, 2), (3, 4))
    assert markov_reduce(TLinkSpec(((2, 3),))).pairs == ((2, 3),)
    assert markov_reduce(TLinkSpec(((2, 2), (3, 1)))).pairs == ((2, 3),)
    # a merge bumps the new trailing exponent past 1, so one step suffices
    assert markov_reduce(TLinkSpec(((2, 1), (3, 1), (4, 1)))).pairs == ((2, 1), (3, 2))


def test_markov_reduce_is_iterated_destabilization():
    # dropping a trailing (r_k, 1) syllable is exactly r_k - r_{k-1} braid
    # destabilizations of the standard word
    cases = [
        TLinkSpec(((2, 2), (3, 3), (4, 1))),
        TLinkSpec(((2, 2), (5, 1))),
        TLinkSpec(((3, 4), (7, 1))),
    ]
    for spec in cases:
        word = standard_braid(spec)
        target = standard_braid(markov_reduce(spec))
        while word.strands > target.strands:
            word = destabilized(word)
        assert word == target, spec


def _split(p):
    """(twists, rest letters) of a presentation, split by divmod."""
    twists, rest = p.split()
    return twists, rest.letters


def _written(form):
    """The presentation of form, written out by absorbed_braid or by flip_base and standard_braid."""
    if form.q < form.a_max:
        return absorbed_braid(form, form.p - form.a_max)
    return standard_braid(flip_base(form))


def test_presentation_splits_as_its_written_word():
    # the divmod split of the final syllable finds exactly the literal full
    # twists that a scan of the written-out word finds
    for form in enumerate_forms(13, 3, 3):
        assert _split(presentation(form)) == split_full_twists(_written(form)), form
    for form in enumerate_forms(9, 2, 2):
        p = presentation(form)
        assert p.word() == _written(form), form
        assert p.exponent > p.strands  # so the closure carries a full twist


def test_absorption_steps_are_the_written_steps():
    # every step, not only the last one that presentation reads, against the
    # tests' own writer
    forms = [f for f in enumerate_forms(9, 2, 2) if f.q < f.a_max]
    assert len(forms) == 672
    for form in forms:
        steps = absorb_strands(form)
        assert len(steps) == form.p - form.a_max + 1, form
        for j, step in enumerate(steps):
            assert step.word() == absorbed_braid(form, j), (form, j)


def test_syllable_closure_reads_the_split():
    # the closure of a presentation holds the twists and rest of its split
    for form in enumerate_forms(9, 2, 2):
        p = presentation(form)
        c = syllable_closure(p, 0)
        assert (c.twists, c.rest.letters) == _split(p), form


@st.composite
def tlink_specs(draw):
    rs = sorted(draw(st.sets(st.integers(min_value=2, max_value=9), min_size=1, max_size=4)))
    return TLinkSpec(tuple((r, draw(st.integers(min_value=1, max_value=40))) for r in rs))


@settings(max_examples=300, deadline=None)
@given(tlink_specs())
def test_tlink_divmod_split_equals_scan(spec):
    letters = tuple(x for r, s in spec.pairs for _ in range(s) for x in range(1, r))
    assert standard_braid(spec) == standard_presentation(spec).word() == BraidWord(spec.strands, letters)
    assert _split(standard_presentation(spec)) == split_full_twists(standard_braid(spec))


def test_flip_forms_come_in_families():
    # a flip form's rest depends only on (twist pairs, q, p mod q), and it
    # carries floor(p/q) full twists: the family (twist pairs, q, r) has the
    # members p = bq + r with words Delta^(2b) R
    rests: dict = {}
    flips = 0
    for form in enumerate_forms(21, 2, 2):
        if form.q < form.a_max:
            continue
        flips += 1
        twists, rest = _split(presentation(form))
        assert twists == form.p // form.q, form
        key = (form.twist_pairs, form.q, form.p % form.q)
        assert rests.setdefault(key, rest) == rest, form
    assert (flips, len(rests)) == (21660, 19908)


def test_small_traces_and_flips_preserve_jones():
    from tlinks.invariants import jones
    from tlinks.oracle import enumerate_forms

    checked = 0
    for form in enumerate_forms(8, max_n=2, max_s=2):
        if form.q < form.a_max:
            steps = [s.word() for s in absorb_strands(form)]
            if len(steps[0].letters) <= 26:
                values = [jones(s, guard=26) for s in steps]
                assert all(v is not None and v == values[0] for v in values), form
                checked += 1
        elif len(standard_braid(form.spec()).letters) <= 26:
            original = standard_braid(form.spec())
            flipped = standard_braid(flip_base(form))
            assert jones(original, guard=30) == jones(flipped, guard=30), form
            checked += 1
    assert checked >= 30


def test_presentation_closes_to_the_birman_kofman_dual():
    # presentation(form) and the standard braid of the dual spec, two routes
    # from a T-link to a braid that share no step, close to one link: equal
    # components, Euler characteristic and Alexander polynomial, and equal
    # Jones polynomial where both words are within the default guard
    forms = list(enumerate_forms(7))
    assert len(forms) == 260
    with_jones = 0
    for form in forms:
        ours = syllable_closure(presentation(form), DEFAULT_JONES_GUARD)
        dual = syllable_closure(standard_presentation(dual_spec(form.spec())), DEFAULT_JONES_GUARD)
        assert ours.components == dual.components, form
        assert ours.euler_char == dual.euler_char, form
        assert ours.alexander == dual.alexander, form
        if not (ours.jones_guarded or dual.jones_guarded):
            assert ours.jones == dual.jones, form
            with_jones += 1
    assert with_jones == 22


def test_dual_of_the_dual_is_the_markov_reduced_spec():
    # T((p,q)) and T((q,p)) are duals; a dual drops the pair (1, r_k - r_(k-1))
    # when s_k = 1, so the dual of the dual is the spec after markov_reduce
    for p in range(2, 12):
        for q in range(2, 12):
            assert dual_spec(TLinkSpec(((p, q),))) == TLinkSpec(((q, p),))
    with pytest.raises(ValueError, match="at least one pair"):
        dual_spec(TLinkSpec(((5, 1),)))  # the unknot keeps no pair
    rng = random.Random(0)
    outcomes = {"equal": 0, "after markov_reduce": 0}
    for _ in range(2000):
        r_values = sorted(rng.sample(range(2, 12), rng.randint(1, 4)))
        spec = TLinkSpec(tuple((r, rng.randint(1, 5)) for r in r_values))
        if len(spec.pairs) == 1 and spec.pairs[0][1] == 1:
            continue  # the unknot, above
        twice = dual_spec(dual_spec(spec))
        assert markov_reduce(twice) == markov_reduce(spec), spec
        outcomes["equal" if twice == spec else "after markov_reduce"] += 1
    assert outcomes == {"equal": 1597, "after markov_reduce": 315}


def test_markov_reduce_preserves_closure_invariants():
    specs = [
        TLinkSpec(((r1, s1), (r2, 1)))
        for r1 in range(2, 8)
        for r2 in range(r1 + 1, 10)
        for s1 in (1, 2, 3)
    ]
    specs.append(TLinkSpec(((2, 2), (3, 3), (4, 1))))
    specs.append(TLinkSpec(((3, 6), (5, 5), (7, 1))))
    for spec in specs:
        reduced = markov_reduce(spec)
        assert reduced != spec
        w_in, w_out = standard_braid(spec), standard_braid(reduced)
        assert alexander(w_in) == alexander(w_out), spec
        assert w_in.component_count() == w_out.component_count()


def test_parse_tlink():
    assert parse_tlink("T((2,3))").pairs == ((2, 3),)
    assert parse_tlink("T((3,3),(5,2))").pairs == ((3, 3), (5, 2))
    assert parse_tlink(" T( (2, 4) , (6,1) ) ").pairs == ((2, 4), (6, 1))


def test_parse_tlink_errors_carry_offsets():
    with pytest.raises(TLinkParseError) as exc:
        parse_tlink("T((5,2),(3,3))")
    assert "increasing" in str(exc.value)
    assert exc.value.offset == 9  # the second r-value
    with pytest.raises(TLinkParseError) as exc:
        parse_tlink("T((2,3)")
    assert exc.value.offset == 7
    with pytest.raises(TLinkParseError) as exc:
        parse_tlink("T((2,3)) tail")
    assert "trailing" in str(exc.value)
    with pytest.raises(TLinkParseError) as exc:
        parse_tlink("T((1,3))")
    assert "at least 2" in str(exc.value)
    with pytest.raises(TLinkParseError):
        parse_tlink("T((2,x))")


def test_render_parse_round_trip():
    for text in ["T((2,3))", "T((3,3),(5,2))", "T((2,2),(3,6),(7,4))"]:
        spec = parse_tlink(text)
        assert parse_tlink(render_tlink(spec)) == spec


PARSE_ERRORS = [
    # (input, message, byte offset): every message parse_tlink raises
    ("", "expected 'T'", 0),
    ("  t((2,3))", "expected 'T'", 2),
    ("T", "expected '(', found 'end of input'", 1),
    ("T[(2,3))", "expected '(', found '['", 1),
    ("T12", "expected '(', found '1'", 1),
    ("T(2,3)", "expected '(', found '2'", 2),
    ("T((2,3),)", "expected '(', found ')'", 8),
    ("T((x,3))", "expected an unsigned integer", 3),
    ("T((2,-3))", "expected an unsigned integer", 5),
    ("T((2,é))", "expected an unsigned integer", 5),
    ("T((2 3))", "expected ',', found '3'", 5),
    ("T((2,3]", "expected ')', found ']'", 6),
    ("T((2,3)", "expected ')', found 'end of input'", 7),
    ("T((2,3);", "expected ')', found ';'", 7),
    ("T((2,3)\u00a0)", "expected ')', found '\\xa0'", 7),
    ("T((2,0))", "s-values must be at least 1", 5),
    ("T((2,3)) tail", "trailing input after T-link expression", 9),
    ("T((2,3)),", "trailing input after T-link expression", 8),
    ("T((2,3))é", "trailing input after T-link expression", 8),
    ("T((1,3))", "r-values must be at least 2", 3),
    ("T((5,2),(3,3))", "r-values must be strictly increasing", 9),
    ("T( (2,3) ,\n(3,3), ( 3,1))", "r-values must be strictly increasing", 20),
]


@pytest.mark.parametrize("text, message, offset", PARSE_ERRORS)
def test_parse_tlink_error_table(text, message, offset):
    with pytest.raises(TLinkParseError) as exc:
        parse_tlink(text)
    assert str(exc.value) == f"{message} (byte {offset})"
    assert exc.value.offset == offset


def test_parse_tlink_rejects_integers_too_long_to_convert():
    # int() refuses a run of more digits than sys.get_int_max_str_digits()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    long = "1" * (limit + 1)
    for text, offset in [(f"T((2,{long}))", 5), (f"T(({long},3))", 3)]:
        with pytest.raises(TLinkParseError) as exc:
            parse_tlink(text)
        assert str(exc.value) == f"integer of {limit + 1} digits is too long (byte {offset})"
    assert parse_tlink(f"T((2,{long[1:]}))").pairs == ((2, int(long[1:])),)


@pytest.mark.parametrize("text", ["T((2,²))", "T((2,٣))", "T((2,３))"])
def test_parse_tlink_reads_only_ascii_digits(text):
    # superscript two, Arabic-Indic three and fullwidth three are digits to
    # str.isdigit, but not numbers of the grammar
    with pytest.raises(TLinkParseError) as exc:
        parse_tlink(text)
    assert str(exc.value) == "expected an unsigned integer (byte 5)"
