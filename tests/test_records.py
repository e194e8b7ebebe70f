"""The records of the package: immutable, hashable, picklable, and checked when made.

BraidWord, TLinkSpec and FullTwistForm check their fields; Verdict,
NormalForm, CandidateResult, Certificate, SweepRow and SweepReport are plain
NamedTuples.  Sweep workers send forms to, and rows back from, other
processes by pickle.
"""

import pickle

import pytest

from tlinks.braid import BraidWord
from tlinks.classify import Verdict
from tlinks.garside import NormalForm, normal_form
from tlinks.oracle import CandidateResult, Certificate, SweepReport, SweepRow, cross_validate
from tlinks.tlink import FullTwistForm, TLinkSpec

# each record with its repr, which keeps the field=value format
RECORDS = [
    (BraidWord(3, (1, -2, 2)), "BraidWord(strands=3, letters=(1, -2, 2))"),
    (TLinkSpec(((3, 3), (5, 2))), "TLinkSpec(pairs=((3, 3), (5, 2)))"),
    (FullTwistForm(((3, 1),), (4, 2)), "FullTwistForm(twist_pairs=((3, 1),), base=(4, 2))"),
    (Verdict("NotTorusLink", "Prop 2.7", "gcd(4,2)=2"),
     "Verdict(kind='NotTorusLink', rule='Prop 2.7', details='gcd(4,2)=2')"),
    (Verdict("DeferredToLee"), "Verdict(kind='DeferredToLee', rule=None, details='')"),
    (normal_form(BraidWord(3, (1, 2, 1, 1))), "NormalForm(strands=3, infimum=1, factors=((2, 1, 3),))"),
    (CandidateResult(5, 3, "matched"), "CandidateResult(p=5, q=3, reason='matched')"),
    (Certificate("TorusMatch", (CandidateResult(5, 3, "matched"),), False),
     "Certificate(kind='TorusMatch', candidates=(CandidateResult(p=5, q=3, reason='matched'),),"
     " guard_hit=False)"),
    (SweepReport((("max_p", 3),), ()), "SweepReport(params=(('max_p', 3),), rows=())"),
]


def _copy(record):
    """An equal record built anew from its fields."""
    return type(record)(*record)


@pytest.mark.parametrize("record, text", RECORDS)
def test_record_semantics(record, text):
    assert repr(record) == text
    again = _copy(record)
    assert again == record and again is not record and hash(again) == hash(record)
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded == record and type(loaded) is type(record)
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    # a NamedTuple: equal to the plain tuple of its fields, which it iterates
    assert record == tuple(getattr(record, f) for f in type(record)._fields)
    assert list(record) == [getattr(record, f) for f in type(record)._fields]


def test_braid_word_length_counts_letters():
    w = BraidWord(4, (1, 2, 3, -1, 2))
    assert len(w) == 5 and len(BraidWord(4, ())) == 0
    assert not BraidWord(4, ()) and w
    assert tuple(w) == (4, (1, 2, 3, -1, 2))
    assert BraidWord(strands=4, letters=[1, 2]) == BraidWord(4, (1, 2))


def test_normal_form_canonical_length():
    assert NormalForm(3, 0, ((2, 1, 3), (1, 3, 2))).canonical_length() == 2


# every check of the three validated records, with its message
INVALID = [
    (BraidWord, (0, ()), "strand count must be at least 1"),
    (BraidWord, (2, (2,)), "letter 2 at index 0 out of range for 2 strands"),
    (BraidWord, (3, (1, 0)), "letter 0 at index 1 out of range for 3 strands"),
    (TLinkSpec, ((),), "a T-link needs at least one pair"),
    (TLinkSpec, (((1, 2),),), "r-values must be at least 2"),
    (TLinkSpec, (((5, 2), (3, 3)),), "r-values must be strictly increasing"),
    (TLinkSpec, (((3, 2), (3, 3)),), "r-values must be strictly increasing"),
    (TLinkSpec, (((2, 0),),), "s-values must be at least 1"),
    (FullTwistForm, ((), (5, 3)), "at least one twist pair is required"),
    (FullTwistForm, (((3, 1),), (5, 1)), "base requires 1 < q < p, got (p, q) = (5, 1)"),
    (FullTwistForm, (((2, 1),), (3, 3)), "base requires 1 < q < p, got (p, q) = (3, 3)"),
    (FullTwistForm, (((1, 1),), (5, 3)), "twist strand counts must exceed 1"),
    (FullTwistForm, (((4, 1), (2, 1)), (7, 3)), "twist strand counts must be strictly increasing"),
    (FullTwistForm, (((3, 1),), (3, 2)), "twist strand counts must stay below p"),
    (FullTwistForm, (((2, 1),), (5, 2)), "twist strand count equal to q = 2 is not supported"),
    (FullTwistForm, (((2, 0),), (5, 3)), "twist counts must be at least 1"),
]


@pytest.mark.parametrize("cls, args, message", INVALID)
def test_invalid_records_name_the_check(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_sweep_row_semantics():
    # a row holds a lazy Closure, which compares by identity, so a pickled
    # row is compared field by field, its closure by the fields it computed
    row = cross_validate(5, max_n=1, max_s=1).rows[2]
    fields = ("index", "text", "spec", "form", "verdict", "certificate", "invariants", "timing_ms")
    values = {name: getattr(row, name) for name in fields}
    assert repr(row) == "SweepRow(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    again = SweepRow(**values)
    assert again == row and hash(again) == hash(row)
    loaded = pickle.loads(pickle.dumps(row))
    assert type(loaded) is SweepRow
    assert vars(loaded.invariants) == vars(row.invariants)
    assert SweepRow(**{**values, "invariants": loaded.invariants}) == loaded
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(row, name, None)
        with pytest.raises(AttributeError):
            delattr(row, name)
    assert row == tuple(values.values()) and row.contradiction is False
