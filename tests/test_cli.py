import csv
import json
import os
import stat
import weakref

import pytest
from _oracles import CSV_HEADER, standard_braid, whole_csv_report, whole_json_report

from tlinks import cli, invariants, oracle
from tlinks.braid import braid_text
from tlinks.cli import (
    _CSV_FIELDS,
    EXIT_CONTRADICTION,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_LETTERS,
    MAX_STRANDS,
    main,
)
from tlinks.invariants import DEFAULT_JONES_GUARD
from tlinks.laurent import InexactDivisionError
from tlinks.oracle import cross_validate
from tlinks.tlink import parse_tlink, presentation, to_full_twist_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "T((3,3),(4,2))")
    assert code == EXIT_OK
    assert out.strip() == "NotTorusLink (Prop 2.7: gcd(4,2)=2)"


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, "classify", "T((5,2),(3,3))")
    assert code == EXIT_USAGE
    assert "byte" in err


def test_rewrite_command(capsys):
    code, out, _ = run(capsys, "rewrite", "T((3,3),(5,2))")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("step 0: n=5:")
    assert "n=3: 2,2,1,2,1,2,1,2,1,2,1,2" in lines[-2]
    assert lines[-1] == "final word on 3 strands"


def test_rewrite_reads_input_through_markov_reduction(capsys):
    # classify and rewrite both see T((3,3),(5,2)) after the trailing
    # exponent-1 syllable collapses
    text = "T((3,3),(5,1),(6,1))"
    code, out, _ = run(capsys, "classify", text)
    assert (code, out.strip()) == (EXIT_OK, "NotTorusLink (Lemma 2.4: q=2 < a_n=3)")
    code, out, _ = run(capsys, "rewrite", text)
    assert code == EXIT_OK
    assert out == run(capsys, "rewrite", "T((3,3),(5,2))")[1]


def test_rewrite_rejects_oversized_input_before_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the trace was built")

    monkeypatch.setattr(cli, "absorb_strands", no_work)
    code, out, err = run(capsys, "rewrite", "T((3,3),(1000000,2))")
    assert (code, out) == (EXIT_USAGE, "")
    assert f"1000000 strands is more than the limit of {MAX_STRANDS}" in err
    code, out, err = run(capsys, "rewrite", f"T((3,3),(5,{MAX_LETTERS}))")
    assert (code, out) == (EXIT_USAGE, "")
    assert f"letters is more than the limit of {MAX_LETTERS}" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "rewrite", "T((3,3),(5,2))")
    assert code == EXIT_OK
    assert out == (
        "step 0: n=5: 1,2,1,2,1,2,1,2,3,4,1,2,3,4  [14 letters]\n"
        "step 1: n=4: 2,1,2,1,2,1,2,1,2,3,1,2,3  [13 letters]\n"
        "step 2: n=3: 2,2,1,2,1,2,1,2,1,2,1,2  [12 letters]\n"
        "final word on 3 strands\n"
    )


def test_rewrite_with_two_twist_pairs(capsys):
    # n = 2: every step writes the a_1 syllable too, and the absorbed block
    # (3, 2) grows by one run per step
    code, out, _ = run(capsys, "rewrite", "T((2,2),(4,8),(7,3))")
    assert code == EXIT_OK
    assert out == (
        "step 0: n=7: 1,1,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,4,5,6,"
        "1,2,3,4,5,6,1,2,3,4,5,6  [44 letters]\n"
        "step 1: n=6: 3,2,1,1,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,4,5,"
        "1,2,3,4,5,1,2,3,4,5  [43 letters]\n"
        "step 2: n=5: 3,2,3,2,1,1,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,4,"
        "1,2,3,4,1,2,3,4  [42 letters]\n"
        "step 3: n=4: 3,2,3,2,3,2,1,1,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,1,2,3,"
        "1,2,3,1,2,3  [41 letters]\n"
        "final word on 4 strands\n"
    )


def test_rewrite_requires_absorption_shape(capsys):
    code, _, err = run(capsys, "rewrite", "T((2,2),(5,3))")
    assert code == EXIT_USAGE
    assert "q < a_n" in err


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "T((2,3))")
    assert code == EXIT_OK
    assert "alexander:   1 - t + t^2" in out
    assert "jones:       t + t^3 - t^4" in out
    code, out, _ = run(capsys, "invariants", "n=2: 1,1,1")
    assert code == EXIT_OK
    assert "components:  1" in out
    # the Hopf link: a two-component Jones value in half-integer powers of t
    code, out, _ = run(capsys, "invariants", "n=2: 1,1")
    assert code == EXIT_OK
    assert "jones:       -t^(1/2) - t^(5/2)" in out.splitlines()


def test_missing_braid_index_says_why(capsys):
    # a signed word is not tried, though this one opens with a literal full twist
    code, out, _ = run(capsys, "invariants", "n=3: 1,2,1,2,1,2,-1,2,-1")
    assert code == EXIT_OK
    assert "braid index: n/a (negative letters)" in out.splitlines()
    # a positive word that the full-twist criterion does not settle
    code, out, _ = run(capsys, "invariants", "n=3: 1,2")
    assert code == EXIT_OK
    assert "braid index: n/a (no full twist found)" in out.splitlines()


def test_certify_command(capsys):
    code, out, _ = run(capsys, "certify", "n=3: 2,2,1,2,1,2,1,2,1,2,1,2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "NotTorus"
    assert "T(11,2): braidIndexMismatch" in out


def test_inexact_division_is_an_internal_error(capsys, monkeypatch):
    def inexact(det, n, bound):
        raise InexactDivisionError("polynomial division is not exact")

    monkeypatch.setattr(invariants, "divide_by_strand_sum", inexact)
    code, out, err = run(capsys, "invariants", "T((2,5))")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.strip() == "internal error: polynomial division is not exact"


def test_oversized_strand_count_rejected_before_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a closure was built on an oversized word")

    monkeypatch.setattr(cli, "closure", no_work)
    monkeypatch.setattr(cli, "syllable_closure", no_work)
    for argv in [
        ("invariants", "n=1000000:"),
        ("invariants", f"n={MAX_STRANDS + 1}: 1,2"),
        ("invariants", f"T((2,3),({MAX_STRANDS + 1},2))"),
        ("certify", "n=1000000: 1"),
        ("certify", "T((1000000,1000000))"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"strands is more than the limit of {MAX_STRANDS}" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "invariants", f"n={MAX_STRANDS}:")
    assert code == EXIT_OK
    assert f"components:  {MAX_STRANDS}" in out


def test_oversized_letter_count_rejected_before_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the word was built or computed on")

    over = "n=2: " + ",".join(["1"] * (MAX_LETTERS + 1))
    at_limit = "n=2: " + ",".join(["1"] * MAX_LETTERS)
    monkeypatch.setattr(cli, "closure", no_work)
    monkeypatch.setattr(cli, "syllable_closure", no_work)
    monkeypatch.setattr(cli, "standard_presentation", no_work)
    monkeypatch.setattr(cli, "presentation", no_work)
    for argv in [
        ("invariants", "T((3,1000000000))"),
        ("certify", "T((3,1000000000))"),
        ("invariants", over),
        ("certify", over),
        ("invariants", f"T((2,3),(3,{MAX_LETTERS // 2 + 1}))"),
        ("certify", "T((2,2),(99,97))"),  # a full-twist form of 9508 letters
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"letters is more than the limit of {MAX_LETTERS}" in err
    assert "2000000000 letters" in run(capsys, "invariants", "T((3,1000000000))")[2]
    monkeypatch.undo()
    assert cli._input_closure(at_limit, DEFAULT_JONES_GUARD).letters == MAX_LETTERS
    assert cli._input_closure(f"T((2,{MAX_LETTERS}))", DEFAULT_JONES_GUARD).letters == MAX_LETTERS


@pytest.mark.parametrize("text", ["T((2,5))", "T((3,4))", "T((3,3),(5,2))", "T((3,2000))"])
def test_tlink_input_prints_as_its_written_out_word(capsys, text):
    # a T-link's twists split off by divmod, the written-out word's by a scan
    # of its letters; both print the same.  A full-twist form is computed on
    # its presentation, any other T-link on its standard braid
    spec = parse_tlink(text)
    form = to_full_twist_form(spec)
    written = braid_text(presentation(form).word() if form else standard_braid(spec))
    for command in ("invariants", "certify"):
        code, out, err = run(capsys, command, text)
        assert (code, err) == (EXIT_OK, "")
        assert run(capsys, command, written) == (EXIT_OK, out, ""), command


def test_tlink_input_prints_its_sweep_row(capsys):
    # every p <= 9 form: its spec's T-link text prints, through invariants
    # and certify, exactly the invariants and certificate of its sweep row
    rows = cross_validate(9).rows
    assert len(rows) == 1064
    for row in rows:
        cli._print_bundle(row.invariants)
        bundle = capsys.readouterr().out
        assert run(capsys, "invariants", row.text) == (EXIT_OK, bundle, ""), row.text
        assert run(capsys, "certify", row.text) == (EXIT_OK, f"{row.certificate}\n", ""), row.text


@pytest.mark.parametrize(
    "text, torus",
    [("T((2,2),(4,3))", "T(5,3)"), ("T((3,3),(5,4))", "T(7,4)"), ("T((2,2),(7,3))", "T(8,3)")],
)
def test_torus_tlinks_certify_as_torus_matches(capsys, text, torus):
    # T((q-1,q-1),(p,q)) = T(p+q-2, q): on the q-strand presentation the braid
    # index is available, and the one surviving candidate matches completely
    code, out, err = run(capsys, "certify", text)
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert lines[0] == "TorusMatch"
    assert [line for line in lines if line.endswith("matched")] == [f"  {torus}: matched"]


def test_tlink_input_limits_count_the_markov_reduced_spec(capsys):
    # T((2,3),(101,1)) destabilizes to T((2,4)) on 2 strands
    over = f"T((2,3),({MAX_STRANDS + 1},1))"
    assert run(capsys, "invariants", over) == run(capsys, "invariants", "T((2,4))")
    reducible = "T((3,3),(5,1),(6,1))"
    assert run(capsys, "certify", reducible) == run(capsys, "certify", "T((3,3),(5,2))")


def test_certify_rejects_negative(capsys):
    code, _, err = run(capsys, "certify", "n=2: -1")
    assert code == EXIT_USAGE
    assert "positive" in err


def test_bad_input_rejected(capsys):
    code, _, err = run(capsys, "invariants", "garbage")
    assert code == EXIT_USAGE
    assert "expected" in err
    # int() alone would read these as 3 strands, letter 1 and 10 strands
    for text, message in [
        ("n=\u0663: 1", "bad strand count '\u0663'"),
        ("n=3: \u0661,2", "bad letter '\u0661' at index 0"),
        ("n=1_0: 1_0", "bad strand count '1_0'"),
    ]:
        assert run(capsys, "invariants", text) == (EXIT_USAGE, "", f"error: {message}\n")


def test_sweep_writes_deterministic_reports(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    args = ["sweep", "--max-p", "5", "--max-n", "1", "--max-s", "2"]
    code, stdout, _ = run(capsys, *args, "--out", str(out1), "--csv", str(csv1))
    assert code == EXIT_OK
    assert "disagreements: 0" in stdout
    code, _, _ = run(capsys, *args, "--out", str(out2), "--csv", str(csv2))
    assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()

    doc = json.loads(out1.read_text())
    assert doc["disagreements"] == 0
    row = doc["rows"][0]
    assert set(row) == {"input", "pairs", "verdict", "certificate", "invariants", "timingMs"}
    assert set(row["verdict"]) == {"kind", "rule"}
    assert set(row["certificate"]) == {"kind", "candidates", "guardHit"}
    assert set(row["invariants"]) == {
        "components",
        "letters",
        "eulerChar",
        "braidIndex",
        "alexander",
        "jones",
    }
    assert row["timingMs"] == 0  # suppressed unless --timings is passed


def _flatten(row):
    """A JSON report row as CSV cells, in the order of CSV_HEADER."""
    verdict, cert, inv = row["verdict"], row["certificate"], row["invariants"]
    cells = {
        "input": row["input"],
        "pairs": ";".join(f"{a},{b}" for a, b in row["pairs"]),
        "verdict_kind": verdict["kind"],
        "verdict_rule": verdict["rule"],
        "certificate_kind": cert["kind"],
        "candidates": "|".join(f"{c['p']}:{c['q']}:{c['reason']}" for c in cert["candidates"]),
        "guard_hit": int(cert["guardHit"]),
        "components": inv["components"],
        "letters": inv["letters"],
        "euler_char": inv["eulerChar"],
        "braid_index": inv["braidIndex"],
        "alexander": inv["alexander"],
        "jones": inv["jones"],
        "timing_ms": row["timingMs"],
    }
    return ["" if cells[f] is None else str(cells[f]) for f in CSV_HEADER]


@pytest.mark.parametrize("timings", [(), ("--timings",)])
def test_csv_rows_flatten_json_rows(tmp_path, capsys, timings):
    out, table = tmp_path / "r.json", tmp_path / "r.csv"
    args = ["sweep", "--max-p", "5", "--max-n", "1", "--out", str(out), "--csv", str(table)]
    assert run(capsys, *args, *timings)[0] == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    with open(table, newline="", encoding="utf-8") as fh:
        header, *cells = csv.reader(fh)
    assert header == CSV_HEADER == _CSV_FIELDS
    assert len(rows) > 1
    assert cells == [_flatten(r) for r in rows]


def test_sweep_rejects_unwritable_report_paths_before_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sweep_rows", no_work)
    missing = tmp_path / "missing"
    cases = [("--out", missing / "r.json"), ("--csv", missing / "r.csv"), ("--out", tmp_path)]
    for flag, path in cases:
        code, out, err = run(capsys, "sweep", "--max-p", "7", flag, str(path))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: cannot write a report to {path}\n")
    assert not missing.exists()


def test_sweep_rejects_a_report_path_under_a_file(tmp_path, capsys, monkeypatch):
    # the directory of f/r.json is a writable regular file: the report's
    # temporary file cannot be created, which fails before any row and
    # leaves no temporary file of the other report behind
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sweep_rows", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("kept")
    cases = [("--out", "f/r.json"), ("--csv", "f/r.csv"), ("--out", "r.json", "--csv", "f/r.csv")]
    for args in cases:
        code, out, err = run(capsys, "sweep", "--max-p", "4", *args)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: cannot write a report to {args[-1]}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
    assert (tmp_path / "f").read_text() == "kept"


def test_sweep_rejects_one_file_for_both_reports(tmp_path, capsys, monkeypatch):
    # the CSV would replace the JSON report; both fail before any row
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sweep_rows", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.txt").write_text("kept")
    (tmp_path / "link.txt").symlink_to(tmp_path / "r.txt")
    for out, table in [("r.txt", "r.txt"), ("r.txt", str(tmp_path / "r.txt")), ("link.txt", "./r.txt")]:
        code, stdout, err = run(capsys, "sweep", "--max-p", "7", "--out", out, "--csv", table)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err == f"error: --out and --csv name the same file {out}\n"
    assert (tmp_path / "r.txt").read_text() == "kept"


def test_failed_sweep_leaves_earlier_reports_in_place(tmp_path, capsys, monkeypatch):
    # every report is written under a temporary name and takes its path only
    # after the last row, so a sweep that fails part way changes no file
    made = []
    real = oracle._sweep_row

    def fails_third(args):
        made.append(args)
        if len(made) == 3:
            raise InexactDivisionError("polynomial division is not exact")
        return real(args)

    monkeypatch.setattr(oracle, "_sweep_row", fails_third)
    out, table = tmp_path / "r.json", tmp_path / "r.csv"
    out.write_text("earlier json")
    table.write_text("earlier csv")
    code, stdout, err = run(capsys, "sweep", "--max-p", "7", "--out", str(out), "--csv", str(table))
    assert (code, stdout) == (EXIT_INTERNAL, "")
    assert err == "internal error: polynomial division is not exact\n"
    assert len(made) == 3
    assert out.read_text() == "earlier json" and table.read_text() == "earlier csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]


def test_reports_land_where_a_plain_open_writes(tmp_path, capsys):
    # the temporary file takes the mode a plain open gives, and a report
    # path that is a symlink is written through, not replaced
    plain = tmp_path / "plain"
    plain.open("w").close()
    (tmp_path / "elsewhere").mkdir()
    target = tmp_path / "elsewhere" / "r.csv"
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    out = tmp_path / "r.json"
    args = ["sweep", "--max-p", "4", "--out", str(out), "--csv", str(link)]
    assert run(capsys, *args)[0] == EXIT_OK
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert link.is_symlink() and target.read_text().startswith("input,pairs,")


def test_reports_leave_the_umask_alone(tmp_path, monkeypatch):
    # setting the process umask, even for a moment, would change the mode of
    # a file that another thread creates meanwhile; the reports take the
    # umask's mode from the open that creates them
    def no_umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) was called")

    plain = tmp_path / "plain"
    plain.open("w").close()
    monkeypatch.setattr(os, "umask", no_umask)
    out, table = tmp_path / "r.json", tmp_path / "r.csv"
    cli.write_reports(oracle.sweep_params(4), oracle.sweep_rows(4), False, str(out), str(table))
    for path in (out, table):
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert json.loads(out.read_text())["disagreements"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "r.csv", "r.json"]


@pytest.mark.parametrize("timings", [False, True])
def test_streamed_reports_equal_the_whole_document(tmp_path, timings):
    # one report object, so equal timings; the empty grid gives "rows": []
    for report in (cross_validate(6), cross_validate(max_p=2)):
        cli.write_json_report(report, str(tmp_path / "s.json"), timings)
        cli.write_csv_report(report, str(tmp_path / "s.csv"), timings)
        whole_json_report(report, str(tmp_path / "w.json"), timings)
        whole_csv_report(report, str(tmp_path / "w.csv"), timings)
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "w.json").read_bytes()
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()
    assert json.loads((tmp_path / "s.json").read_text())["rows"] == []
    assert (tmp_path / "s.json").read_text().count("\n  \"rows\": [],\n") == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_command_streams_the_whole_document(tmp_path, capsys, jobs):
    out, table = tmp_path / "s.json", tmp_path / "s.csv"
    args = ["sweep", "--max-p", "6", "--jobs", jobs, "--out", str(out), "--csv", str(table)]
    assert run(capsys, *args)[0] == EXIT_OK
    report = cross_validate(6)
    whole_json_report(report, str(tmp_path / "w.json"), False)
    whole_csv_report(report, str(tmp_path / "w.csv"), False)
    assert out.read_bytes() == (tmp_path / "w.json").read_bytes()
    assert table.read_bytes() == (tmp_path / "w.csv").read_bytes()


def test_sweep_keeps_a_bounded_number_of_rows_alive(tmp_path, capsys, monkeypatch):
    # each row is tallied, written to both reports and dropped before long:
    # while the 260 rows of p <= 7 are made, only a few are alive at once.
    # A row is a tuple, which takes no weak reference, so the check follows
    # its closure, which a live row keeps alive
    refs = []
    most = 0
    real = oracle._sweep_row

    def tracked(args):
        nonlocal most
        row = real(args)
        refs.append(weakref.ref(row.invariants))
        most = max(most, sum(ref() is not None for ref in refs))
        return row

    monkeypatch.setattr(oracle, "_sweep_row", tracked)
    out, table = tmp_path / "r.json", tmp_path / "r.csv"
    code, stdout, _ = run(capsys, "sweep", "--max-p", "7", "--out", str(out), "--csv", str(table))
    assert code == EXIT_OK
    assert "instances: 260" in stdout
    assert len(refs) == 260 and len(json.loads(out.read_text())["rows"]) == 260
    assert most <= 3


def test_sweep_jobs_flag_keeps_output_identical(tmp_path, capsys):
    args = ["sweep", "--max-p", "5", "--max-n", "1", "--max-s", "1"]
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert run(capsys, *args, "--out", str(one))[0] == EXIT_OK
    assert run(capsys, *args, "--jobs", "2", "--out", str(two))[0] == EXIT_OK
    assert one.read_bytes() == two.read_bytes()


def test_exit_codes_are_reserved():
    assert EXIT_OK == 0
    assert EXIT_USAGE == 1
    assert EXIT_CONTRADICTION == 2


def test_help_lists_each_command_with_its_arguments(capsys, monkeypatch):
    # the top-level help lists the five commands in this order, each with its
    # help string; every command but sweep reads one input, and invariants,
    # certify and sweep take --jones-guard.  Lines, not bytes: argparse lays
    # out help text differently from one Python version to the next
    monkeypatch.setenv("COLUMNS", "200")  # one line per command
    commands = [
        ("invariants", "invariant bundle of a T-link or braid word"),
        ("rewrite", "strand-absorption trace of a full-twist T-link"),
        ("classify", "torus-link classifier verdict"),
        ("certify", "torus-link elimination certificate"),
        ("sweep", "classifier-versus-oracle cross validation"),
    ]
    code, out, err = run(capsys, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert [line.split(None, 1) for line in out.splitlines() if line.startswith("    ")] == [
        list(command) for command in commands
    ]
    for name, _ in commands:
        code, out, err = run(capsys, name, "--help")
        assert (code, err) == (EXIT_OK, ""), name
        assert ("input" in [line.strip() for line in out.splitlines()]) == (name != "sweep"), name
        assert ("--jones-guard" in out) == (name in ("invariants", "certify", "sweep")), name


def test_out_of_range_counts_rejected_before_work(capsys):
    for *argv, flag, value in [
        ("sweep", "--max-p", "5", "--jobs", "0"),
        ("sweep", "--max-p", "5", "--jones-guard", "-1"),
        ("sweep", "--max-p", "3"),
        ("sweep", "--max-p", "0"),
        ("sweep", "--max-p", "5", "--max-n", "0"),
        ("sweep", "--max-p", "5", "--max-s", "0"),
        ("sweep", "--max-p", "5", "--max-s", "-1"),
        ("sweep", "--max-p", "5", "--max-a", "1"),
        ("invariants", "T((2,3))", "--jones-guard", "-5"),
    ]:
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"{flag} must be at least" in err
    _, out, _ = run(capsys, "invariants", "T((2,3))", "--jones-guard", "0")
    assert "crossing guard exceeded" in out
