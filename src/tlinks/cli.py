"""Command-line front end.

Commands
--------
invariants  print the invariant bundle of a T-link or braid word
rewrite     print the strand-absorption trace of a full-twist T-link
classify    print the classifier verdict with its citation tag
certify     print the torus-elimination certificate
sweep       cross-validate classifier against oracle over a parameter range,
            optionally writing JSON and CSV reports, row by row as rows arrive

Inputs are either T-link expressions `T((r1,s1),(r2,s2),...)` or braid words
`n=K: e1,e2,...`.  Every T-link input goes through one gateway,
tlink.reduce_tlink: Markov reduction, then the full-twist shape.  Its strand
and letter limits are counted on the reduced spec.  invariants and certify
compute a full-twist form on presentation(form), the closure its sweep row
certifies, so they print that row's invariants and certificate; any other
T-link is computed on the standard braid of its reduced spec.

Exit status 1 flags usage or parse errors; status 2 is reserved for a
classifier/oracle contradiction, which would falsify the theorem the
classifier implements; status 3 flags an internal fault, such as an exact
polynomial division leaving a remainder.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from typing import Any, Iterable, Iterator, TextIO

from .braid import braid_text, parse_braid_text
from .classify import classify_spec
from .invariants import DEFAULT_JONES_GUARD, Closure, closure, syllable_closure
from .laurent import InexactDivisionError, poly_text
from .oracle import Certificate, SweepReport, SweepRow, certify_bundle, sweep_params, sweep_rows
from .tlink import (
    FullTwistForm,
    TLinkParseError,
    TLinkSpec,
    absorb_strands,
    parse_tlink,
    presentation,
    reduce_tlink,
    standard_presentation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRADICTION = 2
EXIT_INTERNAL = 3

# The reduced Burau matrix of an n-strand word has (n-1)^2 packed entries, and
# alexander reduces it by an integer Bareiss elimination of about (n-1)^3 / 3
# steps on entries that grow with n.  At 100 strands that is 9801 entries and
# about a second for the simplest words; "n=1000000:" would ask for 10^12.
MAX_STRANDS = 100

# A whole `tlinks invariants` run (Python 3.11, shared 2-core x86-64 host)
# takes 0.15 s on T((3,2000)), 0.02 s of it after start-up: of its 4000
# letters, 3996 are 666 full twists, which split off by divmod unwritten and
# which alexander takes as a factor.  On random 9-strand words it grows faster
# than the square of the letters: 0.55 s signed and 7.6 s positive at 700
# letters, 2.9 s and 25 s at 1000 (a twist-free word is reduced, then computed
# on two half-words).  The limit also stops T((3,10^9)), whose twists are
# never written but whose Alexander polynomial has degree 2 x 10^9.
MAX_LETTERS = 5000


class _UsageError(Exception):
    pass


def _input_closure(text: str, guard: int) -> Closure:
    """The closure to compute on, rejected before any work if it has too many strands or letters.

    A T-link goes through reduce_tlink and is checked after its Markov
    reduction.  A full-twist form is computed on presentation(form), as its
    sweep row is, any other spec on its standard braid; both end in a
    syllable on all their strands, whose full twists split off by divmod.
    Neither has more strands or letters than the reduced spec.  A raw word
    is scanned for its full twists.
    """
    stripped = text.strip()
    if stripped.startswith("T"):
        spec, form = _read_tlink(stripped)
        return syllable_closure(presentation(form) if form else standard_presentation(spec), guard)
    if stripped.startswith("n="):
        w = parse_braid_text(stripped)
        _check_size(w.strands, len(w.letters))
        return closure(w, guard)
    raise _UsageError(
        f"cannot read {text!r}: expected T((r,s),...) or a braid word 'n=K: ...'"
    )


def _read_tlink(text: str) -> tuple[TLinkSpec, FullTwistForm | None]:
    """reduce_tlink of the parsed text, rejected if the reduced spec has too many strands or letters."""
    spec, form = reduce_tlink(parse_tlink(text))
    _check_size(spec.strands, sum((r - 1) * s for r, s in spec.pairs))
    return spec, form


def _check_size(strands: int, letters: int) -> None:
    if strands > MAX_STRANDS:
        raise _UsageError(f"{strands} strands is more than the limit of {MAX_STRANDS}")
    if letters > MAX_LETTERS:
        raise _UsageError(f"{letters} letters is more than the limit of {MAX_LETTERS}")


def _print_bundle(b: Closure) -> None:
    """The fields of _bundle_dict(b) under their console labels; an absent value says why."""
    why = {"eulerChar": "negative letters", "jones": "crossing guard exceeded"}
    why["braidIndex"] = "no full twist found" if b.rest.is_positive else "negative letters"
    for field, value in _bundle_dict(b).items():
        label = "".join(f" {c.lower()}" if c.isupper() else c for c in field)  # eulerChar reads euler char
        print(f"{label + ':':13}{value if value is not None else f'n/a ({why[field]})'}")


def _cmd_invariants(args: argparse.Namespace) -> int:
    _print_bundle(_input_closure(args.input, args.jones_guard).bundle())
    return EXIT_OK


def _cmd_rewrite(args: argparse.Namespace) -> int:
    spec, form = _read_tlink(args.input)
    if form is None:
        raise _UsageError(f"{spec} is not of full-twist form over a torus base")
    steps = absorb_strands(form)
    for j, word in enumerate(step.word() for step in steps):
        print(f"step {j}: {braid_text(word)}  [{len(word.letters)} letters]")
    print(f"final word on {steps[-1].strands} strands")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    print(classify_spec(parse_tlink(args.input)))
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    print(certify_bundle(_input_closure(args.input, args.jones_guard)))
    return EXIT_OK


def _bundle_dict(b: Closure) -> dict[str, Any]:
    return {
        "components": b.components,
        "letters": b.letters,
        "eulerChar": b.euler_char,
        "braidIndex": b.braid_index,
        "alexander": poly_text(b.alexander),
        "jones": poly_text(b.jones, quarter_exponents=True) if b.jones is not None else None,
    }


def _certificate_dict(c: Certificate) -> dict[str, Any]:
    return {
        "kind": c.kind,
        "candidates": [{"p": r.p, "q": r.q, "reason": r.reason} for r in c.candidates],
        "guardHit": c.guard_hit,
    }


def report_row(r: SweepRow, include_timings: bool) -> dict[str, Any]:
    """One sweep row as its JSON report object; its CSV row flattens the same dict."""
    return {
        "input": r.text,
        "pairs": [[a, b] for a, b in r.spec.pairs],
        "verdict": {"kind": r.verdict.kind, "rule": r.verdict.rule},
        "certificate": _certificate_dict(r.certificate),
        "invariants": _bundle_dict(r.invariants),
        "timingMs": r.timing_ms if include_timings else 0,
    }


# each CSV column: its name, and its cell read from a report_row dict; None is an empty cell
_CSV_COLUMNS = (
    ("input", lambda row: row["input"]),
    ("pairs", lambda row: ";".join(f"{a},{s}" for a, s in row["pairs"])),
    ("verdict_kind", lambda row: row["verdict"]["kind"]),
    ("verdict_rule", lambda row: row["verdict"]["rule"]),
    ("certificate_kind", lambda row: row["certificate"]["kind"]),
    (
        "candidates",
        lambda row: "|".join(f"{c['p']}:{c['q']}:{c['reason']}" for c in row["certificate"]["candidates"]),
    ),
    ("guard_hit", lambda row: int(row["certificate"]["guardHit"])),
    ("components", lambda row: row["invariants"]["components"]),
    ("letters", lambda row: row["invariants"]["letters"]),
    ("euler_char", lambda row: row["invariants"]["eulerChar"]),
    ("braid_index", lambda row: row["invariants"]["braidIndex"]),
    ("alexander", lambda row: row["invariants"]["alexander"]),
    ("jones", lambda row: row["invariants"]["jones"]),
    ("timing_ms", lambda row: row["timingMs"]),
)
_CSV_FIELDS = [name for name, _ in _CSV_COLUMNS]


@contextmanager
def _replacing(path: str, newline: str | None) -> Iterator[TextIO]:
    """A text file that takes the place of path only when the block completes.

    It is written under a random name beside the file path resolves to, so
    the final os.replace is atomic; if the block raises, the temporary file
    is removed and any file at path is left as it was.  Mode "x" creates the
    file, never opens one that exists, and, as a plain open does, gives it
    the mode 0o666 less the umask; and a symlink at path is written through.
    A directory at path, which the temporary file could never replace, and a
    temporary file that cannot be created (its directory is missing, not
    writable or not a directory) are a usage error naming path, raised before
    the block runs.
    """
    real = os.path.realpath(path)
    tmp = f"{real}.{os.urandom(8).hex()}.tmp"
    try:
        if os.path.isdir(real):
            raise IsADirectoryError(real)
        fh = open(tmp, "x", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise _UsageError(f"cannot write a report to {path}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_indented(value: Any, indent: str) -> str:
    """json.dumps(value, indent=2) as it reads nested at this indent."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def write_reports(
    params: tuple[tuple[str, int], ...],
    rows: Iterable[SweepRow],
    include_timings: bool,
    json_path: str | None = None,
    csv_path: str | None = None,
) -> None:
    """Stream sweep rows into a JSON and/or a CSV report, each row rendered once.

    Each row is rendered by report_row, written to both reports and dropped,
    so memory does not grow with the row count.  The JSON bytes are exactly
    those of json.dump(doc, indent=2) plus a newline, for the document
    {"params", "rows", "disagreements"}: the header, then each row dumped on
    its own and indented to its depth, then the running count of
    contradictions.  Both reports are opened before the first row is read,
    so a path that cannot be written fails before any work, and each takes
    its path only after the last row (_replacing).  With neither path, the
    rows are drained unrendered.
    """
    with ExitStack() as stack:
        js = stack.enter_context(_replacing(json_path, None)) if json_path else None
        table = None
        if csv_path:
            table = csv.writer(stack.enter_context(_replacing(csv_path, "")), lineterminator="\n")
            table.writerow(_CSV_FIELDS)
        if js is not None:
            js.write('{\n  "params": ' + _json_indented(dict(params), "  ") + ',\n  "rows": [')
        count = disagreements = 0
        for r in rows:
            disagreements += r.contradiction
            if js is None and table is None:
                continue
            row = report_row(r, include_timings)
            if js is not None:
                js.write((",\n    " if count else "\n    ") + _json_indented(row, "    "))
            if table is not None:
                table.writerow([cell(row) for _, cell in _CSV_COLUMNS])
            count += 1
        if js is not None:
            js.write(("\n  ]" if count else "]") + f',\n  "disagreements": {disagreements}\n}}\n')


def write_json_report(report: SweepReport, path: str, include_timings: bool) -> None:
    write_reports(report.params, report.rows, include_timings, json_path=path)


def write_csv_report(report: SweepReport, path: str, include_timings: bool) -> None:
    write_reports(report.params, report.rows, include_timings, csv_path=path)


def _cmd_sweep(args: argparse.Namespace) -> int:
    # a report path that cannot be written fails when write_reports opens it,
    # before the first row (_replacing); one file for both reports fails here
    if args.out and args.csv and os.path.realpath(args.out) == os.path.realpath(args.csv):
        raise _UsageError(f"--out and --csv name the same file {args.out}")
    verdicts: Counter[str] = Counter()
    certificates: Counter[str] = Counter()
    contradictions: list[str] = []

    def tallied() -> Iterator[SweepRow]:
        for row in sweep_rows(*bounds, jobs=args.jobs):
            verdicts[row.verdict.kind] += 1
            certificates[row.certificate.kind] += 1
            if row.contradiction:
                contradictions.append(row.text)
            yield row

    bounds = (args.max_p, args.max_n, args.max_s, args.max_a, args.jones_guard)
    start = time.perf_counter()
    # the generator starts the sweep on its first row, after the reports open
    write_reports(sweep_params(*bounds), tallied(), args.timings, args.out, args.csv)
    elapsed = time.perf_counter() - start
    print(f"instances: {sum(verdicts.values())}")
    for kind, count in sorted(verdicts.items()):
        print(f"  verdict {kind}: {count}")
    for kind, count in sorted(certificates.items()):
        print(f"  certificate {kind}: {count}")
    print(f"disagreements: {len(contradictions)}")
    print(f"elapsed: {elapsed:.1f}s")
    if contradictions:
        for text in contradictions:
            print(f"  CONTRADICTION: {text}", file=sys.stderr)
        return EXIT_CONTRADICTION
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlinks",
        description="Exact T-link toolkit: braid rewrites, invariants, torus-link elimination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_guard(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jones-guard",
            type=int,
            default=DEFAULT_JONES_GUARD,
            help="max crossings for Kauffman bracket evaluation (default %(default)s)",
        )

    for name, help_text, handler, guarded in (
        ("invariants", "invariant bundle of a T-link or braid word", _cmd_invariants, True),
        ("rewrite", "strand-absorption trace of a full-twist T-link", _cmd_rewrite, False),
        ("classify", "torus-link classifier verdict", _cmd_classify, False),
        ("certify", "torus-link elimination certificate", _cmd_certify, True),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input")
        if guarded:
            add_guard(p)
        p.set_defaults(func=handler)

    p_sw = sub.add_parser("sweep", help="classifier-versus-oracle cross validation")
    p_sw.add_argument("--max-p", type=int, required=True)
    p_sw.add_argument("--max-n", type=int, default=2)
    p_sw.add_argument("--max-s", type=int, default=2)
    p_sw.add_argument("--max-a", type=int, default=None)
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.add_argument("--out", help="write a JSON report to this path")
    p_sw.add_argument("--csv", help="write a CSV report to this path")
    p_sw.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings in reports (off by default so equal flags give byte-identical output)",
    )
    add_guard(p_sw)
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # the sweep bounds are the least whose oracle.enumerate_forms grid is not
        # empty: at p = 3 the only twist index a = 2 equals q = 2
        least_values = {"jobs": 1, "jones_guard": 0, "max_p": 4, "max_n": 1, "max_s": 1, "max_a": 2}
        for name, least in least_values.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                parser.error(f"--{name.replace('_', '-')} must be at least {least}, got {value}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InexactDivisionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TLinkParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
