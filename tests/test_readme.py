import contextlib
import importlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import tlinks

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_prints_its_comments():
    # every print line of the block states its output in a trailing comment
    code = _library_example()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


# what `import tlinks` gives, submodules aside: the names the pipeline, the
# command line, the README example and the benchmark use
PUBLIC = [
    "BraidWord", "Certificate", "DEFAULT_JONES_GUARD", "DEFERRED_TO_LEE", "EXCEPTIONAL_FAMILY",
    "FullTwistForm", "INCONCLUSIVE", "INVALID_INPUT", "LaurentPoly",
    "NOT_TORUS", "NOT_TORUS_LINK", "NormalForm", "SweepReport", "TLinkParseError",
    "TLinkSpec", "TORUS_MATCH", "Verdict", "absorb_strands", "alexander", "braid_text", "bundle",
    "certify", "classify_form", "classify_spec", "cross_validate", "enumerate_forms", "flip_base",
    "infimum", "jones", "markov_reduce", "normal_form", "parse_braid_text", "parse_tlink",
    "poly_text", "presentation", "reduce_tlink", "render_tlink", "sweep_rows", "syllable_closure",
    "to_full_twist_form", "torus_reference",
]

# names deleted because nothing in the package, the command line, the README
# example or the benchmark called them, or because another name does their
# job (InvariantBundle: invariants.Closure is the one record; Permutation:
# plain image tuples), by the module or class that held them; those the tests
# still use are functions in tests/_oracles.py
REMOVED = {
    "braid": ["LetterStats", "Permutation", "torus_braid"],
    "braid.BraidWord": ["concat", "letter_stats", "permutation"],
    "classify": ["classify_pairs"],
    "garside": ["delta_word"],
    "garside.NormalForm": ["__str__"],
    "invariants": ["InvariantBundle", "euler_char"],
    "laurent": [
        "_PERMANENT_MAX", "_permanent", "balanced_digits", "digits_of", "packed_determinant",
    ],
    "laurent.LaurentPoly": ["is_zero", "min_exp", "t", "term"],
    "oracle": ["candidate_torus_params"],
    "tlink": ["standard_braid"],
    "tlink.FullTwistForm": ["gcd_base"],
}


def test_public_surface():
    # a fresh interpreter, so that only the package's own imports count
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import inspect, tlinks; print(' '.join(sorted(name for name, value in vars(tlinks).items()"
        " if not name.startswith('_') and not inspect.ismodule(value))))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == sorted(PUBLIC)
    for where, names in REMOVED.items():
        module, _, cls = where.partition(".")
        holder = importlib.import_module(f"tlinks.{module}")
        holder = getattr(holder, cls) if cls else holder
        assert not set(names) & set(vars(holder)), where
    assert list(inspect.signature(tlinks.poly_text).parameters) == ["p", "quarter_exponents"]
    assert list(inspect.signature(tlinks.oracle.certify_bundle).parameters) == ["b"]


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # the records are NamedTuples, so neither the package nor its command
    # line loads dataclasses, or inspect with its ast, dis and tokenize;
    # pytest loads both, so a fresh interpreter checks, with no site hooks
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, tlinks, tlinks.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
