"""Exact computational toolkit for T-links (Lorenz links).

Braid words and Markov moves, Garside normal form, invariant bundles with
the full-twist braid index criterion and exact Alexander and Jones
polynomials, the torus-link classifier for T-links obtained by full twists
along torus links, and an independent certification oracle that eliminates
torus candidates by invariant comparison.
"""

from .braid import BraidWord, LetterStats, Permutation, braid_text, parse_braid_text, torus_braid
from .classify import (
    DEFERRED_TO_LEE,
    EXCEPTIONAL_FAMILY,
    INVALID_INPUT,
    NOT_TORUS_LINK,
    Verdict,
    classify_form,
    classify_pairs,
    classify_spec,
)
from .garside import NormalForm, delta_word, infimum, normal_form
from .invariants import (
    DEFAULT_JONES_GUARD,
    InvariantBundle,
    alexander,
    bundle,
    euler_char,
    jones,
    syllable_closure,
    torus_reference,
)
from .laurent import LaurentPoly, poly_text
from .oracle import (
    INCONCLUSIVE,
    NOT_TORUS,
    TORUS_MATCH,
    Certificate,
    SweepReport,
    candidate_torus_params,
    certify,
    cross_validate,
    enumerate_forms,
    sweep_rows,
)
from .tlink import (
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
    standard_braid,
    to_full_twist_form,
)

__version__ = "0.1.0"
