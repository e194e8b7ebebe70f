"""Exact computational toolkit for T-links (Lorenz links).

Braid words and Markov moves, Garside normal form with the full-twist braid
index criterion, exact Alexander and Jones invariants, the torus-link
classifier for T-links obtained by full twists along torus links, and an
independent certification oracle that eliminates torus candidates by
invariant comparison.
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
from .garside import (
    NormalForm,
    braid_index_by_full_twist,
    contains_full_twist,
    delta_word,
    infimum,
    normal_form,
)
from .invariants import (
    DEFAULT_JONES_GUARD,
    InvariantBundle,
    alexander,
    bundle,
    euler_char,
    jones,
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
    presentation_word,
)
from .tlink import (
    FullTwistForm,
    RewriteTrace,
    TLinkParseError,
    TLinkSpec,
    absorb_strands,
    flip_base,
    markov_reduce,
    parse_tlink,
    remove_trailing_twists,
    render_tlink,
    standard_braid,
    to_full_twist_form,
)

__version__ = "0.1.0"
