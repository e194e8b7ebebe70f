"""Decision procedure: when is a full-twist T-link never a torus link.

The decision tree, on inputs T((a_1,s_1a_1),...,(a_n,s_na_n),(p,q)) with
1 < q < p, 1 < a_1 < ... < a_n < p and a_i != q:

* gcd(p, q) > 1: never a torus link;
* q < a_n: never a torus link;
* a_n < q, n > 1 and (p is not 1 mod q, or s_1 > 1, or a_2 != a_1 + 1):
  never a torus knot;
* a_n < q, n = 1 and s_1 > 1: never a torus knot (known classification of
  single-twist cases);
* a_n < q, n = 1 otherwise: deferred to that same classification, which this
  toolkit cites rather than reimplements;
* remaining tuples (a_n < q, p = bq + 1, s_1 = 1, a_2 = a_1 + 1, n > 1):
  the exceptional family, where no claim is made either way.

Each negative verdict carries the citation tag of the rule that fired, so
reports stay auditable against the source theorem.  A Verdict is an
immutable NamedTuple (kind, rule, details).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .tlink import FullTwistForm, TLinkSpec, reduce_tlink

NOT_TORUS_LINK = "NotTorusLink"
EXCEPTIONAL_FAMILY = "ExceptionalFamily"
DEFERRED_TO_LEE = "DeferredToLee"
INVALID_INPUT = "InvalidInput"

RULE_GCD = "Prop 2.7"
RULE_ABSORPTION = "Lemma 2.4"
RULE_RESIDUE = "Prop 2.8"
RULE_ALL_TWISTED = "Cor 2.9"


class Verdict(NamedTuple):
    """Classifier outcome with the rule tag that produced it."""

    kind: str
    rule: str | None = None
    details: str = ""

    def __str__(self) -> str:
        if self.rule:
            return f"{self.kind} ({self.rule}: {self.details})"
        if self.details:
            return f"{self.kind} ({self.details})"
        return self.kind


def classify_form(form: FullTwistForm) -> Verdict:
    """Classify a validated full-twist form."""
    p, q = form.base
    n = form.n
    a_n = form.a_max
    s_1 = form.twist_pairs[0][1]

    g = gcd(p, q)
    if g > 1:
        return Verdict(NOT_TORUS_LINK, RULE_GCD, f"gcd({p},{q})={g}")
    if q < a_n:
        return Verdict(NOT_TORUS_LINK, RULE_ABSORPTION, f"q={q} < a_n={a_n}")
    # from here a_n < q (a_i = q is excluded at construction)
    if n > 1:
        reasons = []
        if p % q != 1:
            reasons.append(f"p={p} is not 1 mod q={q}")
        if s_1 > 1:
            reasons.append(f"s_1={s_1} > 1")
        a_1, a_2 = form.twist_pairs[0][0], form.twist_pairs[1][0]
        if a_2 != a_1 + 1:
            reasons.append(f"a_2={a_2} != a_1+1={a_1 + 1}")
        if reasons:
            return Verdict(NOT_TORUS_LINK, RULE_RESIDUE, "; ".join(reasons))
        return Verdict(
            EXCEPTIONAL_FAMILY,
            None,
            f"a_n={a_n} < q={q}, p={p} = {(p - 1) // q}*{q}+1, s_1=1, a_2=a_1+1",
        )
    if s_1 > 1:
        return Verdict(NOT_TORUS_LINK, RULE_ALL_TWISTED, f"n=1 and s_1={s_1} > 1")
    return Verdict(
        DEFERRED_TO_LEE,
        None,
        "n=1 single-twist case; settled by the cited twisted-torus-knot classification",
    )


def classify_spec(spec: TLinkSpec) -> Verdict:
    """Classify a generic T-link spec through the gateway tlink.reduce_tlink.

    Specs outside the full-twist shape yield InvalidInput, not an error.
    """
    reduced, form = reduce_tlink(spec)
    if form is None:
        return Verdict(
            INVALID_INPUT,
            None,
            f"{reduced} is not of full-twist form over a torus base",
        )
    return classify_form(form)
