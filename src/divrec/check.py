"""One-n cross-validation of oracle vs classifier, and canonical JSON.

``_evaluate`` is the one core of every comparison: fit kinds from
``fit._solution``, form matches from the classifier cores, stated
recurrences by ``fit._holds``.  It returns n's outcome as a plain tuple;
errata, verdict objects and witnesses are built only when an outcome files
one.  ``check_single`` runs it on one ``profile``, and the block scans of
``divrec.harness`` run it on every n of a range.  This module is all that
``import divrec`` and the one-n commands load of the cross-validation;
``harness`` (range scans, both sieves, reports) loads on first use.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import ContractViolation, factorize
from .classify import LARGE, SMALL, _large_forms, _prediction_holds, _small_forms
from .fit import _EMPTY, _VACUOUS, _solution
from .oracle import _verdict
from .profiles import profile

__all__ = [
    "ErrataEntry",
    "KIND_CLASSIFIER_ONLY",
    "KIND_ORACLE_ONLY",
    "KIND_PREDICTION",
    "ValidationRecord",
    "canonical_json",
    "check_single",
    "jsonable",
]

KIND_ORACLE_ONLY = "OracleYesClassifierNo"
KIND_CLASSIFIER_ONLY = "OracleNoClassifierYes"
KIND_PREDICTION = "PredictionMismatch"


class ValidationRecord(NamedTuple):
    n: int
    small_oracle: bool
    small_forms: tuple[int, ...]
    large_oracle: bool
    large_forms: tuple[int, ...]
    prediction_ok: bool


class ErrataEntry(NamedTuple):
    n: int
    theorem: str
    kind: str
    detail: str


def _evaluate(n: int, sig, small: tuple[int, ...], large: tuple[int, ...]):
    """Oracle against classifiers for n with signature ``sig`` and strict sets
    ``small`` and ``large``: ``(outcome, errata)``.

    ``outcome`` is a plain tuple of bools and int tuples, so a block can key
    on it: (small recurrent, small vacuous, small form ids, large recurrent,
    large vacuous, large form ids, prediction_ok).  ``errata`` is ``()``
    unless the outcome files one.
    """
    # divisor sets of n are sorted, positive and below n, which is guarded:
    # neither the fit nor the prediction checks test them again
    s_kind = _solution(small)[0]
    l_kind = _solution(large)[0]
    sm = _small_forms(sig)
    lm = _large_forms(sig)
    ok = True
    for _, _, pset, pu in sm:
        if not _prediction_holds(pset, pu, small):
            ok = False
    for _, _, pset, pu in lm:
        if not _prediction_holds(pset, pu, large):
            ok = False
    s_rec = s_kind is not _EMPTY
    l_rec = l_kind is not _EMPTY
    # most sides match no form
    s_ids = tuple([m[0] for m in sm]) if sm else ()
    l_ids = tuple([m[0] for m in lm]) if lm else ()
    outcome = (s_rec, s_kind is _VACUOUS, s_ids, l_rec, l_kind is _VACUOUS, l_ids, ok)
    if ok and s_rec == bool(s_ids) and l_rec == bool(l_ids):
        return outcome, ()
    errata = [
        ErrataEntry(
            n, theorem, KIND_PREDICTION,
            f"form {form_id} predicted {list(pset or ())} "
            f"u={pu}, computed {list(computed)}",
        )
        for theorem, forms, computed in ((SMALL, sm, small), (LARGE, lm, large))
        for form_id, _, pset, pu in forms
        if not _prediction_holds(pset, pu, computed)
    ]
    if s_rec != bool(s_ids):
        errata.append(_disagreement(n, SMALL, s_rec, s_ids, small))
    if l_rec != bool(l_ids):
        errata.append(_disagreement(n, LARGE, l_rec, l_ids, large))
    return outcome, errata


def _disagreement(n, theorem, recurrent, form_ids, divs) -> ErrataEntry:
    """The erratum for an oracle verdict that its form matches contradict."""
    name = "S'" if theorem == SMALL else "L'"
    if recurrent:
        witness = _verdict(divs).witness
        text = "vacuously recurrent" if witness is None else f"witness (a, b) = {witness}"
        return ErrataEntry(
            n, theorem, KIND_ORACLE_ONLY,
            f"{name} = {list(divs)}; {text}; no form matches",
        )
    return ErrataEntry(
        n, theorem, KIND_CLASSIFIER_ONLY,
        f"forms {list(form_ids)} matched but "
        f"{name} = {list(divs)} admits no fit",
    )


def check_single(n: int) -> ValidationRecord:
    """The validation record of one n, from one ``profile``."""
    if n < 2:
        raise ContractViolation("check_single requires n >= 2")
    f = factorize(n)
    prof = profile(n, fac=f)
    (s_rec, _, s_ids, l_rec, _, l_ids, ok), _ = _evaluate(
        n, f.factors, prof.small_strict, prof.large_strict
    )
    return ValidationRecord(n, s_rec, s_ids, l_rec, l_ids, ok)


# ----------------------------------------------------------------------
# serialization

_BIG = 1 << 53


def jsonable(obj):
    """Recursively convert to JSON-safe data; big integers become strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if type(obj) in (list, tuple):  # not a record: a NamedTuple is a tuple too
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    import json
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
