"""Slow, plain reference paths that tests compare the package's fast paths with.

Nothing in the package calls these: each one restates a result the
package computes another way, from public calls and ``_factor_range``.
"""

from math import isqrt

from divrec.arith import Factorization
from divrec.check import (
    KIND_CLASSIFIER_ONLY,
    KIND_ORACLE_ONLY,
    KIND_PREDICTION,
    ErrataEntry,
    ValidationRecord,
    canonical_json,
)
from divrec.classify import LARGE, SMALL, classify_large, classify_small, verify_prediction
from divrec.harness import _factor_range
from divrec.oracle import verdict_for_sequence
from divrec.profiles import profile


def profiles_in_range(lo, hi):
    """Yield profile(n) for lo <= n <= hi, factorized by a segmented sieve."""
    for n, factors in _factor_range(lo, hi + 1):
        yield profile(n, fac=Factorization(n, factors))


def small_verdict(n, fac=None):
    return verdict_for_sequence(profile(n, fac=fac).small_strict)


def large_verdict(n, fac=None):
    return verdict_for_sequence(profile(n, fac=fac).large_strict)


def validation_record_dict(rec):
    """A validation record as the dict its report line encodes."""
    return {
        "n": rec.n,
        "small_oracle": rec.small_oracle,
        "small_forms": list(rec.small_forms),
        "large_oracle": rec.large_oracle,
        "large_forms": list(rec.large_forms),
        "prediction_ok": rec.prediction_ok,
    }


def record_line(rec):
    """One report line: ``rec`` as canonical JSON, newline-terminated."""
    return canonical_json(rec._asdict()) + "\n"


def evaluate_by_objects(f, prof):
    """(record, errata, small vacuous, large vacuous) for one n, built from
    verdict and match objects: the formulas of the harness before its
    evaluation took plain values."""
    n = f.n
    sv = verdict_for_sequence(prof.small_strict)
    lv = verdict_for_sequence(prof.large_strict)
    sm = classify_small(n, fac=f)
    lm = classify_large(n, fac=f)

    errata = []
    prediction_ok = True
    for m in (*sm, *lm):
        if not verify_prediction(m, prof):
            prediction_ok = False
            side = prof.small_strict if m.theorem == SMALL else prof.large_strict
            errata.append(ErrataEntry(
                n, m.theorem, KIND_PREDICTION,
                f"form {m.form_id} predicted {list(m.predicted_set or ())} "
                f"u={m.predicted_u}, computed {list(side)}",
            ))
    if sv.recurrent != bool(sm):
        errata.append(_disagreement(n, SMALL, sv, sm, prof.small_strict))
    if lv.recurrent != bool(lm):
        errata.append(_disagreement(n, LARGE, lv, lm, prof.large_strict))

    record = ValidationRecord(
        n,
        sv.recurrent,
        tuple([m.form_id for m in sm]),
        lv.recurrent,
        tuple([m.form_id for m in lm]),
        prediction_ok,
    )
    return record, errata, sv.vacuous, lv.vacuous


def _disagreement(n, theorem, verdict, matches, divs):
    name = "S'" if theorem == SMALL else "L'"
    if verdict.recurrent:
        witness = (
            f"witness (a, b) = {verdict.witness}"
            if verdict.witness is not None
            else "vacuously recurrent"
        )
        return ErrataEntry(
            n, theorem, KIND_ORACLE_ONLY,
            f"{name} = {list(divs)}; {witness}; no form matches",
        )
    return ErrataEntry(
        n, theorem, KIND_CLASSIFIER_ONLY,
        f"forms {[m.form_id for m in matches]} matched but "
        f"{name} = {list(divs)} admits no fit",
    )


def s7_candidates(p):
    """The s7 candidates q of ``search._s7_candidates``, from every j up to
    its bound and no square test: q = isqrt(p^3) + 1, then each j's root."""
    p2 = p * p
    p3 = p2 * p
    s = isqrt(p3)
    qs = [s + 1]
    for j in range(1, isqrt((p2 - s - 2) // (2 * s + 4)) + 1):
        j2 = j * j
        q = (isqrt(1 + 4 * j2 * (j2 * p3 + p2)) - 1) // (2 * j2)
        if q > s + 1 and j2 * (q * q - p3) == p2 - q:
            qs.append(q)
    return qs
