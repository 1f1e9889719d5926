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
from divrec.classify import (
    LARGE,
    SMALL,
    _divides,
    classify_large,
    classify_small,
    verify_prediction,
)
from divrec.fit import FitKind, FitVerdict, _line, constraints_of
from divrec.harness import _factor_range
from divrec.oracle import verdict_for_sequence
from divrec.profiles import profile


def profiles_in_range(lo, hi):
    """Yield profile(n) for lo <= n <= hi, factorized by a segmented sieve."""
    for n, factors in _factor_range(lo, hi + 1):
        yield profile(n, fac=Factorization(n, factors))


def divisors_by_blocks(factors):
    """``arith._divisors`` with the block loop for every prime, exponent 1
    included: each power p**i multiplies the block of the one before."""
    divs = [1]
    for p, e in factors:
        block = divs
        for _ in range(e):
            block = [d * p for d in block]
            divs += block
    divs.sort()
    return divs


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
    """The s7 candidates q that ``search._s7_candidates`` yields for p, from
    every j up to its bound and no square test: q = isqrt(p^3) + 1, which
    the generator keeps only if q^2 - p^3 | p^2 - q, then each j's root."""
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


def s7_solution(p, q):
    """``classify._s7_solution`` as the square-root equation states it:
    r = p*q - sqrt(den*(p^2 - q)), den = q^2 - p^3, with den | p*q - r and
    den | r*q - p^4, and then a = p*(p*q - r)/den, b = (r*q - p^4)/den."""
    p2 = p * p
    den = q * q - p * p2
    rad = den * (p2 - q)
    if den <= 0 or rad <= 0:
        return None
    root = isqrt(rad)
    if root * root != rad:
        return None
    r = p * q - root
    if not (_divides(den, p * q - r) and _divides(den, r * q - p2 * p2)):
        return None
    return r, p * (p * q - r) // den, (r * q - p2 * p2) // den


def _ext_gcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _canonical_base(a0, b0, du, dv):
    # Slide along the direction until the coordinate with nonzero step is
    # reduced into [0, step).
    if dv != 0:
        step = abs(dv)
        t = ((b0 % step) - b0) // dv
    else:
        step = abs(du)
        t = ((a0 % step) - a0) // du
    return a0 + t * du, b0 + t * dv


def solve_constraints_eager(constraints):
    """The integer solution set of the rows {ca*a + cb*b = rhs}, each with a
    nonzero coefficient: the first row's line from the extended gcd, its
    parameter pinned by the next row not parallel to it.  It copies every
    row first, and shares no code with the package's Cramer's-rule solver."""
    live = list(constraints)
    if not live:
        return FitVerdict(FitKind.VACUOUS)
    ca, cb, rhs = live[0]
    g, x, y = _ext_gcd(ca, cb)
    if rhs % g:
        return FitVerdict(FitKind.EMPTY)
    a0, b0 = x * (rhs // g), y * (rhs // g)
    du, dv = cb // g, -(ca // g)
    if du < 0 or (du == 0 and dv < 0):
        du, dv = -du, -dv
    t_pin = None
    for ca, cb, rhs in live[1:]:
        if t_pin is None:
            coeff = ca * du + cb * dv
            rem = rhs - (ca * a0 + cb * b0)
            if coeff == 0:
                if rem != 0:
                    return FitVerdict(FitKind.EMPTY)
            elif rem % coeff:
                return FitVerdict(FitKind.EMPTY)
            else:
                t_pin = rem // coeff
        elif ca * (a0 + t_pin * du) + cb * (b0 + t_pin * dv) != rhs:
            return FitVerdict(FitKind.EMPTY)
    if t_pin is not None:
        return FitVerdict(FitKind.POINT, point=(a0 + t_pin * du, b0 + t_pin * dv))
    return FitVerdict(
        FitKind.LINE, line_base=_canonical_base(a0, b0, du, dv), line_dir=(du, dv)
    )


# ``solutions_in_box`` and ``brute_force_fit`` with one new tuple per point,
# as the package builds them only above ``fit._GRID_MAX``; below it they
# hand out the tuples of one cached grid.


def box_points(bound):
    """Every (a, b) with |a|, |b| <= bound, in a-major order."""
    vals = range(-bound, bound + 1)
    return [(a, b) for a in vals for b in vals]


def solutions_in_box_points(verdict, bound):
    """``solutions_in_box``: a line's points from its window of t."""
    if verdict.kind is FitKind.EMPTY:
        return []
    if verdict.kind is FitKind.POINT:
        a, b = verdict.point
        return [(a, b)] if abs(a) <= bound and abs(b) <= bound else []
    if verdict.kind is FitKind.VACUOUS:
        return box_points(bound)
    a0, b0, du, dv = _line(verdict)
    lo = max(-((bound + a0) // du), -((bound - b0) // -dv))
    hi = min((bound - a0) // du, (bound + b0) // -dv)
    return [(a0 + t * du, b0 + t * dv) for t in range(lo, hi + 1)]


def brute_force_fit_points(seq, bound):
    """``brute_force_fit``: the window and residue-class column scan, one
    new tuple per hit."""
    cons = constraints_of(seq)
    if not cons:
        return box_points(bound)
    (ca, cb, rhs), rest = cons[0], cons[1:]
    lo = max(-bound, -((cb * bound - rhs) // ca))
    hi = min(bound, (rhs + cb * bound) // ca)
    hits = []
    for first in range(lo, min(lo + cb, hi + 1)):
        if (rhs - ca * first) % cb:
            continue
        for a in range(first, hi + 1, cb):
            b = (rhs - ca * a) // cb
            for x, y, z in rest:
                if x * a + y * b != z:
                    break
            else:
                hits.append((a, b))
    hits.sort()
    return hits
