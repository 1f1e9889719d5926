"""Ground-truth recurrence verdicts for the strict divisor sets.

These are brute facts computed from the divisor sets themselves: build
the set, solve the recurrence system exactly, report whether any (a, b)
exists.  The theorem classifiers are checked *against* these verdicts,
never the other way around.  Only ``verdict_for_sequence`` checks its
input; internal callers read the cores of ``divrec.fit`` directly.
"""

from __future__ import annotations

from typing import NamedTuple

from .fit import _EMPTY, _LINE, _POINT, _VACUOUS, FitVerdict, _check_sequence, _fit, _line

__all__ = [
    "RecurrenceVerdict",
    "canonical_witness",
    "verdict_for_sequence",
]


class RecurrenceVerdict(NamedTuple):
    recurrent: bool
    vacuous: bool
    fit: FitVerdict
    witness: tuple[int, int] | None


def canonical_witness(fit: FitVerdict) -> tuple[int, int] | None:
    """A reproducible representative (a, b) of a nonempty solution set.

    Point verdicts return the point; lines return the member minimizing
    |a|, then |b|, with ties broken toward nonnegative a.
    """
    if fit.kind is _POINT:
        return fit.point
    if fit.kind is not _LINE:
        return None
    a0, b0, du, dv = _line(fit)
    t0 = (-a0) // du  # floor of the real minimizer of |a|
    best = None
    for t in (t0, t0 + 1):
        a, b = a0 + t * du, b0 + t * dv
        key = (abs(a), abs(b), 1 if a < 0 else 0)
        if best is None or key < best[0]:
            best = (key, (a, b))
    return best[1]


def verdict_for_sequence(seq) -> RecurrenceVerdict:
    """Verdict for a strictly increasing positive sequence within the input bound."""
    seq = list(seq)
    _check_sequence(seq)
    fit = _fit(seq)
    kind = fit.kind
    return RecurrenceVerdict(kind is not _EMPTY, kind is _VACUOUS, fit, canonical_witness(fit))
