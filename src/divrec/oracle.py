"""Ground-truth recurrence verdicts for the strict divisor sets.

These are brute facts computed from the divisor sets themselves: build
the set, solve the recurrence system exactly, report whether any (a, b)
exists.  The theorem classifiers are checked *against* these verdicts,
never the other way around.
"""

from __future__ import annotations

from typing import NamedTuple

from .fit import _EMPTY, _VACUOUS, FitKind, FitVerdict, _check_sequence, _fit

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
    if fit.kind is FitKind.POINT:
        return fit.point
    if fit.kind is not FitKind.LINE:
        return None
    a0, b0 = fit.line_base
    du, dv = fit.line_dir
    # floor of the real minimizer of |a| (or |b| when the line is vertical)
    t0 = (-a0) // du if du != 0 else (-b0) // dv
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
    return _verdict(seq)


def _verdict(seq) -> RecurrenceVerdict:
    """``verdict_for_sequence`` for a sequence already known to pass its checks,
    such as a strict divisor set of a guarded n."""
    fit = _fit(seq)
    kind = fit.kind
    return RecurrenceVerdict(kind is not _EMPTY, kind is _VACUOUS, fit, canonical_witness(fit))
