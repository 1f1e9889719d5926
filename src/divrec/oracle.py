"""Ground-truth recurrence verdicts for the strict divisor sets.

These are brute facts computed from the divisor sets themselves: build
the set, solve the recurrence system exactly, report whether any (a, b)
exists.  The theorem classifiers are checked *against* these verdicts,
never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import ContractViolation, Factorization
from .fit import FitKind, FitVerdict, _check_sequence, constraints_of, solve_constraints
from .profiles import profile

__all__ = [
    "RecurrenceVerdict",
    "canonical_witness",
    "large_verdict",
    "small_verdict",
    "verdict_for_sequence",
]


@dataclass(frozen=True)
class RecurrenceVerdict:
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


# Every set of at most two terms satisfies every (a, b): one shared verdict.
_VACUOUS = RecurrenceVerdict(True, True, FitVerdict(FitKind.VACUOUS), None)


def verdict_for_sequence(seq) -> RecurrenceVerdict:
    """Verdict for a strictly increasing positive sequence within the input bound."""
    seq = list(seq)
    _check_sequence(seq)
    return _verdict(seq)


def _verdict(seq) -> RecurrenceVerdict:
    """``verdict_for_sequence`` for a sequence already known to pass its checks,
    such as a strict divisor set of a guarded n."""
    if len(seq) <= 2:
        return _VACUOUS
    # positive coefficients: the solution set is never vacuous here
    fit = solve_constraints(constraints_of(seq))
    if fit.kind is FitKind.EMPTY:
        return RecurrenceVerdict(False, False, fit, None)
    return RecurrenceVerdict(True, False, fit, canonical_witness(fit))


def small_verdict(n: int, *, fac: Factorization | None = None) -> RecurrenceVerdict:
    """Does the strict small-divisor set of n satisfy some order-2 recurrence?"""
    if n < 2:
        raise ContractViolation("small_verdict requires n >= 2")
    return verdict_for_sequence(profile(n, fac=fac).small_strict)


def large_verdict(n: int, *, fac: Factorization | None = None) -> RecurrenceVerdict:
    """Does the strict large-divisor set of n satisfy some order-2 recurrence?"""
    if n < 2:
        raise ContractViolation("large_verdict requires n >= 2")
    return verdict_for_sequence(profile(n, fac=fac).large_strict)
