"""Exact order-two linear recurrence fitting.

A strictly increasing positive sequence e1 < e2 < ... < em satisfies
integer parameters (a, b) when e_{i+2} = a*e_{i+1} + b*e_i for every
applicable i.  ``solve_fit`` returns the complete integer solution set of
that linear system:

* vacuous  - fewer than three terms, every (a, b) works;
* empty    - no integer pair works;
* point    - exactly one pair;
* line     - a one-parameter family base + t*dir, t in Z, which happens
  exactly for a single binding constraint (three terms) or a geometric
  sequence with integer ratio; dir = (du, dv) has du > 0 > dv, the only
  direction ``solutions_in_box`` takes.

All arithmetic is exact; no bound on the magnitude of (a, b) is assumed.
The plain-value core ``_solution(seq)`` tests the gcd of the first row
(e2, e1, e3), applies Cramer's rule to the first row not parallel to it,
and returns a tuple; validate reads only its kind, and ``_fit`` wraps the
tuple in a ``FitVerdict``, a ``NamedTuple`` that costs less to build than
the solve it describes.  ``_holds`` states e3 = a*e2 + b*e1 once, for
``verify_params`` and the classifiers' prediction checks.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import NamedTuple, Sequence

from .arith import ContractViolation, _guard

__all__ = [
    "FitKind",
    "FitVerdict",
    "brute_force_fit",
    "constraints_of",
    "solve_fit",
    "solutions_in_box",
    "verify_params",
]


class FitKind(Enum):
    VACUOUS = "vacuous"
    EMPTY = "empty"
    POINT = "point"
    LINE = "line"


class FitVerdict(NamedTuple):
    """Complete solution set of the recurrence constraints on a sequence."""

    kind: FitKind
    point: tuple[int, int] | None = None
    line_base: tuple[int, int] | None = None
    line_dir: tuple[int, int] | None = None


# frozen: every empty result shares one, and every vacuous result the other
_EMPTY_FIT = FitVerdict(FitKind.EMPTY)
_VACUOUS_FIT = FitVerdict(FitKind.VACUOUS)
# the tags of ``_solution``'s tuples (each FitKind.X lookup costs ~0.17 us)
_VACUOUS, _EMPTY, _POINT, _LINE = FitKind.VACUOUS, FitKind.EMPTY, FitKind.POINT, FitKind.LINE
_EMPTY_SOL, _VACUOUS_SOL = (_EMPTY,), (_VACUOUS,)


def _check_sequence(seq: Sequence[int]) -> None:
    for i, v in enumerate(seq):
        if v < 1:
            raise ContractViolation("sequence entries must be positive")
        if i and seq[i - 1] >= v:
            raise ContractViolation("sequence must be strictly increasing")
    if seq:
        _guard(seq[-1])


def constraints_of(seq: Sequence[int]) -> list[tuple[int, int, int]]:
    """Adjacent-triple constraints (a_coef, b_coef, rhs): a_coef*a + b_coef*b = rhs."""
    return [(seq[i + 1], seq[i], seq[i + 2]) for i in range(len(seq) - 2)]


def _solution(seq: Sequence[int]) -> tuple:
    """Solve ca*a + cb*b = rhs over the rows (e2, e1, e3) of a sequence known
    to pass its checks, exactly over the integers, as plain values:
    ``(VACUOUS,)`` exactly when it has at most two terms, else ``(EMPTY,)``,
    ``(POINT, a, b)`` or ``(LINE, ca, cb, rhs)`` (the first row over g).

    The first row is solvable iff g = gcd(ca, cb) divides rhs, tested
    before the next row is read.  The first later row with det =
    ca*c2b - cb*c2a != 0 pins (a, b) by Cramer's rule, two exact divisions
    by det, and the rest are checked at that point.  A row with det == 0
    must be proportional to the first, rhs included.  Rows are read once,
    in order, and no further than a contradiction.
    """
    if len(seq) <= 2:
        return _VACUOUS_SOL
    rows = zip(seq[1:], seq, seq[2:])
    ca, cb, rhs = next(rows)
    g = gcd(ca, cb)
    if rhs % g:
        return _EMPTY_SOL
    for c2a, c2b, r2 in rows:
        det = ca * c2b - cb * c2a
        if det:
            a, a_rem = divmod(rhs * c2b - cb * r2, det)
            b, b_rem = divmod(ca * r2 - rhs * c2a, det)
            if a_rem or b_rem:
                return _EMPTY_SOL
            for x, y, z in rows:
                if x * a + y * b != z:
                    return _EMPTY_SOL
            return (_POINT, a, b)
        if ca * r2 != rhs * c2a or cb * r2 != rhs * c2b:
            return _EMPTY_SOL
    return (_LINE, ca // g, cb // g, rhs // g)


def _as_verdict(sol: tuple) -> FitVerdict:
    """The ``FitVerdict`` of a ``_solution`` result.  A line ca*a + cb*b = rhs
    has gcd(ca, cb) = 1 and, as e1 < e2 gives g < e2, ca >= 2 and cb >= 1;
    it runs along (cb, -ca), and its base has b = rhs / cb mod ca (a unique
    member, so verdicts compare by equality)."""
    kind = sol[0]
    if kind is _EMPTY:
        return _EMPTY_FIT
    if kind is _POINT:
        return FitVerdict(kind, sol[1:])
    if kind is _VACUOUS:
        return _VACUOUS_FIT
    _, ca, cb, rhs = sol
    b = rhs * pow(cb, -1, ca) % ca
    return FitVerdict(kind, None, ((rhs - cb * b) // ca, b), (cb, -ca))


def solve_fit(seq: Sequence[int]) -> FitVerdict:
    """Complete (a, b) solution set for a strictly increasing sequence."""
    _check_sequence(seq)
    return _fit(seq)


def _fit(seq: Sequence[int]) -> FitVerdict:
    """``solve_fit`` for a sequence already known to pass its checks."""
    return _as_verdict(_solution(seq))


def verify_params(seq: Sequence[int], a: int, b: int) -> bool:
    """True iff every adjacent triple obeys e3 = a*e2 + b*e1."""
    _check_sequence(seq)
    return _holds(seq, a, b)


def _holds(seq: Sequence[int], a: int, b: int) -> bool:
    """``verify_params`` for a sequence already known to pass its checks."""
    for e1, e2, e3 in zip(seq, seq[1:], seq[2:]):
        if e3 != a * e2 + b * e1:
            return False
    return True


def _box(bound: int) -> list[tuple[int, int]]:
    """Every (a, b) with |a|, |b| <= bound, in a-major order."""
    vals = range(-bound, bound + 1)
    return [(a, b) for a in vals for b in vals]


def brute_force_fit(seq: Sequence[int], bound: int) -> list[tuple[int, int]]:
    """Every (a, b) with |a|, |b| <= bound satisfying all constraints.

    Independent oracle for ``solve_fit``: a scan of the grid's columns that
    decides each point from the raw constraints and never touches the gcd
    machinery.  For each a, the first constraint e3 = a*e2 + b*e1 admits
    at most one b, so only that point of the column is checked against the
    remaining constraints.  ``_check_sequence`` gives e2 >= 2 and e1 >= 1,
    and the scan visits only the columns where that b can be an integer in
    the box:

    * window: b = (e3 - a*e2) / e1 decreases in a, so |b| <= bound exactly
      when ceil((e3 - bound*e1) / e2) <= a <= floor((e3 + bound*e1) / e2);
      proof: -bound*e1 <= e3 - a*e2 <= bound*e1, divided by e2 > 0.
    * residue class: whether e1 divides e3 - a*e2 depends only on a mod e1;
      proof: a -> a + e1 changes e3 - a*e2 by -e1*e2.  So the first e1
      columns of the window are tested, and from each that passes the
      scan steps through the window by e1.

    Each column holds at most one hit, so sorting the hits gives a-major
    order.
    """
    _check_sequence(seq)
    if bound < 1:
        raise ContractViolation("bound must be >= 1")
    cons = constraints_of(seq)
    if not cons:
        return _box(bound)
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


def solutions_in_box(verdict: FitVerdict, bound: int) -> list[tuple[int, int]]:
    """The verdict's solution set intersected with |a|, |b| <= bound, in
    a-major order.  A line must run as ``solve_fit`` makes it, along (du, dv)
    with du > 0 > dv: then a and b each bound t to one window of floor
    divisions, and a grows with t.  Any other direction is refused."""
    if bound < 1:
        raise ContractViolation("bound must be >= 1")
    if verdict.kind is FitKind.EMPTY:
        return []
    if verdict.kind is FitKind.POINT:
        a, b = verdict.point
        return [(a, b)] if abs(a) <= bound and abs(b) <= bound else []
    if verdict.kind is FitKind.VACUOUS:
        return _box(bound)
    a0, b0 = verdict.line_base
    du, dv = verdict.line_dir
    if not du > 0 > dv:
        raise ContractViolation("a line must run along (du, dv) with du > 0 > dv")
    lo = max(-((bound + a0) // du), -((bound - b0) // -dv))
    hi = min((bound - a0) // du, (bound + b0) // -dv)
    return [(a0 + t * du, b0 + t * dv) for t in range(lo, hi + 1)]
