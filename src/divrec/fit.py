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
  direction ``_line`` takes.

All arithmetic is exact; no bound on the magnitude of (a, b) is assumed.
The plain-value core ``_solution(seq)`` tests the gcd of the first row
(e2, e1, e3), applies Cramer's rule to the first row not parallel to it,
and returns a tuple; validate and the searches read only its kind, and
``_fit`` builds its ``FitVerdict``, a ``NamedTuple`` that costs less than
the solve it describes.  ``_line`` states the line contract once, and
``_holds`` e3 = a*e2 + b*e1, for ``verify_params`` and prediction checks.

``solutions_in_box`` and ``brute_force_fit`` list (a, b) in the box
|a|, |b| <= bound.  Up to ``_GRID_MAX`` they hand out the tuples of one
cached grid, ``_grid(bound)``, where (a, b) sits at index
(a + bound)*(2*bound + 1) + b + bound: a point is one element, and a line
or a three-term residue column one slice, whose step is the index offset
of its direction.  Above the limit each call builds its own points.
Every answer is a new list, so a caller may change it freely.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
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


def solve_fit(seq: Sequence[int]) -> FitVerdict:
    """Complete (a, b) solution set for a strictly increasing sequence."""
    _check_sequence(seq)
    return _fit(seq)


def _fit(seq: Sequence[int]) -> FitVerdict:
    """``solve_fit`` for a sequence already known to pass its checks.  A line
    ca*a + cb*b = rhs has gcd(ca, cb) = 1 and, as e1 < e2 gives g < e2,
    ca >= 2 and cb >= 1; it runs along (cb, -ca), and its base has
    b = rhs / cb mod ca (a unique member, so verdicts compare by equality)."""
    sol = _solution(seq)
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


# Bounds up to _GRID_MAX read the cached grid, ``_grid``, which holds one
# bound at a time, and every answer hands out the grid's own tuples; above
# it each call builds its points.
# The grid at 64 holds 16 641 points and costs 1.4 ms and 1.1 MiB to build;
# at the CLI cap of 300 it would cost 69 ms and 28 MiB (best of 7 builds,
# Python 3.11 on a 2-CPU VM).
_GRID_MAX = 64


@lru_cache(maxsize=1)
def _grid(bound: int) -> tuple[tuple[int, int], ...]:
    """Every (a, b) with |a|, |b| <= bound, in a-major order: (a, b) sits at
    index (a + bound)*(2*bound + 1) + b + bound."""
    vals = range(-bound, bound + 1)
    return tuple([(a, b) for a in vals for b in vals])


def _box(bound: int) -> list[tuple[int, int]]:
    """Every (a, b) with |a|, |b| <= bound, in a-major order, as a new list."""
    if bound <= _GRID_MAX:
        return list(_grid(bound))
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

    The cost is paid per scanned column.  The first row (e2, e1, e3) is
    read straight from the sequence; the later rows, the width
    w = 2*bound + 1 and the grid are read only at the first column that
    passes, so a sequence with none reads none of them.  Along a class
    b steps by -e2 as a steps by e1, and each point meets the second row
    before the rest.  Each column holds at most one hit and a class's hits
    come in a-major order, so the hits are sorted only when a second class
    passes and the classes interleave.

    Up to ``_GRID_MAX`` a hit is the ``_grid`` tuple at index
    (a + bound)*w + b + bound.  A three-term sequence has no rows left to
    check, so each passing residue class is one slice of the grid: a step
    (e1, -e2) moves the index by e1*w - e2, which is >= 1 whenever the
    class has two points in the box, as then e2 <= 2*bound.  Above the
    limit such a class is the pairs of two ranges, a up by e1, b down by e2.
    """
    _check_sequence(seq)
    if type(bound) is not int or bound < 1:
        raise ContractViolation("bound must be an int >= 1")
    if len(seq) <= 2:
        return _box(bound)
    cb, ca, rhs = seq[0], seq[1], seq[2]
    lo = max(-bound, -((cb * bound - rhs) // ca))
    hi = min(bound, (rhs + cb * bound) // ca)
    hits = []
    classes = 0
    for first in range(lo, min(lo + cb, hi + 1)):
        if (rhs - ca * first) % cb:
            continue
        if not classes:  # the first passing column
            w = 2 * bound + 1
            grid = _grid(bound) if bound <= _GRID_MAX else None
            later = len(seq) > 3
            if later:
                y1, x1, z1 = seq[1], seq[2], seq[3]
                rest = list(zip(seq[3:], seq[2:], seq[4:]))
        classes += 1
        b = (rhs - ca * first) // cb
        if not later:  # every point of a three-term class is a hit
            if grid:
                step = max(cb * w - ca, 1)  # a class with one point takes any step
                i = (first + bound) * w + b + bound
                hits += grid[i : i + (hi - first) // cb * step + 1 : step]
            else:
                hits += zip(range(first, hi + 1, cb), range(b, -bound - 1, -ca))
            continue
        for a in range(first, hi + 1, cb):
            if x1 * a + y1 * b == z1:
                for x, y, z in rest:
                    if x * a + y * b != z:
                        break
                else:
                    hits.append(grid[(a + bound) * w + b + bound] if grid else (a, b))
            b -= ca
    if classes > 1:
        hits.sort()
    return hits


def _line(verdict: FitVerdict) -> tuple[int, int, int, int]:
    """(a0, b0, du, dv) of a line verdict that runs as ``solve_fit`` makes it,
    along (du, dv) with du > 0 > dv.  Any other direction is refused."""
    (a0, b0), (du, dv) = verdict.line_base, verdict.line_dir
    if not du > 0 > dv:
        raise ContractViolation("a line must run along (du, dv) with du > 0 > dv")
    return a0, b0, du, dv


def solutions_in_box(verdict: FitVerdict, bound: int) -> list[tuple[int, int]]:
    """The verdict's solution set intersected with |a|, |b| <= bound, in
    a-major order.  Along a line (see ``_line``) a and b each bound t to one
    window of floor divisions, and a grows with t.

    Up to ``_GRID_MAX`` the points are the ``_grid`` tuples, at index
    (a + bound)*w + b + bound, w = 2*bound + 1: a point is one element and
    a line one slice, since a step (du, dv) moves the index by du*w + dv.
    That is >= 1 whenever two points of the line lie in the box, as then
    -dv <= 2*bound; a line with one point there takes any step.
    """
    if type(bound) is not int or bound < 1:
        raise ContractViolation("bound must be an int >= 1")
    kind = verdict.kind
    if kind is _EMPTY:
        return []
    w = 2 * bound + 1
    grid = _grid(bound) if bound <= _GRID_MAX else None
    if kind is _POINT:
        a, b = verdict.point
        if abs(a) > bound or abs(b) > bound:
            return []
        return [grid[(a + bound) * w + b + bound] if grid else (a, b)]
    if kind is _VACUOUS:
        return _box(bound)
    a0, b0, du, dv = _line(verdict)
    lo = max(-((bound + a0) // du), -((bound - b0) // -dv))
    hi = min((bound - a0) // du, (bound + b0) // -dv)
    if not grid:
        return [(a0 + t * du, b0 + t * dv) for t in range(lo, hi + 1)]
    if hi < lo:
        return []
    step = max(du * w + dv, 1)
    i = (a0 + lo * du + bound) * w + b0 + lo * dv + bound
    return list(grid[i : i + (hi - lo) * step + 1 : step])
