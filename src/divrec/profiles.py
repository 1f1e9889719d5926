"""Strict divisor profiles and the divisor-count identity.

The two sets of interest exclude the trivial endpoints *and* the square
root: small_strict = {d : 1 < d < sqrt(n), d | n} and
large_strict = {d : sqrt(n) < d < n, d | n}.  Membership is decided by
comparing d*d against n, never through floating point.

``profile`` builds the sets of one n from its sorted divisors; it is the
reference.  Range scans of ``validate`` take them from ``_profile_range``,
a segmented divisor sieve that falls back to ``profile`` where n is too
large for the segment to be sieved cheaply.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .arith import (
    ContractViolation,
    Factorization,
    divisors_sorted,
    factor_range,
    factorize,
    isqrt_exact,
    tau,
)

__all__ = [
    "DivisorProfile",
    "check_tau_identity",
    "profile",
    "tau_identity_holds",
]


@dataclass(frozen=True)
class DivisorProfile:
    n: int
    small_strict: tuple[int, ...]
    large_strict: tuple[int, ...]
    tau: int
    is_square: bool


def profile(n: int, *, fac: Factorization | None = None) -> DivisorProfile:
    """Full divisor profile of n >= 2 (pass ``fac`` to skip refactoring)."""
    if n < 2:
        raise ContractViolation("profile requires n >= 2")
    f = fac if fac is not None else factorize(n)
    divs = divisors_sorted(f)
    root, exact = isqrt_exact(n)
    # d*d < n iff d <= root - exact, and d*d > n iff d > root; each set is
    # cut from the sorted divisors on its own, so the tau identity and the
    # reflection test still check two independent slices.
    small = tuple(divs[1 : bisect_left(divs, root + 1 - exact)])
    large = tuple(divs[bisect_right(divs, root) : -1])
    return DivisorProfile(n, small, large, tau(f), exact)


def tau_identity_holds(prof: DivisorProfile) -> bool:
    """Divisor count vs set sizes: 2|S'| + 2 (+1 more if n is a square)."""
    base = 3 if prof.is_square else 2
    return (
        prof.tau == 2 * len(prof.small_strict) + base
        and prof.tau == 2 * len(prof.large_strict) + base
    )


def check_tau_identity(n: int) -> bool:
    """The divisor-count identity for n; False signals a bug, not a property of n."""
    return tau_identity_holds(profile(n))


# A segment of the divisor sieve spans at most this many n, so its lists of
# small divisors stay a small working set.
_SIEVE_SEGMENT = 4096
# The sieve walks every d <= isqrt(end - 1) once per segment, so a segment
# is sieved only when that many d stay within this multiple of its length;
# otherwise each n goes through ``profile``.  Best of five on a 2-CPU VM,
# factor_range included, sieve against per-n in µs per n: 4 096 n at 10^6
# (isqrt/length 0.24) 6.7 vs 11.7, at 10^9 (7.7) 13.3 vs 14.5, at 4*10^9
# (15.4) 23.7 vs 15.7; 500 n at 1.6*10^7 (8.0) 12.6 vs 12.9, at 5*10^7
# (14.1) 18.1 vs 13.6.
_SIEVE_MAX_ROOT_RATIO = 8


def _profile_range(lo: int, hi_excl: int) -> Iterator[tuple[int, tuple, tuple, tuple]]:
    """``(n, factors, S'(n), L'(n))`` for lo <= n < hi_excl, in order, 2 <= lo,
    with the sets of ``profile(n)`` and the factors of ``factorize(n)``.

    Factorizations come from ``factor_range``.  Where a segment is cheap to
    sieve, each d >= 2 is appended to the list of every multiple n > d*d,
    which yields S'(n) sorted and leaves out the root of a square; L'(n) is
    n // d over S'(n) reversed.
    """
    facs = factor_range(lo, hi_excl)
    for start in range(lo, hi_excl, _SIEVE_SEGMENT):
        end = min(start + _SIEVE_SEGMENT, hi_excl)
        size = end - start
        top = isqrt(end - 1)
        if top > _SIEVE_MAX_ROOT_RATIO * size:
            for _, f in zip(range(size), facs):
                prof = profile(f.n, fac=f)
                yield f.n, f.factors, prof.small_strict, prof.large_strict
            continue
        small: list[list[int]] = [[] for _ in range(size)]
        for d in range(2, top + 1):
            first = max(d * d + d, -(-start // d) * d)
            for divs in small[first - start :: d]:
                divs.append(d)
        for n, divs, f in zip(range(start, end), small, facs):
            yield n, f.factors, tuple(divs), tuple([n // d for d in reversed(divs)])
