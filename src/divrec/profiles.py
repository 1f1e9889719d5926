"""Strict divisor profiles and the divisor-count identity.

The two sets of interest exclude the trivial endpoints *and* the square
root: small_strict = {d : 1 < d < sqrt(n), d | n} and
large_strict = {d : sqrt(n) < d < n, d | n}.  Membership is decided by
comparing d*d against n, never through floating point.

``_strict_sets`` cuts both sets of one n from its sorted divisors, each by
its own bisection; ``profile`` wraps it with the divisor count and the
square flag, and is the reference.  Range scans of ``validate`` take the
sets from ``_profile_range``, a segmented divisor sieve that falls back to
``_strict_sets`` where n is too large for the segment to be sieved
cheaply; the ``tau-check`` sweep calls ``_strict_sets`` for every n, so
its reflection test compares two independently cut slices.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from math import isqrt
from typing import Iterator, NamedTuple

from .arith import (
    ContractViolation,
    Factorization,
    _divisors,
    _factor_range,
    factorize,
    isqrt_exact,
    tau,
)

__all__ = [
    "DivisorProfile",
    "check_tau_identity",
    "profile",
]


class DivisorProfile(NamedTuple):
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
    small, large = _strict_sets(n, f.factors)
    return DivisorProfile(n, small, large, tau(f), isqrt_exact(n)[1])


def _strict_sets(n: int, factors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(S'(n), L'(n)) from the prime factorization ``factors`` of n."""
    divs = _divisors(factors)
    root = isqrt(n)
    exact = root * root == n
    # d*d < n iff d <= root - exact, and d*d > n iff d > root; each set is
    # cut from the sorted divisors on its own, so the tau identity and the
    # reflection test still check two independent slices.
    small = tuple(divs[1 : bisect_left(divs, root + 1 - exact)])
    large = tuple(divs[bisect_right(divs, root) : -1])
    return small, large


def _tau_identity(t: int, is_square: bool, small, large) -> bool:
    """Divisor count vs set sizes: 2|S'| + 2 (+1 more if n is a square)."""
    base = 3 if is_square else 2
    return t == 2 * len(small) + base and t == 2 * len(large) + base


def check_tau_identity(n: int) -> bool:
    """The divisor-count identity for n; False signals a bug, not a property of n."""
    prof = profile(n)
    return _tau_identity(prof.tau, prof.is_square, prof.small_strict, prof.large_strict)


# A segment of the divisor sieve spans at most this many n, so its lists of
# small divisors stay a small working set.
_SIEVE_SEGMENT = 4096
# The sieve walks every d <= isqrt(end - 1) once per segment, so a segment
# is sieved only when that many d stay within this multiple of its length;
# otherwise each n goes through ``_strict_sets``.  CPU time, best of 15 on a
# 2-CPU VM, factor sieve included, sieve against per-n in µs per n: 4 096 n
# at 2.7*10^8 (isqrt/length 4.0) 11.5 vs 13.3, at 4.2*10^8 (5.0) 13.1 vs
# 13.4, at 6.0*10^8 (6.0) 15.0 vs 14.5, at 10^9 (7.7) 16.9 vs 14.9; 500 n
# at 4*10^6 (4.0) 8.7 vs 9.9, at 6.25*10^6 (5.0) 10.4 vs 10.2, at 9*10^6
# (6.0) 11.2 vs 9.7, at 1.6*10^7 (8.0) 13.8 vs 10.3.
_SIEVE_MAX_ROOT_RATIO = 5


def _profile_range(lo: int, hi_excl: int) -> Iterator[tuple[int, tuple, tuple, tuple]]:
    """``(n, factors, S'(n), L'(n))`` for lo <= n < hi_excl, in order, 2 <= lo,
    with the sets of ``profile(n)`` and the factors of ``factorize(n)``.

    Factorizations come from ``_factor_range``.  Where a segment is cheap to
    sieve, each d >= 2 is appended to the list of every multiple n > d*d,
    which yields S'(n) sorted and leaves out the root of a square; L'(n) is
    n // d over S'(n) reversed.
    """
    facs = _factor_range(lo, hi_excl)
    for start in range(lo, hi_excl, _SIEVE_SEGMENT):
        end = min(start + _SIEVE_SEGMENT, hi_excl)
        size = end - start
        top = isqrt(end - 1)
        if top > _SIEVE_MAX_ROOT_RATIO * size:
            for n, factors in islice(facs, size):
                yield n, factors, *_strict_sets(n, factors)
            continue
        small: list[list[int]] = [[] for _ in range(size)]
        for d in range(2, top + 1):
            first = max(d * d + d, -(-start // d) * d)
            for divs in small[first - start :: d]:
                divs.append(d)
        for divs, (n, factors) in zip(small, facs):
            yield n, factors, tuple(divs), tuple([n // d for d in reversed(divs)])
