"""Strict divisor profiles and the divisor-count identity.

The two sets of interest exclude the trivial endpoints *and* the square
root: small_strict = {d : 1 < d < sqrt(n), d | n} and
large_strict = {d : sqrt(n) < d < n, d | n}.  Membership is decided by
comparing d*d against n, never through floating point.

``_strict_sets`` cuts both sets of one n from its sorted divisors, each by
its own bisection; ``profile`` wraps it with the divisor count and the
square flag, and is the reference.  Range scans of ``validate`` take the
sets from ``harness._profile_range``, a segmented divisor sieve that falls
back to ``_strict_sets`` where n is too large for the segment to be sieved
cheaply; the ``tau-check`` sweep calls ``_strict_sets`` for every n, so
its reflection test compares two independently cut slices.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isqrt
from typing import NamedTuple

from .arith import (
    ContractViolation,
    Factorization,
    _divisors,
    _factored,
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
    """Full divisor profile of n >= 2 (pass ``fac`` to skip refactoring).

    ``fac`` must name n and list strictly increasing primes, each with an
    exponent of at least 1, whose powers multiply to n; anything else raises
    ``ContractViolation``.  The primes are checked with ``is_prime``."""
    if n < 2:
        raise ContractViolation("profile requires n >= 2")
    f = _factored(n, fac)
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
