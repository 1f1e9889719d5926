"""Strict divisor profiles and the divisor-count identity.

The two sets of interest exclude the trivial endpoints *and* the square
root: small_strict = {d : 1 < d < sqrt(n), d | n} and
large_strict = {d : sqrt(n) < d < n, d | n}.  Membership is decided by
comparing d*d against n, never through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "profiles_in_range",
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
    small = tuple(d for d in divs if 1 < d and d * d < n)
    large = tuple(d for d in divs if d < n and d * d > n)
    _, exact = isqrt_exact(n)
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


def profiles_in_range(lo: int, hi: int) -> Iterator[DivisorProfile]:
    """Yield profile(n) for lo <= n <= hi, factorized by a segmented sieve."""
    if lo < 2 or hi < lo:
        raise ContractViolation("need 2 <= lo <= hi")
    for f in factor_range(lo, hi + 1):
        yield profile(f.n, fac=f)
