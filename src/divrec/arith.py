"""Exact integer primitives: primality, factorization, divisors.

Everything here is exact; no floating point is used anywhere, so results
are reliable all the way up to the configured input bound (2**62 by
default, configurable).  Primality is deterministic: a fixed Miller-Rabin
witness set with a proven range, never a probabilistic verdict.  The
searches sieve with ``_primes``, the one prime sieve here; the range
scans' ``harness._factor_range`` builds on it and ``_factor_into``.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt, prod
from typing import Iterator, NamedTuple

__all__ = [
    "CapacityError",
    "ContractViolation",
    "DEFAULT_INPUT_BOUND",
    "Factorization",
    "FactorSieve",
    "divisors_sorted",
    "factorize",
    "input_bound",
    "is_prime",
    "isqrt_exact",
    "primes_upto",
    "set_input_bound",
    "tau",
]

DEFAULT_INPUT_BOUND = 1 << 62

# Fixed Miller-Rabin witness sets with proven deterministic ranges
# (Jaeschke; Sorenson & Webster).  The full set is valid for every
# n < 3_317_044_064_679_887_385_961_981, far beyond the default bound.
_SMALL_WITNESSES = (2, 3, 5, 7)
_SMALL_WITNESS_LIMIT = 3_215_031_751
_FULL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_FULL_WITNESS_LIMIT = 3_317_044_064_679_887_385_961_981

_TRIAL_LIMIT = 1 << 16



class CapacityError(Exception):
    """Input exceeds the configured exact-arithmetic bound."""


class ContractViolation(ValueError):
    """A caller broke an operation's precondition."""


_input_bound: int | None = DEFAULT_INPUT_BOUND


def set_input_bound(bound: int | None) -> None:
    """Set the input cap; ``None`` removes it entirely.

    Intermediates are arbitrary precision regardless, so raising the bound
    only affects how large an input the operations accept.  Deterministic
    primality stays capped at the witness-set limit no matter what.
    """
    global _input_bound
    if bound is not None and bound < 2:
        raise ContractViolation("input bound must be at least 2")
    _input_bound = bound


def input_bound() -> int | None:
    return _input_bound


def _guard(n: int) -> None:
    if _input_bound is not None and n > _input_bound:
        raise CapacityError(f"{n} exceeds the input bound {_input_bound}")


class Factorization(NamedTuple):
    """n as an ordered product of prime powers.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes; empty for n = 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n within the bound."""
    if n < 0:
        raise ContractViolation("is_prime requires n >= 0")
    _guard(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True
    if n > _FULL_WITNESS_LIMIT:
        raise CapacityError(
            f"no deterministic witness set beyond {_FULL_WITNESS_LIMIT}"
        )
    witnesses = _SMALL_WITNESSES if n < _SMALL_WITNESS_LIMIT else _FULL_WITNESSES
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(lo: int, hi: int) -> Iterator[int]:
    """The primes p with lo <= p < hi, ascending, for hi >= 1.

    2 where it is in range, then an odd-only sieve over odds: each odd prime
    p <= isqrt(hi - 1) clears its odd multiples from max(p*p, odds[0]) on,
    every p-th index.  A sieve from 3 reads those primes off itself; any
    other sieves them first, one level down.  ``compress`` reads the primes
    out without building them one by one in Python.
    """
    odds = range(max(lo, 3) | 1, hi, 2)
    odd = bytearray([1]) * len(odds)
    if odds.start > 3:
        sieving = _primes(3, isqrt(hi - 1) + 1)
    else:  # odd[i] is final once the primes below 2*i + 3 have struck
        sieving = (2 * i + 3 for i in range((isqrt(hi - 1) - 1) // 2) if odd[i])
    for p in sieving:
        start = (max(p * p, (-(-odds.start // p) | 1) * p) - odds.start) // 2
        odd[start::p] = bytes(len(range(start, len(odds), p)))
    primes = compress(odds, odd)
    return chain((2,), primes) if lo <= 2 < hi else primes


def primes_upto(limit: int) -> list[int]:
    """All primes strictly below ``limit`` (Eratosthenes)."""
    if limit <= 2:
        return []
    return list(_primes(2, limit))


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_upto(_TRIAL_LIMIT))


def _pollard_brent(n: int) -> int:
    """Nontrivial factor of odd composite n; deterministic retry schedule."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1  # cycle collapsed; retry with the next polynomial


def _factor_into(m: int, acc: dict[int, int]) -> None:
    if m == 1:
        return
    if is_prime(m):
        acc[m] = acc.get(m, 0) + 1
        return
    d = _pollard_brent(m)
    _factor_into(d, acc)
    _factor_into(m // d, acc)


def factorize(n: int) -> Factorization:
    """Full prime factorization; trial division plus a rho fallback."""
    if n < 1:
        raise ContractViolation("factorize requires n >= 1")
    _guard(n)
    pairs: list[tuple[int, int]] = []
    m = n
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 1
            m //= p
            while m % p == 0:
                e += 1
                m //= p
            pairs.append((p, e))
    if m > 1:  # every prime of m exceeds the trial primes divided out
        acc: dict[int, int] = {}
        _factor_into(m, acc)
        pairs.extend(sorted(acc.items()))
    return Factorization(n, tuple(pairs))


def _factored(n: int, fac: Factorization | None) -> Factorization:
    """``factorize(n)``, or ``fac`` once its prime powers multiply to n."""
    if fac is not None and (fac.n != n or prod(p**e for p, e in fac.factors) != n):
        raise ContractViolation(f"fac is not a factorization of {n}")
    return factorize(n) if fac is None else fac


def isqrt_exact(n: int) -> tuple[int, bool]:
    """(floor sqrt, whether n is a perfect square); exact for any size."""
    if n < 0:
        raise ContractViolation("isqrt_exact requires n >= 0")
    root = isqrt(n)
    return root, root * root == n


def divisors_sorted(f: Factorization) -> list[int]:
    """All divisors of f.n in strictly increasing order."""
    return _divisors(f.factors)


def _divisors(factors) -> list[int]:
    """All divisors of the n with prime factorization ``factors``, sorted."""
    divs = [1]
    for p, e in factors:
        block = divs
        for _ in range(e):
            block = [d * p for d in block]
            divs += block
    divs.sort()
    return divs


def tau(f: Factorization) -> int:
    """Divisor count: product of (exponent + 1)."""
    return _tau(f.factors)


def _tau(factors) -> int:
    t = 1
    for _, e in factors:
        t *= e + 1
    return t


class FactorSieve:
    """Smallest-prime-factor table for fast factorization below a limit.

    A lookup table for repeated factorization of scattered n: build once,
    then ``factorize`` runs in O(number of prime factors) with no trial
    division.  Range scans use ``harness._factor_range``, which needs no
    table of size n.
    """

    def __init__(self, limit: int):
        if limit < 3:
            raise ContractViolation("sieve limit must be at least 3")
        if limit > (1 << 31):
            raise CapacityError("sieve limit above 2**31; factorize directly")
        # Even entries start at 2 and odd primes stay 0.  Each odd prime p
        # marks the odd multiples from p*p on; going largest first lets the
        # smallest factor write last.
        spf = array("i", [2, 0]) * ((limit + 1) // 2)
        for p in reversed(primes_upto(isqrt(limit - 1) + 1)[1:]):
            count = len(range(p * p, len(spf), 2 * p))
            spf[p * p :: 2 * p] = array("i", [p]) * count
        self._spf = spf
        self.limit = limit

    def factorize(self, n: int) -> Factorization:
        if not 1 <= n < self.limit:
            raise ContractViolation(f"{n} outside sieve range [1, {self.limit})")
        spf = self._spf
        pairs = []
        m = n
        while m > 1:
            p = spf[m] or m
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        return Factorization(n, tuple(pairs))
