"""Exact integer primitives: primality, factorization, divisors.

Everything here is exact; no floating point is used anywhere.  Factoring
and the range scans accept inputs up to ``INPUT_BOUND`` (2**62), which keeps
factoring tractable.  Primality is deterministic: a fixed Miller-Rabin
witness set with a proven range, never a probabilistic verdict, so
``is_prime`` answers up to the witness limit and refuses past it.  Primes
come from ``_sieve``, the one prime sieve here; below 2**20, ``factorize``,
the searches and ``harness._factor_range`` read one cached table of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "CapacityError",
    "ContractViolation",
    "Factorization",
    "FactorSieve",
    "INPUT_BOUND",
    "divisors_sorted",
    "factorize",
    "is_prime",
    "isqrt_exact",
    "primes_upto",
    "tau",
]

INPUT_BOUND = 1 << 62  # keeps factoring tractable; ``is_prime`` is not held to it

# Fixed Miller-Rabin witness sets with proven deterministic ranges
# (Jaeschke; Sorenson & Webster).  Each limit is the least strong pseudoprime
# to its set, so the set is valid for every n below it: the full set for
# every n < 3_317_044_064_679_887_385_961_981, far beyond ``INPUT_BOUND``.
_SMALL_WITNESSES = (2, 3, 5, 7)
_SMALL_WITNESS_LIMIT = 3_215_031_751
_FULL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_FULL_WITNESS_LIMIT = 3_317_044_064_679_887_385_961_981

_TRIAL_LIMIT = 1 << 16
_TABLE_LIMIT = 1 << 20  # ``_primes`` reads every window below it off a table


class CapacityError(Exception):
    """Input exceeds an exact-arithmetic bound."""


class ContractViolation(ValueError):
    """A caller broke an operation's precondition."""


def _guard(n: int) -> None:
    if n > INPUT_BOUND:
        raise CapacityError(f"{n} exceeds the input bound {INPUT_BOUND}")


class Factorization(NamedTuple):
    """n as an ordered product of prime powers.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes; empty for n = 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < ``_FULL_WITNESS_LIMIT``."""
    if n < 0:
        raise ContractViolation("is_prime requires n >= 0")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True
    if n >= _FULL_WITNESS_LIMIT:
        raise CapacityError(
            f"no deterministic witness set for n >= {_FULL_WITNESS_LIMIT}"
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


def _sieve(lo: int, hi: int) -> Iterator[int]:
    """The primes p with lo <= p < hi, ascending, sieved afresh.

    2 where it is in range, then an odd-only sieve over odds: each odd prime
    p <= isqrt(hi - 1), from ``_primes``, clears its odd multiples from
    max(p*p, odds[0]) on, every p-th index; below 9 there is none to strike.
    ``compress`` reads the primes out without building them one by one.
    """
    odds = range(max(lo, 3) | 1, hi, 2)
    odd = bytearray([1]) * len(odds)
    for p in _primes(3, isqrt(hi - 1) + 1) if hi > 9 else ():
        start = (max(p * p, (-(-odds.start // p) | 1) * p) - odds.start) // 2
        odd[start::p] = bytes(len(range(start, len(odds), p)))
    primes = compress(odds, odd)
    return chain((2,), primes) if lo <= 2 < hi else primes


@lru_cache(maxsize=None)  # one table per power of two up to _TABLE_LIMIT
def _prime_table(limit: int) -> array:
    """The primes below ``limit``, a power of two, as C ints: the table of
    limit / 2 and the sieve of the half above it, so all the tables up to
    a limit cost one sieve of [2, limit)."""
    if limit == 1:
        return array("i")
    return _prime_table(limit // 2) + array("i", _sieve(limit // 2, limit))


def _primes(lo: int, hi: int) -> Iterable[int]:
    """The primes p with lo <= p < hi, ascending.

    While hi - 1 <= ``_TABLE_LIMIT`` (itself no prime) and lo <= hi / 2, an
    ``array`` slice of the table of the next power of two, cut by two
    bisects; else ``_sieve``: a window in the top half of [0, hi) spans
    fewer numbers than the table, which spans up to 2*hi of them.
    """
    if hi - 1 > _TABLE_LIMIT or 2 * lo > hi:
        return _sieve(lo, hi)
    table = _prime_table(min(1 << (hi - 1).bit_length(), _TABLE_LIMIT))
    return table[bisect_left(table, lo) : bisect_left(table, hi)]


def primes_upto(limit: int) -> list[int]:
    """All primes strictly below ``limit`` (Eratosthenes)."""
    return list(_primes(2, limit))


def _pollard_brent(n: int) -> int:
    """Nontrivial factor of odd composite n; deterministic retry schedule."""
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
    """Add the prime factors of m to ``acc``.  m must be odd and above 1, as
    every cofactor left once 2 is divided out is; rho's factor d has
    1 < d < m, so both parts stay odd and above 1."""
    if is_prime(m):
        acc[m] = acc.get(m, 0) + 1
        return
    d = _pollard_brent(m)
    _factor_into(d, acc)
    _factor_into(m // d, acc)


def factorize(n: int) -> Factorization:
    """Full prime factorization; trial division plus a rho fallback.

    The trial primes are the table of the next power of two above isqrt(n),
    capped at ``_TRIAL_LIMIT``, so a small n builds a small table: all the
    primes below 2**16 take about 1 ms to sieve.
    """
    if n < 1:
        raise ContractViolation("factorize requires n >= 1")
    _guard(n)
    pairs: list[tuple[int, int]] = []
    m = n
    for p in _prime_table(min(1 << isqrt(n).bit_length(), _TRIAL_LIMIT)):
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
    """``factorize(n)``, or ``fac`` once it is n's: primes strictly
    increasing, each exponent at least 1, the prime powers multiplying to n."""
    if fac is None:
        return factorize(n)
    bases = [p for p, _ in fac.factors]
    if (fac.n != n or any(e < 1 for _, e in fac.factors)
            or bases != sorted(set(bases)) or prod(p**e for p, e in fac.factors) != n
            or not all(map(is_prime, bases))):
        raise ContractViolation(f"fac is not a factorization of {n}")
    return fac


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
    """All divisors of the n with prime factorization ``factors``, sorted.

    A prime of exponent 1, most of them, adds its multiples in one
    comprehension; one of exponent e >= 2 adds d*p**i block by block.  In
    CPython 3.11 a comprehension costs about 0.25-0.4 µs per call and the
    loop machinery about 0.1-0.15 µs per prime, so the loop is kept out of
    the common case but not replaced by a comprehension over the powers.
    """
    divs = [1]
    for p, e in factors:
        if e == 1:
            divs += [d * p for d in divs]
            continue
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
