"""Searches for the two conditional rare forms.

Neither form has a closed-form answer, so both searches try, for every
prime p <= p_max, each q that the form's divisibility conditions leave
open.  Those conditions pin q near p^{3/2} (s7) or p^{5/2} (large5): s7
solves one quadratic per integer j up to about p^{1/4}/sqrt(2) whose
discriminant passes a square test by residues, large5 keeps q in
{isqrt(p^5), isqrt(p^5) + 1} only if p^5 - q^2 divides p - 1, and only
the survivors get a primality test.  ``arith._primes`` sieves the primes
p a span at a time, base primes included, so memory stays O(sqrt(p_max))
plus one span; the proofs are in the docstrings of ``_s7_candidates``
and ``_l5_candidates``.  Every hit is confirmed by the brute-force oracle
from its known factorization, and results are deterministic regardless
of how ``runner.map_spans`` splits the work across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import isqrt

from .arith import ContractViolation, Factorization, _guard, _primes, is_prime
from .classify import _divides, _l5_condition, _s7_solution
from .oracle import _verdict
from .profiles import profile
from .runner import map_spans

__all__ = ["L5Pair", "S7Triple", "search_large5", "search_s7"]


@dataclass(frozen=True, order=True)
class S7Triple:
    """A prime triple putting p^2*q*r in the exceptional five-element form."""

    p: int
    q: int
    r: int
    n: int
    a: int
    b: int
    oracle_confirmed: bool


@dataclass(frozen=True, order=True)
class L5Pair:
    """A prime pair putting p^4*q in the conditional four-element form."""

    p: int
    q: int
    n: int
    oracle_confirmed: bool


# Moduli of the square test on D in ``_s7_candidates``.  Together they pass
# about one j in a hundred (0.91% at p = 10^6, 1.00% at 6*10^9): seven
# moduli passed 3.4%, and two more cost less per p than the isqrt they save.
_S7_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31)


@lru_cache(maxsize=1)
def _s7_residue_masks() -> tuple[tuple[int, ...], ...]:
    """Per modulus m of ``_S7_MODULI`` and residue r = p mod m, an int whose
    bit j < m is set iff D = 1 + 4*j^2*(j^2*r^3 + r^2) is a square mod m."""
    table = []
    for m in _S7_MODULI:
        squares = {x * x % m for x in range(m)}
        table.append(tuple([
            sum(1 << j for j in range(m)
                if (1 + 4 * j * j * (j * j * r * r * r + r * r)) % m in squares)
            for r in range(m)
        ]))
    return tuple(table)


@lru_cache(maxsize=None)
def _s7_masks(width: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(m, masks)`` per modulus, each residue mask repeated over ``width``
    bits: bit j is set iff bit j mod m of the residue mask is."""
    full = (1 << width) - 1
    tables = []
    for m, masks in zip(_S7_MODULI, _s7_residue_masks()):
        repunit = ((1 << (m * -(-width // m))) - 1) // ((1 << m) - 1)
        tables.append((m, tuple([mask * repunit & full for mask in masks])))
    return tuple(tables)


def _s7_square_test(p: int, top: int) -> int:
    """An int with bit j set for each j in [1, top] whose D (see
    ``_s7_candidates``) is a square mod every m of ``_S7_MODULI``."""
    js = (1 << (top + 1)) - 2
    for m, masks in _s7_masks(1 << top.bit_length()):
        js &= masks[p % m]
    return js


def _s7_candidates(p: int) -> list[int]:
    """Every q > 0 for which ``_s7_solution(p, q)`` can succeed, and a few more.

    Let den = q^2 - p^3 and root = p*q - r.  ``_s7_solution`` requires
    den > 0, q < p^2, den | root and root^2 = den*(p^2 - q) > 0.  So
    root = j*den for an integer j >= 1, and p^2 - q = j^2*den: q is the
    positive root of j^2*q^2 + q - (j^2*p^3 + p^2) = 0, an integer only
    when D = 1 + 4*j^2*(j^2*p^3 + p^2) is a square whose root t has
    2*j^2 | t - 1, and then q = (t - 1) / (2*j^2).

    Let s = isqrt(p^3), so p^3 <= s^2 + 2s; den > 0 means q >= s + 1, and
    q = s + 1 is a candidate on its own.  For q >= s + 2,
    den >= (s + 2)^2 - s^2 - 2s = 2s + 4 and j^2*den = p^2 - q <= p^2 - s - 2,
    so j^2 <= (p^2 - s - 2) // (2s + 4): about p^{1/4}/sqrt(2) values of j.

    Only the j that pass a square test get an ``isqrt``: an accepted q
    makes D = (2*j^2*q + 1)^2, so D is a square mod every m, and D mod m
    depends only on p mod m and j mod m.  The allowed j mod m are one bit
    mask per (m, p mod m), repeated over the j range and ANDed over the
    moduli of ``_S7_MODULI``; the exact test then runs on the survivors
    alone.  The masks take 5 to 7 ms to build, once per process (2-CPU
    VM, Python 3.11).  Nothing here assumes p prime.
    """
    p2 = p * p
    p3 = p2 * p
    s = isqrt(p3)
    qs = [s + 1]
    js = _s7_square_test(p, isqrt((p2 - s - 2) // (2 * s + 4)))
    while js:
        low = js & -js
        js ^= low
        j2 = (low.bit_length() - 1) ** 2
        q = (isqrt(1 + 4 * j2 * (j2 * p3 + p2)) - 1) // (2 * j2)
        if q > s + 1 and j2 * (q * q - p3) == p2 - q:
            qs.append(q)
    return qs


def _s7_scan_p(p: int) -> list[S7Triple]:
    """Every s7 triple (p, q, r) for this p, from ``_s7_candidates``.

    The checks are conjunctive, so they run cheapest first: the arithmetic
    of ``_s7_solution`` before any primality test.  Each hit is confirmed
    by the oracle from its known factorization, so n is never factorized
    or held to the input bound.
    """
    p2 = p * p
    hits = []
    for q in _s7_candidates(p):
        sol = _s7_solution(p, q)
        if sol is None or sol[0] <= p2 or not (is_prime(q) and is_prime(sol[0])):
            continue
        r, a, b = sol
        n = p2 * q * r
        prof = profile(n, fac=Factorization(n, ((p, 2), (q, 1), (r, 1))))
        hits.append(S7Triple(p, q, r, n, a, b, _verdict(prof.small_strict).recurrent))
    return hits


def _l5_candidates(p: int) -> list[int]:
    """The q in {isqrt(p^5), isqrt(p^5) + 1} with p^5 - q^2 | p - 1.

    Let d = p^5 - q^2; d != 0 unless p is a square.  The form requires
    d | p^2 - q and d | p^3 - q, so d | (p^3 - q) - (p^2 - q) = p^2*(p - 1).
    For prime p and prime q > p, p does not divide q^2, so d is prime to p
    and d | p - 1.  A composite q fails the primality test anyway, so the
    filter loses no hit.

    Why q is one of the two: the form has p^2 < q < p^3, so p^2 - q != 0
    and |p^5 - q^2| <= q - p^2 < q.  With s = isqrt(p^5): if q >= s + 2
    then q^2 - p^5 > q^2 - (q - 1)^2 = 2q - 1 >= q, and if q <= s - 1 then
    p^5 - q^2 >= s^2 - (s - 1)^2 = 2s - 1 > q.  Hence |q - p^{5/2}| < 1.
    For p >= 2 both lie in p^2 < q < p^3, since (p^2 + 1)^2 <= p^5 and
    p^{5/2} + 1 < p^3.
    """
    p5 = p**5
    s = isqrt(p5)
    return [q for q in (s, s + 1) if _divides(p5 - q * q, p - 1)]


def _l5_scan_p(p: int) -> list[L5Pair]:
    """Every large5 pair (p, q) for this p, checked as in ``_s7_scan_p``."""
    hits = []
    for q in _l5_candidates(p):
        if _l5_condition(p, q) and is_prime(q):
            n = p**4 * q
            prof = profile(n, fac=Factorization(n, ((p, 4), (q, 1))))
            hits.append(L5Pair(p, q, n, _verdict(prof.large_strict).recurrent))
    return hits


# A search over fewer primes than its threshold runs in this process
# whatever ``jobs`` says: below it, starting a fork pool costs more than it
# saves.  Best of five on a 2-CPU VM, jobs=1 against jobs=2: search_s7 over
# 7 837 primes (p_max = 8*10^4) took 49 vs 47 ms, over 9 592 (10^5) 73 vs
# 76 ms, over 11 301 (1.2*10^5) 119 vs 97 ms.  search_large5 does about a
# tenth of the work per prime, so the pool pays off far later: 25 997 primes
# (3*10^5) took 76 vs 97 ms, 33 860 (4*10^5) 103 vs 104 ms, 41 538 (5*10^5)
# 128 vs 121 ms and 148 933 (2*10^6) 479 vs 414 ms.
_S7_POOL_MIN_PMAX = 104_729  # the 10 000th prime
_L5_POOL_MIN_PMAX = 479_909  # the 40 000th prime


def _scan_span(scan_p, lo: int, hi: int) -> list:
    """Every hit of ``scan_p`` over the primes p with lo <= p < hi."""
    return [hit for p in _primes(lo, hi) for hit in scan_p(p)]


def _scan_primes(scan_p, p_max: int, jobs: int, pool_min_pmax: int) -> list:
    """Every hit of ``scan_p`` over the primes p <= p_max, in order of p."""
    # isqrt(p_max^5) + 1 is the largest large5 q; reject a p_max whose
    # candidates exceed the input bound before sieving anything.
    if p_max < 2:
        raise ContractViolation("p_max must be >= 2")
    _guard(isqrt(p_max**5) + 1)
    # [2, p_max] holds p_max - 1 candidates for p: a pool from pool_min_pmax on
    spans = map_spans(partial(_scan_span, scan_p), 2, p_max + 1, jobs, pool_min_pmax - 1)
    return [hit for batch in spans for hit in batch]


def search_s7(p_max: int, *, jobs: int = 1) -> list[S7Triple]:
    """Every qualifying triple with p <= p_max, sorted by (p, q, r).

    For each prime p the divisibility conditions leave q = isqrt(p^3) + 1
    and at most one q per integer j <= about p^{1/4}/sqrt(2), each found
    with one ``isqrt`` (see ``_s7_candidates``); the third prime r is forced
    by the square-root equation, and only a q and r that pass every
    arithmetic check get a primality test.
    """
    return sorted(_scan_primes(_s7_scan_p, p_max, jobs, _S7_POOL_MIN_PMAX))


def search_large5(p_max: int, *, jobs: int = 1) -> list[L5Pair]:
    """Every qualifying pair with p <= p_max, p^2 < q < p^3, sorted by (p, q).

    Only q = isqrt(p^5) or isqrt(p^5) + 1 with p^5 - q^2 | p - 1 can qualify
    (see ``_l5_candidates``).
    """
    return sorted(_scan_primes(_l5_scan_p, p_max, jobs, _L5_POOL_MIN_PMAX))
