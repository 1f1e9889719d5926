"""Searches for the two conditional rare forms.

Neither form has a closed-form answer, so both searches try, for every
prime p <= p_max, each q that the form's divisibility conditions leave
open.  Per search, one generator runs those conditions inline over any
iterable of p, cheapest test first, and yields (p, q) once they pass: s7
solves one quadratic per integer j up to about p^{1/4}/sqrt(2) whose
discriminant passes a square test by residues, large5 keeps q in
{isqrt(p^5), isqrt(p^5) + 1} only if p^5 - q^2 divides p - 1; the proofs
are in the docstrings of ``_s7_candidates`` and ``_l5_candidates``.  One
loop per span feeds it the primes of ``arith._primes``, which reads the
first span of a search, up to 2**20, off a cached table and sieves every
later one with base primes from it; the loop runs the exact check, the
primality tests and the oracle's fit core, ``fit._solution``, on the set
cut from each hit's known factorization.
Results are deterministic however ``runner.map_spans`` splits the work.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .arith import _FULL_WITNESS_LIMIT, CapacityError, ContractViolation, _primes, is_prime
from .classify import _l5_condition, _s7_solution
from .fit import _EMPTY, _solution
from .profiles import _strict_sets
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


def _s7_candidates(ps: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(p, q) for each p of ``ps`` and each q > 0 for which
    ``_s7_solution(p, q)`` can succeed, and a few more.

    Let den = q^2 - p^3.  ``_s7_solution`` requires den > 0, q < p^2 and
    p^2 - q = j^2*den for an integer j, so j >= 1 and q is the
    positive root of j^2*q^2 + q - (j^2*p^3 + p^2) = 0, an integer only
    when D = 1 + 4*j^2*(j^2*p^3 + p^2) is a square whose root t has
    2*j^2 | t - 1, and then q = (t - 1) / (2*j^2).

    Let s = isqrt(p^3), so p^3 <= s^2 + 2s; den > 0 means q >= s + 1, and
    q = s + 1 is a candidate on its own, kept only if den | p^2 - q.  For
    q >= s + 2, den >= (s + 2)^2 - s^2 - 2s = 2s + 4 and
    j^2*den = p^2 - q <= p^2 - s - 2, so j^2 <= (p^2 - s - 2) // (2s + 4):
    about p^{1/4}/sqrt(2) values of j.

    Only the j that pass a square test get an ``isqrt``: an accepted q
    makes D = (2*j^2*q + 1)^2, so D is a square mod every m, and D mod m
    depends only on p mod m and j mod m.  The allowed j mod m are one bit
    mask per (m, p mod m), repeated over the j range and ANDed over the
    moduli of ``_S7_MODULI`` until no j is left; the exact test then runs
    on the survivors alone.  The masks take 5 to 7 ms to build, once per
    process (2-CPU VM, Python 3.11).  Nothing here assumes p prime.
    """
    width = 0
    for p in ps:
        p2 = p * p
        p3 = p2 * p
        s = isqrt(p3)
        if (p2 - s - 1) % ((s + 1) ** 2 - p3) == 0:
            yield p, s + 1
        top = isqrt((p2 - s - 2) // (2 * s + 4))
        if top >= width:  # wider masks serve every smaller top
            width = 1 << top.bit_length()
            tables = _s7_masks(width)
        js = (1 << (top + 1)) - 2
        for m, masks in tables:
            js &= masks[p % m]
            if not js:
                break
        while js:
            low = js & -js
            js ^= low
            j2 = (low.bit_length() - 1) ** 2
            q = (isqrt(1 + 4 * j2 * (j2 * p3 + p2)) - 1) // (2 * j2)
            if q > s + 1 and j2 * (q * q - p3) == p2 - q:
                yield p, q


def _s7_span(lo: int, hi: int) -> list[S7Triple]:
    """Every s7 triple (p, q, r) with lo <= p < hi, cheapest check first:
    ``_s7_solution`` before any primality test.  Each hit is confirmed by
    ``_solution`` on S' cut from its known factorization, so n is never
    factorized or held to the input bound."""
    hits = []
    for p, q in _s7_candidates(_primes(lo, hi)):
        p2 = p * p
        sol = _s7_solution(p, q)
        if sol is None or sol[0] <= p2 or not (is_prime(q) and is_prime(sol[0])):
            continue
        r, a, b = sol
        n = p2 * q * r
        small = _strict_sets(n, ((p, 2), (q, 1), (r, 1)))[0]
        hits.append(S7Triple(p, q, r, n, a, b, _solution(small)[0] is not _EMPTY))
    return hits


def _l5_candidates(ps: Iterable[int]) -> Iterator[tuple[int, int]]:
    """(p, q) for each p of ``ps`` and each q in {isqrt(p^5), isqrt(p^5) + 1}
    with p^5 - q^2 | p - 1; as in ``classify._divides``, 0 divides only 0.

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
    for p in ps:
        p5 = p**5
        s = isqrt(p5)
        d = p5 - s * s  # 0 for a square p; 0 divides no p - 1 > 0
        if d and (p - 1) % d == 0:
            yield p, s
        if (p - 1) % (d - 2 * s - 1) == 0:  # p^5 - (s + 1)^2 < 0
            yield p, s + 1


def _l5_span(lo: int, hi: int) -> list[L5Pair]:
    """Every large5 pair (p, q) with lo <= p < hi, checked as in ``_s7_span``."""
    hits = []
    for p, q in _l5_candidates(_primes(lo, hi)):
        if _l5_condition(p, q) and is_prime(q):
            n = p**4 * q
            large = _strict_sets(n, ((p, 4), (q, 1)))[1]
            hits.append(L5Pair(p, q, n, _solution(large)[0] is not _EMPTY))
    return hits


# A search over fewer primes than its threshold runs in this process
# whatever ``jobs`` says: below it, a fork pool costs more than it saves.
# Best of five on a 2-CPU VM, jobs=1 vs jobs=2, three runs: search_s7 to
# p_max = 3*10^5 (25 997 primes) took 26-32 vs 24-36 ms, to 3.5*10^5
# (29 977) 31-35 vs 28-30 ms; search_large5 (2/3 of s7's cost per prime)
# to 4*10^5 (33 860) 27-29 vs 29-37 ms, to 5*10^5 (41 538) 32-37 vs 28-34.
_S7_POOL_MIN_PMAX = 350_377  # the 30 000th prime
_L5_POOL_MIN_PMAX = 479_909  # the 40 000th prime


def _scan_primes(span, p_max: int, jobs: int, pool_min_pmax: int) -> list:
    """Every hit of ``span(lo, hi)`` over the primes p <= p_max, in order of p.

    A search factorizes nothing, so its one limit is ``is_prime``'s: p_max
    is refused before any prime is sieved unless isqrt(p_max^5 + p_max^4),
    which grows with p, is below it (p_max <= 6 431 325 586).  That bounds
    every number a span tests:
    - s7: each candidate has q < p^2 and 0 < q^2 - p^3 | p^2 - q, so
      (p*q)^2 <= p^2*(p^3 + p^2 - q) < p^5 + p^4, and r = p*q - j*(q^2 - p^3)
      < p*q;
    - large5: q <= isqrt(p^5) + 1, whose square is at most
      p^5 + 2*p^{5/2} + 1 <= p^5 + p^4.
    """
    if p_max < 2:
        raise ContractViolation("p_max must be >= 2")
    if isqrt(p_max**5 + p_max**4) >= _FULL_WITNESS_LIMIT:
        raise CapacityError(
            f"p_max {p_max} puts candidates past the primality limit {_FULL_WITNESS_LIMIT}"
        )
    # [2, p_max] holds p_max - 1 candidates for p: a pool from pool_min_pmax on
    spans = map_spans(span, 2, p_max + 1, jobs, pool_min_pmax - 1)
    return [hit for batch in spans for hit in batch]


def search_s7(p_max: int, *, jobs: int = 1) -> list[S7Triple]:
    """Every qualifying triple with p <= p_max, sorted by (p, q, r).

    For each prime p the divisibility conditions leave q = isqrt(p^3) + 1
    and at most one q per integer j <= about p^{1/4}/sqrt(2) (see
    ``_s7_candidates``); the square-root equation forces the third prime r,
    and only a q and r that pass every arithmetic check get a primality test.
    """
    return sorted(_scan_primes(_s7_span, p_max, jobs, _S7_POOL_MIN_PMAX))


def search_large5(p_max: int, *, jobs: int = 1) -> list[L5Pair]:
    """Every qualifying pair with p <= p_max, p^2 < q < p^3, sorted by (p, q).

    Only q = isqrt(p^5) or isqrt(p^5) + 1 with p^5 - q^2 | p - 1 can qualify
    (see ``_l5_candidates``).
    """
    return sorted(_scan_primes(_l5_span, p_max, jobs, _L5_POOL_MIN_PMAX))
