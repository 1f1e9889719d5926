"""Searches for the two conditional rare forms.

Neither form has a closed-form answer, so both searches try, for every
prime p <= p_max, each q that the form's divisibility conditions leave
open.  Those conditions pin q near p^{3/2} (s7) or p^{5/2} (large5), so a
search tests O(sqrt(p)) or two candidates per p and needs no prime table
beyond the primes up to p_max; the bounds are proved in the docstrings of
``_s7_scan_p`` and ``_l5_scan_p``.  Every hit is confirmed against the
brute-force oracle, and results are deterministic regardless of how the
work is split across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import ContractViolation, _guard, is_prime, primes_upto
from .classify import _divides, _s7_solution
from .harness import _parallel_map
from .oracle import large_verdict, small_verdict

__all__ = ["L5Pair", "S7Triple", "search_large5", "search_s7"]


@dataclass(frozen=True)
class S7Triple:
    """A prime triple putting p^2*q*r in the exceptional five-element form."""

    p: int
    q: int
    r: int
    n: int
    a: int
    b: int
    oracle_confirmed: bool


@dataclass(frozen=True)
class L5Pair:
    """A prime pair putting p^4*q in the conditional four-element form."""

    p: int
    q: int
    n: int
    oracle_confirmed: bool


def _s7_scan_p(p: int) -> list[S7Triple]:
    """Every s7 triple (p, q, r) for this p.

    Let den = q^2 - p^3 and root = p*q - r.  ``_s7_solution`` requires
    den > 0, q < p^2, den | root and root^2 = den*(p^2 - q) > 0.  Then
    den^2 | den*(p^2 - q), so den | p^2 - q > 0 and den <= p^2 - q, that
    is q^2 + q <= p^3 + p^2.  Hence p^3 < q^2 <= p^3 + p^2: the only
    candidates are q in [isqrt(p^3) + 1, isqrt(p^3 + p^2)], about
    sqrt(p)/2 integers, all above p and, as p + 1 < p^2, below p^2.
    """
    p2 = p * p
    hits = []
    for q in range(isqrt(p2 * p) + 1, isqrt(p2 * p + p2) + 1):
        if not is_prime(q):
            continue
        sol = _s7_solution(p, q)
        if sol is None or sol[0] <= p2 or not is_prime(sol[0]):
            continue
        r, a, b = sol
        n = p2 * q * r
        _guard(n)
        hits.append(S7Triple(p, q, r, n, a, b, small_verdict(n).recurrent))
    return hits


def _l5_scan_p(p: int) -> list[L5Pair]:
    """Every large5 pair (p, q) for this p, p^2 < q < p^3.

    Let d = p^5 - q^2; d != 0 because p^5 is not a square.  The form
    requires d | p^2 - q, and p^2 - q != 0, so |p^5 - q^2| <= q - p^2 < q.
    With s = isqrt(p^5): if q >= s + 2 then q^2 - p^5 > q^2 - (q - 1)^2
    = 2q - 1 >= q, and if q <= s - 1 then p^5 - q^2 >= s^2 - (s - 1)^2
    = 2s - 1 > q.  Hence |q - p^{5/2}| < 1 and q is s or s + 1.
    """
    p2, p3 = p * p, p**3
    d_base = p**5
    s = isqrt(d_base)
    hits = []
    for q in (s, s + 1):
        if not (p2 < q < p3 and is_prime(q)):
            continue
        d = d_base - q * q
        if _divides(d, p2 - q) and _divides(d, p3 - q):
            n = p**4 * q
            _guard(n)
            hits.append(L5Pair(p, q, n, large_verdict(n).recurrent))
    return hits


def _primes_to_scan(p_max: int) -> list[int]:
    # isqrt(p_max^5) + 1 is the largest large5 q; reject a p_max whose
    # candidates exceed the input bound before building any table.
    if p_max < 2:
        raise ContractViolation("p_max must be >= 2")
    _guard(isqrt(p_max**5) + 1)
    return primes_upto(p_max + 1)


def search_s7(p_max: int, *, jobs: int = 1) -> list[S7Triple]:
    """Every qualifying triple with p <= p_max, sorted by (p, q, r).

    For each prime p the divisibility conditions leave only the q with
    p^3 < q^2 <= p^3 + p^2 (see ``_s7_scan_p``), and the third prime r is
    forced by the square-root equation, so the work per p is about
    sqrt(p)/2 primality tests.
    """
    batches = _parallel_map(_s7_scan_p, _primes_to_scan(p_max), jobs)
    hits = [hit for batch in batches for hit in batch]
    hits.sort(key=lambda t: (t.p, t.q, t.r))
    return hits


def search_large5(p_max: int, *, jobs: int = 1) -> list[L5Pair]:
    """Every qualifying pair with p <= p_max, p^2 < q < p^3, sorted by (p, q).

    Only q = isqrt(p^5) and isqrt(p^5) + 1 can qualify (see ``_l5_scan_p``).
    """
    batches = _parallel_map(_l5_scan_p, _primes_to_scan(p_max), jobs)
    hits = [hit for batch in batches for hit in batch]
    hits.sort(key=lambda t: (t.p, t.q))
    return hits
