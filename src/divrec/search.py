"""Exhaustive searches for the two conditional rare forms.

Both searches walk prime windows exhaustively, derive the remaining
parameter instead of enumerating it, and confirm every hit against the
brute-force oracle.  Results are deterministic regardless of how the work
is split across processes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from multiprocessing import get_context

from .arith import ContractViolation, _guard, is_prime, primes_upto
from .classify import _divides, _s7_solution
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


def _s7_scan_p(task: tuple[int, tuple[int, ...]]) -> list[S7Triple]:
    p, window = task
    p2 = p * p
    hits = []
    for q in window:
        sol = _s7_solution(p, q)
        if sol is None or sol[0] <= p2 or not is_prime(sol[0]):
            continue
        r, a, b = sol
        n = p2 * q * r
        _guard(n)
        hits.append(S7Triple(p, q, r, n, a, b, small_verdict(n).recurrent))
    return hits


def _l5_scan_p(task: tuple[int, tuple[int, ...]]) -> list[L5Pair]:
    p, window = task
    d_base = p**5
    hits = []
    for q in window:
        d = d_base - q * q
        if _divides(d, p * p - q) and _divides(d, p**3 - q):
            n = p**4 * q
            _guard(n)
            hits.append(L5Pair(p, q, n, large_verdict(n).recurrent))
    return hits


def _run_tasks(tasks, worker, jobs):
    if jobs <= 1 or len(tasks) <= 1:
        batches = [worker(t) for t in tasks]
    else:
        with get_context("fork").Pool(min(jobs, len(tasks))) as pool:
            batches = pool.map(worker, tasks, chunksize=1)
    return [hit for batch in batches for hit in batch]


def search_s7(p_max: int, *, jobs: int = 1) -> list[S7Triple]:
    """Every qualifying triple with p <= p_max, sorted by (p, q, r).

    For each prime pair p < q < p^2 with q^2 > p^3, the third prime is
    forced by the square-root equation, so the scan is quadratic in the
    prime counts rather than cubic.
    """
    if p_max < 2:
        raise ContractViolation("p_max must be >= 2")
    qs = primes_upto(p_max * p_max)
    tasks = []
    for p in primes_upto(p_max + 1):
        window = tuple(qs[bisect_right(qs, p) : bisect_left(qs, p * p)])
        if window:
            tasks.append((p, window))
    hits = _run_tasks(tasks, _s7_scan_p, jobs)
    hits.sort(key=lambda t: (t.p, t.q, t.r))
    return hits


def search_large5(p_max: int, *, jobs: int = 1) -> list[L5Pair]:
    """Every qualifying pair with p <= p_max, p^2 < q < p^3, sorted by (p, q)."""
    if p_max < 2:
        raise ContractViolation("p_max must be >= 2")
    qs = primes_upto(p_max**3)
    tasks = []
    for p in primes_upto(p_max + 1):
        window = tuple(qs[bisect_right(qs, p * p) : bisect_left(qs, p**3)])
        if window:
            tasks.append((p, window))
    hits = _run_tasks(tasks, _l5_scan_p, jobs)
    hits.sort(key=lambda t: (t.p, t.q))
    return hits
