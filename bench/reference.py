"""Reference computations for the benchmark's checks, written apart from divrec.

Nothing here imports divrec or copies its code.  Divisor sets come from
trial division or from a divisor sieve over a window, with S'/L' split by
comparing d*d against n.  The recurrence e[i+2] = a*e[i+1] + b*e[i] is
decided by Cramer's rule on two independent constraints, and by the gcd
criterion when every constraint is a multiple of the first.  The one
documented errata family, n = p^2*q^2 with q > p^2, is recognised from a
factorization made here.
"""

from __future__ import annotations

from math import gcd, isqrt


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division: [(p, e), ...], p increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == [(n, 1)]


def primes_below(limit: int) -> list[int]:
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [i for i, f in enumerate(flags) if f]


def divisors_from_factors(fac) -> list[int]:
    divs = [1]
    for p, e in fac:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def split_sets(n: int, divs) -> tuple[list[int], list[int]]:
    """(S', L'): proper divisors strictly below / strictly above sqrt(n)."""
    small = [d for d in divs if d > 1 and d * d < n]
    large = [d for d in divs if d < n and d * d > n]
    return small, large


def divisor_sets(n: int) -> tuple[list[int], list[int]]:
    return split_sets(n, divisors_from_factors(factor(n)))


def small_sets_in_window(lo: int, hi: int) -> list[list[int]]:
    """S'(m) for every m in [lo, hi], by sieving each d over its multiples m > d*d."""
    sets: list[list[int]] = [[] for _ in range(hi - lo + 1)]
    for d in range(2, isqrt(hi) + 1):
        first = max(d * d + d, -(-lo // d) * d)
        for m in range(first, hi + 1, d):
            sets[m - lo].append(d)
    return sets


def large_from_small(n: int, small) -> list[int]:
    return [n // d for d in reversed(small)]


def constraints(seq) -> list[tuple[int, int, int]]:
    """(x, y, z) meaning x*a + y*b = z, one per adjacent triple."""
    return [(seq[i + 1], seq[i], seq[i + 2]) for i in range(len(seq) - 2)]


def satisfies(seq, a: int, b: int) -> bool:
    return all(x * a + y * b == z for x, y, z in constraints(seq))


def decide(seq) -> tuple[bool, tuple[int, int] | None]:
    """(some integer (a, b) exists, the unique (a, b) when it is unique).

    The first constraint and the first one independent of it fix (a, b)
    by Cramer's rule; for the first two constraints of an increasing
    sequence the determinant is e2^2 - e1*e3.  When no constraint is
    independent of the first, the gcd criterion on the first decides.
    """
    cons = constraints(seq)
    if not cons:
        return True, None
    x1, y1, z1 = cons[0]
    for x2, y2, z2 in cons[1:]:
        det = x1 * y2 - y1 * x2
        if det:
            a_num = z1 * y2 - y1 * z2
            b_num = x1 * z2 - z1 * x2
            if a_num % det or b_num % det:
                return False, None
            a, b = a_num // det, b_num // det
            if satisfies(seq, a, b):
                return True, (a, b)
            return False, None
        if x1 * z2 != z1 * x2:  # proportional left sides, other right side
            return False, None
    return z1 % gcd(x1, y1) == 0, None


def in_errata_family(n: int) -> bool:
    """n = p^2 * q^2 with primes p < q and q > p^2."""
    fac = factor(n)
    if len(fac) != 2:
        return False
    (p, a), (q, b) = fac
    return a == 2 and b == 2 and q > p * p
