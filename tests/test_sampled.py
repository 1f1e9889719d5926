"""Seeded signature sampler: the classifiers against the oracle far beyond 10^6.

A sample is a prime signature of 1 to 4 primes, exponents at most 8 and
at most 48 divisors.  Its primes are drawn near the breakpoints where the
order of the divisors changes: the first log-uniform below 2*10^3, each
later one the next or previous prime around b^(m/k), m <= 12, k <= 8, for
b an earlier prime or the product of the first two.  Primes go up to
10^22, and N is never factorized: its sets come from ``profile`` with the
sampled factorization, and its outcome from ``check._evaluate``, the
core of every validate scan.
"""

import random
from bisect import bisect
from collections import Counter
from itertools import product
from math import log, prod

import pytest

from divrec.arith import Factorization, is_prime
from divrec.check import KIND_ORACLE_ONLY, _evaluate
from divrec.classify import LARGE
from divrec.profiles import profile

SEED = 1_729
SAMPLES = 10_000
PRIME_CAP = 10**22  # far below the limit of deterministic Miller-Rabin
SIGNATURES = [
    exps
    for count in range(1, 5)
    for exps in product(range(1, 9), repeat=count)
    if prod(e + 1 for e in exps) <= 48
]
BREAKPOINTS = sorted({m / k for m in range(1, 13) for k in range(1, 9)})


def _root(y, k):
    """floor(y ** (1 / k)), exactly: Newton's method from above."""
    x = 1 << -(-y.bit_length() // k)
    while True:
        z = ((k - 1) * x + y // x ** (k - 1)) // k
        if z >= x:
            return x
        x = z


def _prime_from(x, step):
    """The first prime from x on, walking by ``step`` (1 or -1); None below 2."""
    while x >= 2:
        if is_prime(x):
            return x
        x += step
    return None


def _draw(rng, exps):
    """A signature with exponents ``exps`` on its primes in increasing order."""
    primes = [_prime_from(int(2 * 1000 ** rng.random()), rng.choice((1, -1)))]
    while len(primes) < len(exps):
        b = rng.choice(primes + [primes[0] * primes[1]] if len(primes) > 1 else primes)
        m, k = rng.randint(1, 12), rng.randint(1, 8)
        if m * log(b) > k * log(PRIME_CAP):
            continue
        root = _root(b**m, k)
        q = _prime_from(root + 1, 1) if rng.random() < 0.5 else _prime_from(root, -1)
        if q is not None and q <= PRIME_CAP and q not in primes:
            primes.append(q)
    return tuple(zip(sorted(primes), exps))


@pytest.fixture(scope="module")
def samples():
    """The seeded signatures."""
    rng = random.Random(SEED)
    return [_draw(rng, rng.choice(SIGNATURES)) for _ in range(SAMPLES)]


def _near_breakpoint(sig):
    """Is log q / log b within 1% of some m/k, for primes q and b of ``sig``
    or b the product of its first two primes?"""
    primes = [p for p, _ in sig]
    bases = primes + [primes[0] * primes[1]]
    for q in primes:
        for b in bases:
            if b != q:
                r = log(q) / log(b)
                i = bisect(BREAKPOINTS, r)
                if any(abs(r / f - 1) < 0.01 for f in BREAKPOINTS[max(i - 1, 0) : i + 1]):
                    return True
    return False


def test_sampler_covers_every_signature_near_breakpoints(samples):
    counts = Counter(tuple(e for _, e in sig) for sig in samples)
    assert set(counts) == set(SIGNATURES)
    assert min(counts.values()) >= 30
    multi = [sig for sig in samples if len(sig) > 1]
    assert sum(map(_near_breakpoint, multi)) >= 0.9 * len(multi)
    sizes = [prod(p**e for p, e in sig) for sig in samples]
    assert sum(n > 10**12 for n in sizes) >= SAMPLES // 2
    assert max(sizes) > 10**100


def _documented(sig, e):
    """The documented large-side family p^2*q^2 with q > p^2, decided from
    the signature: ``harness._documented`` would factorize n."""
    return (e.kind == KIND_ORACLE_ONLY and e.theorem == LARGE and len(sig) == 2
            and sig[0][1] == sig[1][1] == 2 and sig[1][0] > sig[0][0] ** 2)


def test_sampled_errata_are_only_the_documented_family(samples):
    documented, violations = 0, []
    for sig in samples:
        n = prod(p**e for p, e in sig)
        prof = profile(n, fac=Factorization(n, sig))
        _, errata = _evaluate(n, sig, prof.small_strict, prof.large_strict)
        for e in errata:
            if _documented(sig, e):
                documented += 1
            else:
                violations.append((sig, e))
    assert violations[:5] == []
    assert documented > 0
