import random

import pytest

from divrec import harness, profiles
from divrec.arith import (
    ContractViolation,
    Factorization,
    divisors_sorted,
    factorize,
    is_prime,
    isqrt_exact,
    primes_upto,
    tau,
)
from divrec.fit import FitKind, solve_fit
from divrec.profiles import (
    DivisorProfile,
    check_tau_identity,
    _tau_identity,
    profile,
)
from divrec.harness import _profile_range
from references import profiles_in_range


def profile_by_filter(n, fac):
    """Reference: each strict set by filtering every divisor on d*d against n."""
    divs = divisors_sorted(fac)
    small = tuple(d for d in divs if 1 < d and d * d < n)
    large = tuple(d for d in divs if d < n and d * d > n)
    return DivisorProfile(n, small, large, tau(fac), isqrt_exact(n)[1])


def test_profile_60():
    p = profile(60)
    assert p.small_strict == (2, 3, 4, 5, 6)
    assert p.large_strict == (10, 12, 15, 20, 30)
    assert p.tau == 12 and not p.is_square


def test_profile_square_excludes_root():
    p = profile(100)
    assert p.small_strict == (2, 4, 5)
    assert p.large_strict == (20, 25, 50)
    assert p.is_square and p.tau == 9
    assert 10 not in p.small_strict and 10 not in p.large_strict


def test_profile_prime():
    p = profile(97)
    assert p.small_strict == () and p.large_strict == ()


def test_profile_rejects_small_n():
    with pytest.raises(ContractViolation):
        profile(1)
    with pytest.raises(ContractViolation):
        check_tau_identity(0)


def test_tau_identity_examples():
    assert check_tau_identity(100)  # 9 = 2*3 + 3
    assert check_tau_identity(60)  # 12 = 2*5 + 2
    assert check_tau_identity(2)  # 2 = 2*0 + 2


def test_tau_identity_range():
    assert all(check_tau_identity(n) for n in range(2, 5000))


def test_reflection_bijection_range():
    for p in profiles_in_range(2, 5000):
        assert tuple(p.n // d for d in reversed(p.large_strict)) == p.small_strict


def test_small_set_size_vs_tau():
    # |S'| <= 3 exactly when tau <= 9
    for p in profiles_in_range(2, 5000):
        assert (len(p.small_strict) <= 3) == (p.tau <= 9)


def test_conjugate_fit_identity_sample():
    # whenever the large set fits (a, b), every adjacent small triple obeys
    # a*d3*d1 + b*d2*d1 == d2*d3
    checked = 0
    for p in profiles_in_range(2, 20000):
        if len(p.large_strict) < 4:
            continue
        v = solve_fit(list(p.large_strict))
        if v.kind is not FitKind.POINT:
            continue
        a, b = v.point
        s = p.small_strict
        for i in range(len(s) - 2):
            assert (a * s[i + 2] + b * s[i + 1]) * s[i] == s[i + 1] * s[i + 2]
        checked += 1
    assert checked > 50


def test_profiles_in_range_matches_single_calls():
    got = list(profiles_in_range(2, 300))
    assert got == [profile(n) for n in range(2, 301)]


def test_profiles_in_range_matches_single_calls_above_2e7():
    # the sieved factorization feeds profile(n, fac=f); it must equal profile(n)
    lo = random.Random(7).randrange(2 * 10**7, 10**11)
    got = list(profiles_in_range(lo, lo + 1_500))
    assert got == [profile(n) for n in range(lo, lo + 1_501)]


def test_profile_accepts_precomputed_factorization():
    f = factorize(360)
    assert profile(360, fac=f) == profile(360)


def test_profile_slices_match_filter_reference():
    for p in profiles_in_range(2, 20_000):
        assert p == profile_by_filter(p.n, factorize(p.n))
    for p in primes_upto(100):
        pk = p
        while pk <= 10**12:
            assert profile(pk) == profile_by_filter(pk, factorize(pk)), pk
            pk *= p
    rng = random.Random(20_262)
    for _ in range(2_000):
        n = rng.randrange(2, 2**62 + 1)
        f = factorize(n)
        assert profile(n, fac=f) == profile_by_filter(n, f), n


_rng = random.Random(4_096)


@pytest.mark.parametrize("lo, length, per_n", [
    (2, 10_000, 0),  # every square up to 10^4; two full segments and a tail
    (4, 1, 0),
    (_rng.randrange(2, 10**6 - 5_000), 5_000, 0),
    (_rng.randrange(2, 10**6 - 4_097), 4_097, 1),  # a one-n tail goes per n
    (5_040**2 - 1_000, 2_001, 0),  # 5 040^2 has 405 divisors
    (_rng.randrange(2 * 10**7, 10**8), 6_000, 1_904),  # isqrt 9 980 > 5 * 1 904
    (10**8, 5_096, 1_000),  # isqrt 10 000 <= 5 * 4 096, but > 5 * 1 000
    (_rng.randrange(10**10, 10**11), 4_200, 4_200),  # two segments, both per n
])
def test_sieved_profiles_match_profile(monkeypatch, lo, length, per_n):
    calls = []
    strict_sets = profiles._strict_sets
    monkeypatch.setattr(harness, "_strict_sets",
                        lambda n, factors: calls.append(n) or strict_sets(n, factors))
    rows = list(_profile_range(lo, lo + length))
    assert len(calls) == per_n
    ns = range(lo, lo + length)
    assert [n for n, _, _, _ in rows] == list(ns)
    assert [factors for _, factors, _, _ in rows] == [factorize(n).factors for n in ns]
    assert [(small, large) for _, _, small, large in rows] == [
        (p.small_strict, p.large_strict) for p in map(profile, ns)
    ]
    # the divisor sieve against the factor sieve's divisor count
    assert all(
        _tau_identity(tau(Factorization(n, factors)), isqrt_exact(n)[1], small, large)
        for n, factors, small, large in rows
    )


def test_large_prime_identity():
    # n = m*P with P prime and P > m: every divisor d of m has d*d < n < (d*P)**2,
    # so S'(n) = D(m) \ {1} and L'(n) = P*(D(m) \ {m}), each in order
    divisors = [[] for _ in range(2_001)]  # D(m) by a divisor sieve
    for d in range(1, 2_001):
        for m in range(d, 2_001, d):
            divisors[m].append(d)

    def expected(m, p):
        return tuple(divisors[m][1:]), tuple(p * d for d in divisors[m][:-1])

    big = 2**40 + 15  # passed with its factors, never factorized
    assert is_prime(big)
    p = 2
    for m in range(1, 2_001):
        while p <= m or not is_prime(p):
            p += 1
        sig = factorize(m).factors
        for prime in (p, big):
            n = m * prime
            assert profiles._strict_sets(n, sig + ((prime, 1),)) == expected(m, prime), (m, prime)

    found = 0
    for n, factors, small, large in _profile_range(10**5, 10**5 + 4_096):
        prime, e = factors[-1]
        if e == 1 and prime * prime > n:
            assert (small, large) == expected(n // prime, prime), n
            found += 1
    assert found > 4_096 // 2
