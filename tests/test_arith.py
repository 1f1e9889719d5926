import itertools
import random
from array import array
from bisect import bisect_left
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec import arith
from divrec.arith import (
    CapacityError,
    ContractViolation,
    Factorization,
    FactorSieve,
    _TABLE_LIMIT,
    _primes,
    _sieve,
    divisors_sorted,
    factorize,
    is_prime,
    isqrt_exact,
    primes_upto,
    tau,
)
from divrec.harness import _MIN_SEGMENT, _factor_range
from references import divisors_by_blocks


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(2310)  # 2*3*5*7*11


def test_is_prime_agrees_with_trial_division():
    for n in range(0, 5000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_known_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**62 - 1)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_rejects_negative():
    with pytest.raises(ContractViolation):
        is_prime(-7)


def test_factorize_examples():
    assert factorize(60).factors == ((2, 2), (3, 1), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(512).factors == ((2, 9),)


def test_factorize_invariants_over_range():
    for n in range(1, 4000):
        f = factorize(n)
        prod = 1
        last = 0
        for p, e in f.factors:
            assert p > last and e >= 1
            assert is_prime(p)
            prod *= p**e
            last = p
        assert prod == n == f.n


def test_factorize_rejects_zero():
    with pytest.raises(ContractViolation):
        factorize(0)


def test_factorize_large_semiprime_uses_rho():
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_repeated_large_prime():
    p = 1_000_003
    assert factorize(p * p).factors == ((p, 2),)


def _windows_where_isqrt_crosses_a_power_of_two():
    """Windows of n around 4**k, where isqrt(n) reaches 2**k and the trial
    table doubles, and around p*p, p*q and q*q for the primes p < 2**k < q
    nearest it, for k = 2 to 18: 4**17 = 2**34 is above 2**32 and the table's
    cap, 2**16."""
    for k in range(2, 19):
        p = next(m for m in range(2**k - 1, 1, -1) if is_prime(m))
        q = next(m for m in itertools.count(2**k + 1) if is_prime(m))
        for n in (4**k, p * p, p * q, q * q):
            yield max(1, n - 40), n + 40


def test_factorize_matches_factor_range_where_the_trial_table_doubles():
    # factorize sieves its trial primes only up to the next power of two
    # above isqrt(n); the segmented sieve factorizes with its own primes
    for lo, hi_excl in itertools.chain(_windows_where_isqrt_crosses_a_power_of_two(),
                                       [(2**32 - 300, 2**32 + 300), (2**40 - 50, 2**40 + 50)]):
        assert [(n, factorize(n).factors) for n in range(lo, hi_excl)] == list(
            _factor_range(lo, hi_excl)), (lo, hi_excl)


@pytest.mark.parametrize("n, limit", [
    (1, 2), (3, 2), (60, 8), (63, 8), (64, 16), (2**32 - 1, 2**16), (2**32, 2**16),
    (2**40 + 1, 2**16),
])
def test_factorize_sieves_up_to_the_next_power_of_two_above_the_root(monkeypatch, n, limit):
    requested = []
    table = arith._prime_table
    table(limit)  # cached first: building it calls _prime_table again

    def recorded(top):
        requested.append(top)
        return table(top)

    monkeypatch.setattr(arith, "_prime_table", recorded)
    assert factorize(n).n == n
    assert requested == [limit]


def test_isqrt_exact_examples():
    with pytest.raises(ContractViolation):
        isqrt_exact(-1)
    assert isqrt_exact(1) == (1, True)
    assert isqrt_exact((9 - 8) * (4 - 3)) == (1, True)
    assert isqrt_exact(48) == (6, False)
    assert isqrt_exact(0) == (0, True)


def test_isqrt_exact_bracketing():
    for n in range(0, 10000):
        root, exact = isqrt_exact(n)
        assert root * root <= n < (root + 1) ** 2
        assert exact == (root * root == n)


def test_divisors_sorted_examples():
    assert divisors_sorted(factorize(60)) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    assert divisors_sorted(factorize(97)) == [1, 97]
    assert divisors_sorted(factorize(100)) == [1, 2, 4, 5, 10, 20, 25, 50, 100]


def test_divisor_count_and_reflection():
    for n in range(1, 3000):
        f = factorize(n)
        divs = divisors_sorted(f)
        assert len(divs) == tau(f)
        assert all(n % d == 0 for d in divs)
        assert [n // d for d in reversed(divs)] == divs
        assert divs == [d for d in range(1, n + 1) if n % d == 0]


def _seeded_factorizations(rng, count):
    """``count`` factorizations of distinct primes below 2**31, each to an
    exponent 1-8 (1 half the time, so both branches of ``_divisors`` meet
    in one n), their product at most 2**62."""
    for _ in range(count):
        pairs = {}
        n = 1
        for _ in range(rng.randint(1, 9)):
            p = rng.randrange(2, 1 << rng.randint(2, 31))
            while not is_prime(p):
                p += 1
            e = 1 if rng.random() < 0.5 else rng.randint(2, 8)
            if p in pairs or p >= 1 << 31 or n * p**e > 1 << 62:
                continue
            pairs[p] = e
            n *= p**e
        yield Factorization(n, tuple(sorted(pairs.items())))


def test_divisors_match_the_block_loop_beyond_the_ranges():
    # factorizations no range test reaches, passed whole so nothing is factorized
    first_12 = primes_upto(38)
    facs = [
        *_seeded_factorizations(random.Random(35), 400),
        Factorization(prod(first_12), tuple((p, 1) for p in first_12)),
        Factorization(2**61, ((2, 61),)),
        Factorization(3**39, ((3, 39),)),
    ]
    assert len(divisors_sorted(facs[-3])) == 4_096
    for f in facs:
        divs = divisors_sorted(f)
        assert divs == divisors_by_blocks(f.factors), f
        assert len(divs) == tau(f)


def test_tau_examples():
    assert tau(factorize(60)) == 12
    assert tau(factorize(1)) == 1
    assert tau(factorize(2 * 2 * 3 * 5)) == 12  # p^2*q*r shape


def test_capacity_guard():
    # factoring is held to INPUT_BOUND, primality only to the witness limit
    assert arith.INPUT_BOUND == 1 << 62
    with pytest.raises(CapacityError, match="exceeds the input bound"):
        factorize((1 << 62) + 1)
    assert not is_prime((1 << 62) + 1)  # 5 divides it
    assert is_prime(2**64 - 59)
    # the least strong pseudoprime to the full witness set (an 11-digit prime
    # times a 13-digit one) is where is_prime stops answering
    limit = arith._FULL_WITNESS_LIMIT
    assert limit == 1_287_836_182_261 * 2_575_672_364_521
    with pytest.raises(CapacityError, match="no deterministic witness set"):
        is_prime(limit)


def test_bound_is_configurable(monkeypatch):
    # INPUT_BOUND is a module constant: raising it lets factorize go past 2**62
    monkeypatch.setattr(arith, "INPUT_BOUND", 97**20)
    assert factorize(97**20).factors == ((97, 20),)
    # deterministic primality still refuses past the witness limit
    # (square of a Mersenne prime: odd, no small factors, ~5e36)
    with pytest.raises(CapacityError, match="no deterministic witness set"):
        is_prime((2**61 - 1) ** 2)


def test_primes_upto():
    assert primes_upto(2) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ps = primes_upto(10000)
    assert len(ps) == 1229
    assert all(naive_is_prime(p) for p in ps[:100])


def _trial_division_primes(limit):
    """The primes below ``limit``: each n is tried against the primes up to
    isqrt(n)."""
    primes = []
    for n in range(2, limit):
        r = isqrt(n)
        for p in primes:
            if p > r:
                primes.append(n)
                break
            if n % p == 0:
                break
        else:
            primes.append(n)
    return primes


def test_primes_upto_matches_trial_division():
    # the cached table and the odd-only sieve at every small limit, odd and
    # even, and about factorize's cap (2^16) and the table's cap (2^20)
    reference = _trial_division_primes(2**20 + 1)
    for limit in (*range(5001), 2**16, 2**16 + 1, 2**20, 2**20 + 1):
        primes = reference[: bisect_left(reference, limit)]
        assert primes_upto(limit) == primes, limit
        assert list(_sieve(2, limit)) == primes, limit


def _prime_window(lo, hi):
    return [n for n in range(lo, hi) if is_prime(n)]


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 3000), st.integers(1, 3000))
def test_primes_small_windows_match_is_prime(lo, width):
    assert list(_sieve(lo, lo + width)) == _prime_window(lo, lo + width)


_P = 999_983  # the largest prime below 10^6: p^2 is near 10^12


@pytest.mark.parametrize("lo, hi", [
    # lo from 0 to 5, about the 2 and the start of the self-sieving odds
    *((lo, hi) for lo in range(6) for hi in (1, 2, 3, 4, 5, 6, 7, 10, 50, 1_000)),
    # lo below, at and above isqrt(hi - 1)
    (30, 1_000), (31, 1_000), (32, 1_000), (10, 10**5), (317, 10**5), (400, 10**5),
    # a prime square at either edge
    (121, 169), (122, 170), (120, 168), (994_009, 996_004), (992_009, 994_009),
    (992_009, 994_010), (_P * _P, _P * _P + 1_000), (_P * _P - 1_000, _P * _P + 1),
    # near 10^12 and 2^40
    (10**12 - 2_000, 10**12 + 2_000), (2**40 - 2_000, 2**40 + 2_000),
])
def test_primes_windows_match_is_prime(lo, hi):
    assert list(_sieve(lo, hi)) == _prime_window(lo, hi)


@pytest.mark.parametrize("k", range(1, 21))
def test_table_windows_about_each_power_of_two_match_the_sieve(k):
    # hi - 1 crossing 2^k switches the table _primes slices
    for hi in (2**k - 1, 2**k, 2**k + 1, 2**k + 2, 2**k + 100):
        for lo in (0, 2, 3, 2 ** (k - 1) - 1, 2 ** (k - 1), hi // 2, hi // 2 + 1, hi - 1):
            assert list(_primes(lo, hi)) == list(_sieve(lo, hi)), (lo, hi)


@pytest.mark.parametrize("lo, hi", [
    (2**20 - 5_000, 2**20 + 5_000), (2**20 - 65_536, 2**20 + 1),
    (2**19 - 1_000, 2**20 + 1), (2**19 + 1, 2**20 + 1), (2, 2**20 + 1), (2, 2**20 + 2),
])
def test_windows_about_the_table_cap_match_the_sieve(lo, hi):
    assert list(_primes(lo, hi)) == list(_sieve(lo, hi))


@pytest.mark.parametrize("lo, hi, from_table", [
    (0, 2, True), (2, 1_001, True), (500, 1_001, True), (501, 1_001, False),
    (2**19, 2**20 + 1, True), (2**19 + 1, 2**20 + 1, False), (2, 2**20 + 2, False),
])
def test_windows_below_the_cap_from_the_lower_half_read_the_table(lo, hi, from_table):
    # a search's first span is one; the search benchmark repeats such spans
    assert isinstance(_primes(lo, hi), array) == from_table


def test_factor_sieve_agrees_with_factorize():
    sieve = FactorSieve(6000)
    for n in range(1, 6000):
        assert sieve.factorize(n) == factorize(n)
    with pytest.raises(ContractViolation):
        sieve.factorize(6000)


def test_factor_sieve_matches_factorize_at_scale():
    # one even and one odd limit: the table is laid out in (even, odd) pairs
    sieves = [FactorSieve(2_000_000), FactorSieve(2_000_003)]
    rng = random.Random(20221001)
    probes = itertools.chain(
        range(1, 10**5),
        (rng.randrange(10**5, 2_000_000) for _ in range(20_000)),
        (p * p for p in primes_upto(isqrt(1_999_999) + 1)),
        (1_999_999, 2_000_002),
    )
    for n in probes:
        expected = factorize(n)
        for sieve in sieves:
            if n < sieve.limit:
                assert sieve.factorize(n) == expected, (sieve.limit, n)


def test_factorization_value_type():
    f = Factorization(12, ((2, 2), (3, 1)))
    assert f == factorize(12)


# the first two primes above 2**20: past 2**40 a cofactor left by the
# sieve can be composite
_P1, _P2 = 1_048_583, 1_048_589


def _random_blocks(seed, lo, hi, count, length):
    rng = random.Random(seed)
    return [(a, a + length) for a in (rng.randrange(lo, hi) for _ in range(count))]


def _one_multiple_windows(p, size, near):
    """Two windows of ``size`` n from about ``near``, each holding one
    multiple of p: at index 0 in the first, at index size - 1 in the second."""
    m = -(-near // p) * p
    return [(m, m + size), (m - size + 1, m + 1)]


# Sieving primes above the window length have at most one multiple in it.
# Place that multiple at both window edges, for the first such prime, for
# 999 983 (the largest prime below 10**6) and for 999 983**2, whose prime
# divides it twice.
_SHORT_WINDOWS = list(dict.fromkeys(
    w
    for size in (1, 2, 3, 511, 512, 513)
    for p in (next(q for q in itertools.count(size + 1) if is_prime(q)), 999_983)
    for w in _one_multiple_windows(p, size, 10**12)
)) + [
    w for size in (3, 513) for w in _one_multiple_windows(999_983**2, size, 999_983**2)
]


# Near 10**12 the 78 498 sieving primes up to 10**6 give segments of at
# most 9 812 n; windows one n either side of one and two such segments
# are cut into one to three equal segments.
_SEGMENT_1E12 = 78_498 // 8
_SEGMENT_MULTIPLES = [
    (10**12, 10**12 + k * _SEGMENT_1E12 + d) for k in (1, 2) for d in (-1, 0, 1)
]


@pytest.fixture(scope="module")
def factorizations():
    """``[factorize(n) for n in range(lo, hi_excl)]`` as a function of (lo,
    hi_excl) that extends one run per ``lo``, so windows from one start
    factorize each n once."""
    runs: dict[int, list] = {}

    def get(lo, hi_excl):
        run = runs.setdefault(lo, [])
        run.extend(factorize(n) for n in range(lo + len(run), hi_excl))
        return run[: hi_excl - lo]

    return get


@pytest.mark.parametrize("lo, hi_excl", [
    (1, 2 * _MIN_SEGMENT + 17),
    (2, 3_000),
    # segment edges far from the origin: 3 401 sieving primes give
    # segments of at most 512 n, and 9 592 of at most 1 199 n
    (10**9 - 100, 10**9 + 1_000),
    (10**10 - 50, 10**10 + 1_300),
    *_random_blocks(4, 2 * 10**7, 10**10, 3, 600),
    *_random_blocks(5, 10**12, 10**12 + 10**9, 2, 600),
    (2**40 - 400, 2**40 + 400),
    (_P1 * _P1 - 100, _P1 * _P1 + 100),
    (_P1 * _P2 - 100, _P1 * _P2 + 100),
    (2**62 - 149, 2**62 + 1),
    *_SHORT_WINDOWS,
    *_SEGMENT_MULTIPLES,
])
def test_factor_range_matches_factorize(lo, hi_excl, factorizations):
    assert list(_factor_range(lo, hi_excl)) == [tuple(f) for f in factorizations(lo, hi_excl)]


def test_factor_range_edges():
    assert list(_factor_range(7, 7)) == []
    assert list(_factor_range(1, 2)) == [(1, ())]
    for lo, hi_excl in ((0, 5), (5, 4)):
        with pytest.raises(ContractViolation):
            list(_factor_range(lo, hi_excl))
    with pytest.raises(CapacityError):
        list(_factor_range(2**62, 2**62 + 2))


@pytest.mark.parametrize("t", [2, 3, 4, 100, 10**6, 2**20])
def test_segment_primes_match_primes_upto(t):
    # _factor_range sieves with the primes <= t <= 2^20: a slice of a table
    table = arith._prime_table(min(1 << t.bit_length(), _TABLE_LIMIT))
    assert table[: bisect_left(table, t + 1)].tolist() == list(_sieve(2, t + 1))
