import json
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest

from divrec import harness
from divrec.arith import CapacityError, ContractViolation, FactorSieve, is_prime, primes_upto
from divrec.classify import _divides, _s7_solution, classify_small
from divrec.oracle import large_verdict, small_verdict
from divrec.search import L5Pair, S7Triple, search_large5, search_s7

FIXTURES = Path(__file__).parent / "fixtures"


def _window(primes, lo, hi):
    return primes[bisect_right(primes, lo) : bisect_left(primes, hi)]


def window_scan_s7(p_max):
    """Reference: try every prime q in p < q < p^2 for every prime p <= p_max."""
    qs = primes_upto(p_max * p_max)
    hits = []
    for p in primes_upto(p_max + 1):
        p2 = p * p
        for q in _window(qs, p, p2):
            sol = _s7_solution(p, q)
            if sol is None or sol[0] <= p2 or not is_prime(sol[0]):
                continue
            r, a, b = sol
            n = p2 * q * r
            hits.append(S7Triple(p, q, r, n, a, b, small_verdict(n).recurrent))
    return sorted(hits, key=lambda t: (t.p, t.q, t.r))


def window_scan_large5(p_max):
    """Reference: try every prime q in p^2 < q < p^3 for every prime p <= p_max."""
    qs = primes_upto(p_max**3)
    hits = []
    for p in primes_upto(p_max + 1):
        for q in _window(qs, p * p, p**3):
            d = p**5 - q * q
            if _divides(d, p * p - q) and _divides(d, p**3 - q):
                n = p**4 * q
                hits.append(L5Pair(p, q, n, large_verdict(n).recurrent))
    return sorted(hits, key=lambda t: (t.p, t.q))


def test_known_triple_found():
    hits = search_s7(5)
    assert hits == [S7Triple(p=2, q=3, r=5, n=60, a=2, b=-1, oracle_confirmed=True)]


def test_smallest_window():
    # p = 2 leaves only q = 3 in (2, 4); it yields the known triple
    hits = search_s7(2)
    assert [(h.p, h.q, h.r) for h in hits] == [(2, 3, 5)]


def test_s7_hits_satisfy_all_conditions():
    for h in search_s7(100):
        p, q, r = h.p, h.q, h.r
        assert is_prime(p) and is_prime(q) and is_prime(r)
        assert p < q < p * p < r < p * q
        den = q * q - p**3
        assert (p * q - r) % den == 0
        assert (r * q - p**4) % den == 0
        rad = den * (p * p - q)
        s = p * q - r
        assert s * s == rad
        assert h.n == p * p * q * r
        assert h.a * den == p * (p * q - r)
        assert h.b * den == r * q - p**4
        assert h.oracle_confirmed


def test_s7_fixture():
    expected = [
        json.loads(line)
        for line in (FIXTURES / "search_s7_pmax100.jsonl").read_text().splitlines()
        if line
    ]
    got = [
        {"p": h.p, "q": h.q, "r": h.r, "n": h.n, "a": h.a, "b": h.b,
         "oracle_confirmed": h.oracle_confirmed}
        for h in search_s7(100)
    ]
    assert got == expected


def test_s7_parallel_determinism():
    assert search_s7(60, jobs=1) == search_s7(60, jobs=2) == search_s7(60, jobs=5)


def test_small_searches_start_no_pool(monkeypatch):
    # below _POOL_MIN_PRIMES primes a pool costs more than the scan
    expected = (search_s7(100), search_large5(100))

    def no_pool(*args):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "get_context", no_pool)
    assert search_s7(100, jobs=2) == expected[0]
    assert search_large5(100, jobs=2) == expected[1]


def test_large_searches_run_on_a_pool(monkeypatch):
    # 2 262 primes up to 20 000, above _POOL_MIN_PRIMES
    started = []
    fork = harness.get_context
    monkeypatch.setattr(harness, "get_context", lambda m: started.append(m) or fork(m))
    assert search_s7(20_000, jobs=2) == search_s7(20_000, jobs=1)
    assert search_large5(20_000, jobs=2) == search_large5(20_000, jobs=1) == []
    assert started == ["fork", "fork"]


def test_s7_matches_form_10_classification():
    # every hit is classified as the five-element exceptional form,
    # and every classified n in range comes from a hit
    hits = search_s7(100)
    hit_ns = {h.n for h in hits}
    sieve = FactorSieve(100001)
    classified = set()
    for n in range(2, 100001):
        f = sieve.factorize(n)
        if len(f.factors) != 3:
            continue
        if any(m.form_id == 10 for m in classify_small(n, fac=f)):
            classified.add(n)
    assert classified == {n for n in hit_ns if n <= 100000}
    for h in hits:
        matched = [m for m in classify_small(h.n) if m.form_id == 10]
        assert matched and matched[0].predicted_u == (h.p, h.q, h.a, h.b)


def test_large5_windows_empty_for_small_p():
    # p = 2: q in {5, 7}; p = 3: q in {11, ..., 23}; all fail divisibility
    assert search_large5(3) == []


def test_large5_fixture_empty():
    text = (FIXTURES / "search_large5_pmax50.jsonl").read_text()
    assert text.strip() == ""
    assert search_large5(50) == []


def test_large5_parallel_determinism():
    assert search_large5(20, jobs=1) == search_large5(20, jobs=2)


def test_large5_divisibility_logic():
    # 7 = |2^5 - 5^2| does not divide |2^2 - 5| = 1
    assert (2**5 - 5**2) == 7 and abs(2 * 2 - 5) == 1
    assert search_large5(2) == []


def test_rejects_tiny_pmax():
    with pytest.raises(ContractViolation):
        search_s7(1)
    with pytest.raises(ContractViolation):
        search_large5(0)


@pytest.mark.parametrize("p_max", [*range(2, 61), 300])
def test_s7_matches_window_scan(p_max):
    assert search_s7(p_max) == window_scan_s7(p_max)


@pytest.mark.parametrize("p_max", [*range(2, 61), 150])
def test_large5_matches_window_scan(p_max):
    assert search_large5(p_max) == window_scan_large5(p_max)


def test_s7_fixture_pmax10000():
    got = [
        {"p": h.p, "q": h.q, "r": h.r, "n": h.n, "a": h.a, "b": h.b,
         "oracle_confirmed": h.oracle_confirmed}
        for h in search_s7(10000)
    ]
    text = (FIXTURES / "search_s7_pmax10000.jsonl").read_text()
    assert got == [json.loads(line) for line in text.splitlines() if line]
    assert [(h["p"], h["q"], h["r"]) for h in got] == [(2, 3, 5)]


def test_large5_fixture_pmax10000_empty():
    assert (FIXTURES / "search_large5_pmax10000.jsonl").read_text() == ""
    assert search_large5(10000) == []


def test_hostile_pmax_raises_before_any_table(monkeypatch):
    # isqrt(p_max^5) + 1 bounds every q tried; it must pass the input bound
    # (2^62 by default) before the prime table is built
    import divrec.search as search

    built = []
    monkeypatch.setattr(search, "primes_upto", lambda limit: built.append(limit) or [])
    for runner in (search_s7, search_large5):
        for p_max in (10**12, 29_210_830):  # the smallest p_max over 2^62
            with pytest.raises(CapacityError):
                runner(p_max)
        assert built == []
        assert runner(29_210_829) == []
        assert built == [29_210_830]
        built.clear()
