import json
import multiprocessing
import random
import pickle
from bisect import bisect_left, bisect_right
from math import isqrt
from pathlib import Path

import pytest

from divrec import runner
from divrec.arith import (
    CapacityError,
    ContractViolation,
    FactorSieve,
    input_bound,
    is_prime,
    primes_upto,
    set_input_bound,
)
from divrec.classify import _divides, _s7_solution, classify_small
from divrec.search import (
    _S7_MODULI,
    L5Pair,
    S7Triple,
    _l5_candidates,
    _s7_candidates,
    _s7_square_test,
    _scan_span,
    search_large5,
    search_s7,
)
from references import large_verdict, s7_candidates, small_verdict

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


@pytest.mark.parametrize("search, pool_min_pmax", [
    (search_s7, 104_729), (search_large5, 479_909),
])
def test_search_pool_starts_at_its_threshold(pool_sizes, search, pool_min_pmax):
    # the 10 000th and the 40 000th prime
    sizes = pool_sizes(2)
    search(pool_min_pmax - 1, jobs=2)
    assert sizes == []
    search(pool_min_pmax, jobs=2)
    assert sizes == [2]


def test_small_searches_start_no_pool(monkeypatch):
    # below a search's pool threshold a pool costs more than the scan;
    # large5's threshold is the higher one: 11 301 primes up to 120 000
    expected = (search_s7(100), search_large5(100), search_large5(120_000))

    def no_pool(*args):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert search_s7(100, jobs=2) == expected[0]
    assert search_large5(100, jobs=2) == expected[1]
    assert search_large5(120_000, jobs=2) == expected[2]


def test_large_searches_run_on_a_pool(monkeypatch):
    # 11 301 primes up to 120 000, above _S7_POOL_MIN_PMAX, and 41 538 up
    # to 500 000, above _L5_POOL_MIN_PMAX
    started = []
    fork = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: started.append(m) or fork(m))
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)  # a pool on one CPU too
    assert search_s7(120_000, jobs=2) == search_s7(120_000, jobs=1)
    assert search_large5(500_000, jobs=2) == search_large5(500_000, jobs=1) == []
    assert started == ["fork", "fork"]


def _task_bytes(worker, starts):
    """The pickled size of each pool task: its worker and its start."""
    return [len(pickle.dumps((worker, start))) for start in starts]


def test_pooled_span_tasks_carry_only_the_scan_and_start(pool_sizes):
    # each span sieves its own base primes, so a task names only its
    # per-p scan and its start: no table, no limit and no inherited cache
    import divrec.search as search

    expected = search_s7(120_000)
    sizes = pool_sizes(2)
    assert search_s7(120_000, jobs=2) == expected
    (worker, starts), = sizes.maps
    assert sizes == [2] and starts == range(2, 120_001, 60_000)
    assert worker.args[0].args == (search._s7_scan_p,)
    # so a task's size does not grow with p_max: the same at 5*10^5 as at
    # 2*10^6, where each span sieves with 126 and 223 base primes
    for p_max in (500_000, 2_000_000):
        assert search_large5(p_max, jobs=2) == []
    low, high = (_task_bytes(*pair) for pair in sizes.maps[1:])
    assert max(low) == max(high) < 200


def test_search_pool_is_capped_at_cpus(pool_sizes):
    expected = search_s7(120_000)
    sizes = pool_sizes(2)
    assert search_s7(120_000, jobs=100_000) == expected
    assert sizes == [2]


@pytest.mark.parametrize("search", [search_s7, search_large5])
@pytest.mark.parametrize("jobs", [0, -5])
def test_searches_reject_jobs_below_one(search, jobs):
    with pytest.raises(ContractViolation):
        search(100, jobs=jobs)


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
    # (2^62 by default) before any prime is sieved
    import divrec.search as search

    spans = []
    monkeypatch.setattr(search, "_primes", lambda lo, hi: spans.append((lo, hi)) or [])
    for search_fn in (search_s7, search_large5):
        for p_max in (10**12, 29_210_830):  # the smallest p_max over 2^62
            with pytest.raises(CapacityError):
                search_fn(p_max)
        assert spans == []
        assert search_fn(29_210_829) == []
        # one sieve per span of at most 2^16 p; the spans tile [2, p_max] in order
        assert spans[0][0] == 2 and spans[-1][1] == 29_210_830
        assert all(a[1] == b[0] and b[1] - b[0] <= 2**16 for a, b in zip(spans, spans[1:]))
        spans.clear()


def _itself(p):
    return [p]


@pytest.mark.parametrize("lo, hi", [
    (2, 3), (2, 4), (3, 10), (4, 5), (2, 1_000), (1_000, 70_000),
    (65_538, 131_074), (2, 300_000),
])
def test_span_sieve_matches_primes_upto(lo, hi):
    assert _scan_span(_itself, lo, hi) == _window(primes_upto(hi), lo - 1, hi)


def test_span_sieve_near_1e12_matches_is_prime():
    lo, hi = 10**12 - 1_000, 10**12 + 2_000
    assert _scan_span(_itself, lo, hi) == [n for n in range(lo, hi) if is_prime(n)]


def test_s7_fixture_pmax1000000():
    got = [
        {"p": h.p, "q": h.q, "r": h.r, "n": h.n, "a": h.a, "b": h.b,
         "oracle_confirmed": h.oracle_confirmed}
        for h in search_s7(1_000_000)
    ]
    text = (FIXTURES / "search_s7_pmax1000000.jsonl").read_text()
    assert got == [json.loads(line) for line in text.splitlines() if line]
    assert [(h["p"], h["q"], h["r"]) for h in got] == [(2, 3, 5)]


def test_large5_fixture_pmax1000000_empty():
    assert (FIXTURES / "search_large5_pmax1000000.jsonl").read_text() == ""
    assert search_large5(1_000_000) == []


def test_s7_candidates_cover_the_window():
    # every integer p, not only primes: the derivation never uses primality.
    # Below 3 000 only (2, 3) and (21, 98) pass _s7_solution; 98 comes from
    # j = 1, 3 from the separate q = isqrt(p^3) + 1.
    accepted = []
    for p in range(2, 3000):
        s = isqrt(p**3)
        window = range(s + 1, isqrt(p**3 + p * p) + 1)
        ok = [q for q in window if _s7_solution(p, q) is not None]
        cands = _s7_candidates(p)
        assert set(ok) <= set(cands), p
        assert len(cands) == len(set(cands)) and min(cands) > s, p
        accepted += [(p, q) for q in ok]
    assert accepted == [(2, 3), (21, 98)]


def _s7_sample(stop, seed):
    """Every p below ``stop``, and a few from 10^8 to beyond the frontier."""
    rng = random.Random(seed)
    return [*range(2, stop),
            *(rng.randrange(10**8, 10**9) for _ in range(40)),
            *(rng.randrange(10**9, 6_431_325_587) for _ in range(40)),
            *(rng.randrange(10**13, 10**14) for _ in range(3))]


def test_s7_candidates_match_the_unfiltered_loop():
    # composites included; the only accepted q below 10^5 is 98 for p = 21,
    # so the square test is checked on its own below
    for p in _s7_sample(100_000, 1507):
        assert _s7_candidates(p) == s7_candidates(p), p


def test_s7_square_test_passes_exactly_the_squares_mod_each_modulus():
    # D from p itself, not from its residues, against each modulus's squares
    squares = {m: {x * x % m for x in range(m)} for m in _S7_MODULI}
    for p in _s7_sample(20_000, 1508):
        s = isqrt(p**3)
        top = isqrt((p * p - s - 2) // (2 * s + 4))
        expected = sum(
            1 << j for j in range(1, top + 1)
            if all((1 + 4 * j * j * (j * j * p**3 + p * p)) % m in squares[m]
                   for m in _S7_MODULI)
        )
        assert _s7_square_test(p, top) == expected, p


def test_search_names_load_with_the_search_module():
    import divrec

    from divrec import L5Pair as l5, S7Triple as s7, search_large5, search_s7 as s7_fn

    assert (s7, l5) == (S7Triple, L5Pair)
    assert divrec.search_s7 is divrec.search.search_s7 is s7_fn is search_s7
    assert divrec.search_large5 is divrec.search.search_large5
    with pytest.raises(AttributeError, match="no_such_name"):
        divrec.no_such_name
    with pytest.raises(ImportError):
        from divrec import no_such_name  # noqa: F401


def test_large5_filter_keeps_every_passing_q():
    # every integer p, not only primes; no q passes both checks below 3 000,
    # so this guards the filter against dropping one, not the hits
    for p in range(2, 3000):
        s = isqrt(p**5)
        passing = [
            q for q in (s, s + 1)
            if _divides(p**5 - q * q, p * p - q) and _divides(p**5 - q * q, p**3 - q)
        ]
        assert set(passing) <= set(_l5_candidates(p)) <= {s, s + 1}, p


@pytest.fixture
def input_bound_59():
    old = input_bound()
    set_input_bound(59)
    yield
    set_input_bound(old)


def test_hit_above_input_bound_is_reported(input_bound_59):
    # n = 60 exceeds the bound; the hit is confirmed from its known
    # factorization, so n is never factorized or guarded
    assert search_s7(2) == [S7Triple(p=2, q=3, r=5, n=60, a=2, b=-1, oracle_confirmed=True)]
