import json
import multiprocessing
import random
import pickle
from bisect import bisect_left, bisect_right
from math import isqrt
from pathlib import Path

import pytest

from divrec import arith, runner
from divrec.arith import (
    CapacityError,
    ContractViolation,
    Factorization,
    _primes,
    _sieve,
    is_prime,
    primes_upto,
)
from divrec.classify import _divides, _s7_solution, classify_small
from divrec.harness import _factor_range
from divrec.oracle import verdict_for_sequence
from divrec.profiles import profile
from divrec.search import (
    _S7_MODULI,
    L5Pair,
    S7Triple,
    _l5_candidates,
    _s7_candidates,
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
    (search_s7, 350_377), (search_large5, 479_909),
])
def test_search_pool_starts_at_its_threshold(pool_sizes, search, pool_min_pmax):
    # the 30 000th and the 40 000th prime
    sizes = pool_sizes(2)
    search(pool_min_pmax - 1, jobs=2)
    assert sizes == []
    search(pool_min_pmax, jobs=2)
    assert sizes == [2]


def test_small_searches_start_no_pool(monkeypatch):
    # below a search's pool threshold a pool costs more than the scan;
    # large5's threshold is the higher one: 33 860 primes up to 400 000
    expected = (search_s7(100), search_large5(100), search_large5(400_000))

    def no_pool(*args):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert search_s7(100, jobs=2) == expected[0]
    assert search_large5(100, jobs=2) == expected[1]
    assert search_large5(400_000, jobs=2) == expected[2]


def test_large_searches_run_on_a_pool(monkeypatch):
    # 33 860 primes up to 400 000, above _S7_POOL_MIN_PMAX, and 41 538 up
    # to 500 000, above _L5_POOL_MIN_PMAX
    started = []
    fork = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: started.append(m) or fork(m))
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)  # a pool on one CPU too
    assert search_s7(400_000, jobs=2) == search_s7(400_000, jobs=1)
    assert search_large5(500_000, jobs=2) == search_large5(500_000, jobs=1) == []
    assert started == ["fork", "fork"]


def _task_bytes(worker, starts):
    """The pickled size of each pool task: its worker and its start."""
    return [len(pickle.dumps((worker, start))) for start in starts]


def test_pooled_span_tasks_carry_only_the_scan_and_start(pool_sizes):
    # each span sieves its own base primes, so a task names only its
    # span loop and its start: no table, no limit and no inherited cache
    import divrec.search as search

    expected = search_s7(400_000)
    sizes = pool_sizes(2)
    assert search_s7(400_000, jobs=2) == expected
    (worker, starts), = sizes.maps
    assert sizes == [2] and starts == range(2, 400_001, 65_536)
    assert worker.args[0] is search._s7_span
    # so a task's size does not grow with p_max: the same at 5*10^5 as at
    # 2*10^6, where each span sieves with 126 and 223 base primes
    for p_max in (500_000, 2_000_000):
        assert search_large5(p_max, jobs=2) == []
    low, high = (_task_bytes(*pair) for pair in sizes.maps[1:])
    assert max(low) == max(high) < 200


def test_search_pool_is_capped_at_cpus(pool_sizes):
    expected = search_s7(400_000)
    sizes = pool_sizes(2)
    assert search_s7(400_000, jobs=100_000) == expected
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
    classified = set()
    for n, sig in _factor_range(2, 100001):
        f = Factorization(n, sig)
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


@pytest.mark.parametrize("q, confirmed", [(11, True), (5, False)])
def test_large5_hit_is_confirmed_on_its_large_set(monkeypatch, q, confirmed):
    # no large5 hit exists below 10^6, so the filter is patched open: of
    # 176 = 2^4*11, L' = (16, 22, 44, 88) is recurrent by large form 3 and
    # S' = (2, 4, 8, 11) is not; of 80 = 2^4*5 neither set is
    import divrec.search as search

    monkeypatch.setattr(search, "_l5_candidates", lambda ps: ((p, q) for p in ps))
    monkeypatch.setattr(search, "_l5_condition", lambda p, q: True)
    n = 2**4 * q
    assert search._l5_span(2, 3) == [L5Pair(2, q, n, confirmed)]
    assert verdict_for_sequence(profile(n).large_strict).recurrent is confirmed
    assert not verdict_for_sequence(profile(n).small_strict).recurrent


@pytest.mark.parametrize("q, sol, hits", [
    (3, (5, 2, -1), [S7Triple(2, 3, 5, 60, 2, -1, True)]),
    (4, (5, 2, -1), []),  # q not prime
    (3, (9, 2, -1), []),  # r not prime
    (3, (3, 2, -1), []),  # r <= p^2
    (3, None, []),
])
def test_s7_span_keeps_only_prime_q_and_r_above_p2(monkeypatch, q, sol, hits):
    # no s7 candidate below 3*10^6 fails a check after ``_s7_solution``, so
    # the candidate and its solution are patched in
    import divrec.search as search

    monkeypatch.setattr(search, "_s7_candidates", lambda ps: ((p, q) for p in ps))
    monkeypatch.setattr(search, "_s7_solution", lambda p, q: sol)
    assert search._s7_span(2, 3) == hits


def test_large5_span_drops_a_composite_q(monkeypatch):
    import divrec.search as search

    monkeypatch.setattr(search, "_l5_candidates", lambda ps: ((p, 9) for p in ps))
    monkeypatch.setattr(search, "_l5_condition", lambda p, q: True)
    assert search._l5_span(2, 3) == []


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
    # isqrt(p_max^5 + p_max^4) bounds every number a search tests for
    # primality; it must stay below the witness limit before any prime is
    # sieved
    import divrec.search as search

    spans = []
    monkeypatch.setattr(search, "_primes", lambda lo, hi: spans.append((lo, hi)) or [])
    for search_fn in (search_s7, search_large5):
        for p_max in (10**12, 6_431_325_587):  # the smallest p_max refused
            with pytest.raises(CapacityError, match="primality limit"):
                search_fn(p_max)
        assert spans == []
        assert search_fn(6_431_325_586) == []
        # one sieve per span of at most 2^16 p; the spans tile [2, p_max] in order
        assert spans[0][0] == 2 and spans[-1][1] == 6_431_325_587
        assert all(a[1] == b[0] and b[1] - b[0] <= 2**16 for a, b in zip(spans, spans[1:]))
        spans.clear()


def test_every_tested_number_is_within_the_search_bound():
    # the bound that ``_scan_primes`` holds p_max to covers each candidate:
    # s7's r < p*q and large5's q
    ps = range(2, 3000)
    s7 = list(_s7_candidates(ps))
    assert s7 == [(2, 3), (21, 98), (52, 375)]  # (21*98)^2 is 99% of 21^5 + 21^4
    assert all(p * q <= isqrt(p**5 + p**4) for p, q in s7)
    assert all(q <= isqrt(p**5 + p**4) for p in ps for q in (isqrt(p**5), isqrt(p**5) + 1))
    assert all(q <= isqrt(p**5 + p**4) for p, q in _l5_candidates(ps))


@pytest.mark.parametrize("lo, hi", [
    (2, 3), (2, 4), (3, 10), (4, 5), (2, 1_000), (1_000, 70_000),
    (65_538, 131_074), (2, 300_000),
])
def test_span_sieve_matches_primes_upto(lo, hi):
    assert list(_sieve(lo, hi)) == _window(primes_upto(hi), lo - 1, hi)


def test_span_sieve_near_1e12_matches_is_prime():
    lo, hi = 10**12 - 1_000, 10**12 + 2_000
    assert list(_primes(lo, hi)) == [n for n in range(lo, hi) if is_prime(n)]


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
    got = list(_s7_candidates(range(2, 3000)))
    assert len(got) == len(set(got)) and all(q > isqrt(p**3) for p, q in got)
    accepted = []
    for p in range(2, 3000):
        window = range(isqrt(p**3) + 1, isqrt(p**3 + p * p) + 1)
        accepted += [(p, q) for q in window if _s7_solution(p, q) is not None]
    assert set(accepted) <= set(got)
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
    # so the square test is checked on its own below.  The j loop yields the
    # reference's q > s + 1; s + 1 itself is kept iff den | p^2 - q, which
    # every accepted q meets, and is dropped only where _s7_solution fails
    for p in _s7_sample(100_000, 1507):
        s = isqrt(p**3)
        qs = [q for _, q in _s7_candidates([p])]
        keep = (p * p - s - 1) % ((s + 1) ** 2 - p**3) == 0
        assert qs[:keep] == [s + 1] * keep and qs[keep:] == s7_candidates(p)[1:], p
        assert keep or _s7_solution(p, s + 1) is None, p


def test_s7_square_test_passes_exactly_the_squares_mod_each_modulus(monkeypatch):
    # D from p itself, not from its residues, against each modulus's squares:
    # after isqrt(p^3) and the j bound, the generator takes the isqrt of the
    # D of exactly the j in [1, top] that pass every modulus, in order
    import divrec.search as search

    squares = {m: {x * x % m for x in range(m)} for m in _S7_MODULI}
    roots = []
    monkeypatch.setattr(search, "isqrt", lambda x: roots.append(x) or isqrt(x))
    for p in _s7_sample(20_000, 1508):
        p3 = p**3
        s = isqrt(p3)
        bound = (p * p - s - 2) // (2 * s + 4)
        ds = (1 + 4 * j * j * (j * j * p3 + p * p) for j in range(1, isqrt(bound) + 1))
        roots.clear()
        list(_s7_candidates([p]))
        assert roots == [p3, bound, *(
            d for d in ds if all(d % m in squares[m] for m in _S7_MODULI))], p


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
    # every integer p, squares included, where p^5 - isqrt(p^5)^2 = 0 divides
    # only 0; no q passes both checks below 3 000, so this guards the filter
    # against dropping one, and pins it to p^5 - q^2 | p - 1
    kept = []
    for p in range(2, 3000):
        s = isqrt(p**5)
        passing = [
            q for q in (s, s + 1)
            if _divides(p**5 - q * q, p * p - q) and _divides(p**5 - q * q, p**3 - q)
        ]
        divides = [q for q in (s, s + 1) if _divides(p**5 - q * q, p - 1)]
        assert set(passing) <= set(divides), p
        kept += [(p, q) for q in divides]
    assert list(_l5_candidates(range(2, 3000))) == kept == [(8, 181)]


@pytest.fixture
def input_bound_59(monkeypatch):
    monkeypatch.setattr(arith, "INPUT_BOUND", 59)


def test_hit_above_input_bound_is_reported(input_bound_59):
    # n = 60 exceeds the bound; the hit is confirmed from its known
    # factorization, so n is never factorized or guarded
    assert search_s7(2) == [S7Triple(p=2, q=3, r=5, n=60, a=2, b=-1, oracle_confirmed=True)]
