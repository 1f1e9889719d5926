import contextlib
import itertools
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import divrec
from divrec import arith, check, classify, fit, harness, profiles, runner
from divrec.arith import (
    CapacityError,
    ContractViolation,
    Factorization,
    divisors_sorted,
    factorize,
)
from divrec.check import (
    KIND_CLASSIFIER_ONLY,
    KIND_ORACLE_ONLY,
    KIND_PREDICTION,
    ErrataEntry,
    ValidationRecord,
    canonical_json,
    check_single,
    jsonable,
)
from divrec.cli import main
from divrec.fit import FitKind, verify_params
from divrec.harness import (
    append_ledger,
    ledger_keys,
    profile_sweep_failures,
    split_errata,
    validate_range,
)
from divrec.profiles import check_tau_identity, profile
from divrec.runner import _SPAN_MAX, _available_cpus, map_spans
from references import evaluate_by_objects, large_verdict, record_line, validation_record_dict


def errata_of(n):
    f = factorize(n)
    prof = profile(n, fac=f)
    return list(harness._evaluate(n, f.factors, prof.small_strict, prof.large_strict)[1])


def _reference_scan(lo, hi):
    """(report text, errata, summary counts) of [lo, hi] from the object
    reference, one ``profile`` per n."""
    lines, errata, counts = [], [], [0, 0, 0, 0, 0, 0]
    for n in range(lo, hi + 1):
        f = factorize(n)
        rec, errs, small_vac, large_vac = evaluate_by_objects(f, profile(n, fac=f))
        lines.append(canonical_json(validation_record_dict(rec)) + "\n")
        errata.extend(errs)
        for i, v in enumerate((rec.small_oracle, small_vac, rec.large_oracle, large_vac)):
            counts[i] += v
    counts[4] = sum(e.theorem == "Small" for e in errata)
    counts[5] = sum(e.theorem == "Large" for e in errata)
    return "".join(lines), errata, counts


def _counts(summary):
    return [
        summary.count_small_recurrent, summary.count_small_vacuous,
        summary.count_large_recurrent, summary.count_large_vacuous,
        summary.errata_small, summary.errata_large,
    ]


def _scan(lo, hi, tmp_path):
    """(report text, errata, summary counts) of ``validate_range`` at jobs=1."""
    path = tmp_path / f"report-{lo}.jsonl"
    summary, errata = validate_range(lo, hi, report_path=path)
    return path.read_text(), errata, _counts(summary)


def test_check_single_60():
    with pytest.raises(ContractViolation):
        check_single(1)
    assert check_single(60) == ValidationRecord(
        n=60,
        small_oracle=True,
        small_forms=(10,),
        large_oracle=False,
        large_forms=(),
        prediction_ok=True,
    )


def test_check_single_100_files_erratum():
    rec, errata = check_single(100), errata_of(100)
    assert rec.large_oracle and rec.large_forms == ()
    assert len(errata) == 1
    e = errata[0]
    assert e.kind == KIND_ORACLE_ONLY and e.theorem == "Large" and e.n == 100
    assert "[20, 25, 50]" in e.detail and "(2, 0)" in e.detail


def test_check_single_30():
    rec = check_single(30)
    assert rec.small_oracle and rec.small_forms == (8,)


def test_validate_range_2_1000():
    summary, errata = validate_range(2, 1000)
    assert summary.errata_small == 0
    assert sorted(e.n for e in errata) == [100, 196, 484, 676]
    assert all(
        e.theorem == "Large" and e.kind == KIND_ORACLE_ONLY for e in errata
    )
    # each erratum reproduces from a single-n run and has a valid witness
    for e in errata:
        errs = errata_of(e.n)
        assert errs and errs[0].kind == e.kind
        v = large_verdict(e.n)
        assert v.recurrent and verify_params(
            list(profile(e.n).large_strict), *v.witness
        )


def test_validate_range_2_10_all_vacuous():
    summary, errata = validate_range(2, 10)
    assert errata == []
    assert summary.count_small_recurrent == 9
    assert summary.count_small_vacuous == 9
    assert summary.count_large_recurrent == 9
    assert summary.count_large_vacuous == 9


def test_half_range_merge_equals_whole():
    s_all, e_all = validate_range(2, 3000)
    s_lo, e_lo = validate_range(2, 1500)
    s_hi, e_hi = validate_range(1501, 3000)
    assert e_lo + e_hi == e_all
    for field in (
        "count_small_recurrent",
        "count_small_vacuous",
        "count_large_recurrent",
        "count_large_vacuous",
        "errata_small",
        "errata_large",
    ):
        assert getattr(s_lo, field) + getattr(s_hi, field) == getattr(s_all, field)


def test_report_bytes_identical_across_jobs(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "_POOL_MIN", 0)  # a pool on this small range
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)  # and on one CPU
    paths = []
    for jobs in (1, 2, 3):
        path = tmp_path / f"report-{jobs}.jsonl"
        validate_range(2, 2000, jobs=jobs, report_path=path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    first = json.loads(paths[0].decode().splitlines()[0])
    assert first["n"] == 2


def test_report_near_1e12_identical_across_jobs_and_to_single_n(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "_POOL_MIN", 0)  # a pool on this small range
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)  # and on one CPU
    lo, hi = 10**12 + 4_000, 10**12 + 6_999
    paths = []
    for jobs in (1, 2):
        path = tmp_path / f"report-{jobs}.jsonl"
        validate_range(lo, hi, jobs=jobs, report_path=path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    # the sieved block scan against per-n factorize
    expected = "".join(record_line(check_single(n)) for n in range(lo, hi + 1))
    assert paths[0].decode() == expected
    assert _scan(lo, hi, tmp_path) == _reference_scan(lo, hi)


def _span_of(a, b):
    return a, b


def _spans(lo, stop, jobs):
    """The spans that ``map_spans`` cuts [lo, stop) into, run in this process."""
    return list(map_spans(_span_of, lo, stop, jobs, math.inf))


def _span_list(lo, hi, jobs):
    """The list of spans that range scans built before their spans were lazy."""
    size = min(_SPAN_MAX, -(-(hi - lo + 1) // jobs))
    return [(start, min(start + size, hi + 1)) for start in range(lo, hi + 1, size)]


def test_blocks_give_every_worker_a_share(monkeypatch):
    monkeypatch.setattr(runner, "_available_cpus", lambda: 64)
    assert _spans(2, 3002, 1) == [(2, 3002)]
    assert _spans(2, 3002, 2) == [(2, 1502), (1502, 3002)]
    assert _spans(10, 13, 5) == [(10, 11), (11, 12), (12, 13)]
    spans = _spans(1, 3 * _SPAN_MAX + 1, 2)
    assert [b - a for a, b in spans] == [_SPAN_MAX] * 3
    assert spans[0][0] == 1 and spans[-1][1] == 3 * _SPAN_MAX + 1
    # a span per job that cannot run at once only adds a block set-up
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)
    assert _spans(2, 3002, 5) == [(2, 1502), (1502, 3002)]


def test_blocks_match_the_span_list_in_constant_memory(monkeypatch, pool_sizes):
    monkeypatch.setattr(runner, "_available_cpus", lambda: 64)
    for lo, hi, jobs in itertools.product(
        (2, 3, 1000), (2, 3, 17, 1000, _SPAN_MAX, 3 * _SPAN_MAX + 5), (1, 2, 3, 7, 64)
    ):
        if lo <= hi:
            assert _spans(lo, hi + 1, jobs) == _span_list(lo, hi, jobs), (lo, hi, jobs)
    # [2, 2**62], the input bound, has 2**46 spans of _SPAN_MAX n
    sizes = pool_sizes(2)
    tracemalloc.start()
    try:
        spans = map_spans(_span_of, 2, 2**62 + 1, 2, 0)
        first = next(spans)
        (worker, starts), = sizes.maps
        count, last = len(starts), worker(starts[-1])
        spans.close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert count == 2**46
    assert first == (2, 2 + _SPAN_MAX)
    assert last == (2**62 + 1 - (2**62 - 1) % _SPAN_MAX, 2**62 + 1)


class _FirstBlock(Exception):
    pass


def _stop_at_first_block(lo, hi_excl):
    raise _FirstBlock(lo, hi_excl)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("scan, worker", [
    (validate_range, "_scan_validation_block"),
    (profile_sweep_failures, "_scan_profile_block"),
])
def test_range_scan_to_the_input_bound_starts_in_constant_memory(
    monkeypatch, pool_sizes, scan, worker, jobs
):
    # the scans hand their spans to the pool as they go: no list of the
    # 2**46 spans of [2, 2**62] is built before the first block runs
    sizes = pool_sizes(2)
    monkeypatch.setattr(harness, worker, _stop_at_first_block)
    tracemalloc.start()
    try:
        with pytest.raises(_FirstBlock) as stopped:
            scan(2, 2**62, jobs=jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert stopped.value.args == (2, 2 + _SPAN_MAX)
    assert (sizes, sizes.tasks) == (([2], [2**46]) if jobs > 1 else ([], []))


def test_record_json_round_trip():
    rec = check_single(60)
    line = record_line(rec)
    parsed = json.loads(line)
    assert canonical_json(parsed) + "\n" == line
    assert parsed["small_forms"] == [10]


def test_line_parts_split_canonical_json():
    # each outcome is rendered once with n = 0 and cut around that 0; every
    # n, also around the 2**53 cut where integers turn into strings, must get
    # its record's canonical JSON
    outcomes = set(harness._scan_validation_block(2, 20_001)[0])
    assert len(outcomes) >= 8
    forms = [(), (1,), (2, 7, 9)]
    for small_forms, large_forms in itertools.product(forms, forms):
        for small, large, ok in itertools.product((False, True), repeat=3):
            outcomes.add((small, False, small_forms, large, False, large_forms, ok))
    for outcome in outcomes:
        head, tail = harness._line_parts(outcome)
        s_rec, _, s_ids, l_rec, _, l_ids, ok = outcome
        for n in (2, 2**53 - 1, 2**53, 2**53 + 1, 2**62):
            rec = ValidationRecord(n, s_rec, s_ids, l_rec, l_ids, ok)
            assert (head + harness._json_int(n) + tail
                    == canonical_json(validation_record_dict(rec)) + "\n")


def test_big_integers_serialize_as_strings():
    obj = {"n": 1 << 61, "small": 7}
    encoded = json.loads(canonical_json(obj))
    assert encoded["n"] == str(1 << 61)
    assert encoded["small"] == 7
    assert jsonable(True) is True


def test_canonical_json_refuses_records():
    # a NamedTuple record is a tuple, but not one to write out as a list
    for rec in (ErrataEntry(60, "Small", KIND_PREDICTION, "detail"), check_single(60)):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json(rec)
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json({"records": [rec]})


def _eight_records():
    """One of each record type that ``import divrec`` defines."""
    return [
        Factorization(12, ((2, 2), (3, 1))),
        fit.FitVerdict(FitKind.POINT, (1, 2)),
        profile(60),
        classify.classify_small(60)[0],
        large_verdict(60),
        check_single(60),
        ErrataEntry(60, "Small", KIND_PREDICTION, "detail"),
        validate_range(2, 100)[0],
    ]


def test_records_are_frozen_picklable_and_replaceable():
    records = _eight_records()
    assert len({type(rec) for rec in records}) == 8
    for rec in records:
        first = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, first, None)
        # pool workers return errata and records through pickle
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is type(rec)
        changed = rec._replace(**{first: None})
        assert getattr(changed, first) is None and changed[1:] == rec[1:]
        assert tuple(rec) == rec  # a record is a tuple of its fields


def test_record_reprs_keep_the_field_names():
    assert repr(Factorization(12, ((2, 2), (3, 1)))) == (
        "Factorization(n=12, factors=((2, 2), (3, 1)))")
    assert repr(ErrataEntry(60, "Small", KIND_PREDICTION, "d")) == (
        "ErrataEntry(n=60, theorem='Small', kind='PredictionMismatch', detail='d')")


def test_validation_record_dict_field_names():
    rec = check_single(60)
    assert list(validation_record_dict(rec)) == [
        "n",
        "small_oracle",
        "small_forms",
        "large_oracle",
        "large_forms",
        "prediction_ok",
    ]


def test_summary_csv(tmp_path, capsys):
    # the summary file holds the rows of ``validate --format csv``
    argv = ["validate", "--from", "2", "--to", "100"]
    assert main([*argv, "--format", "csv"]) == 0
    rows = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "r.jsonl")]) == 0
    path = tmp_path / "r.summary.csv"
    assert path.read_bytes().decode() == rows
    header, row = path.read_text().strip().splitlines()
    assert header.split(",") == [
        "range_lo",
        "range_hi",
        "count_small_recurrent",
        "count_small_vacuous",
        "count_large_recurrent",
        "count_large_vacuous",
        "errata_small",
        "errata_large",
    ]
    assert row.split(",")[0] == "2" and row.split(",")[1] == "100"


def test_append_ledger_dedupes(tmp_path):
    path = tmp_path / "ledger.jsonl"
    _, errata = validate_range(2, 700)
    assert append_ledger(path, errata) == len(errata)
    assert append_ledger(path, errata) == 0
    lines = [json.loads(x) for x in path.read_text().splitlines()]
    assert [x["n"] for x in lines] == [100, 196, 484, 676]
    # an n above 2**53 is written as a string and read back as an int
    big = [ErrataEntry(2**53 + 1, theorem, KIND_ORACLE_ONLY, "synthetic")
           for theorem in ("Small", "Large")]
    assert append_ledger(path, big) == 2
    assert path.read_text().count('"n":"9007199254740993"') == 2
    assert {(2**53 + 1, "Small"), (2**53 + 1, "Large")} <= ledger_keys(path)
    assert append_ledger(path, big) == 0


def test_allowlist_default_covers_the_known_family():
    _, errata = validate_range(2, 1000)
    documented, violations = split_errata(errata)
    assert violations == []
    assert len(documented) == 4


def test_allowlist_never_waives_soundness_failures():
    fakes = [
        ErrataEntry(100, "Large", KIND_CLASSIFIER_ONLY, "synthetic"),
        ErrataEntry(100, "Large", KIND_PREDICTION, "synthetic"),
        # the family is a Large one: the same n on the small side is not in it
        ErrataEntry(100, "Small", KIND_ORACLE_ONLY, "synthetic"),
        # 225 = 3^2 * 5^2 has q < p^2
        ErrataEntry(225, "Large", KIND_ORACLE_ONLY, "synthetic"),
    ]
    documented, violations = split_errata(fakes)
    assert documented == [] and violations == fakes


def test_profile_sweep():
    tau_bad, reflect_bad = profile_sweep_failures(2, 20000, jobs=2)
    assert tau_bad == [] and reflect_bad == []


@pytest.mark.parametrize("lo, hi_excl", [
    (2, 3_000),
    (89_000, 91_000),
    (10**9, 10**9 + 1_000),
    (10**12 - 500, 10**12 + 500),
    (2**62 - 199, 2**62 + 1),  # up to the input bound
])
def test_profile_sweep_kernel_matches_per_n_paths(lo, hi_excl):
    ns = range(lo, hi_excl)
    rows = list(harness._factor_range(lo, hi_excl))
    assert rows == [(n, factorize(n).factors) for n in ns]
    profs = [profile(n) for n in ns]
    for (n, factors), p in zip(rows, profs):
        # the sets filtered from all divisors on d*d against n, and tau as
        # the number of divisors: neither shares the cut or the exponents
        divs = divisors_sorted(Factorization(n, factors))
        small = tuple(d for d in divs if 1 < d and d * d < n)
        large = tuple(d for d in divs if d < n and d * d > n)
        assert profiles._strict_sets(n, factors) == (small, large) == (p.small_strict, p.large_strict)
        assert arith._tau(factors) == len(divs) == p.tau
    tau_bad = [n for n in ns if not check_tau_identity(n)]
    reflect_bad = [
        p.n for p in profs if tuple(p.n // d for d in reversed(p.large_strict)) != p.small_strict
    ]
    block = harness._scan_profile_block(lo, hi_excl)
    assert block == (tau_bad, reflect_bad) == ([], [])


def test_outcomes_depend_only_on_the_order_type():
    """Group n in [2, 10^5] by order type: the exponents of n's primes in
    increasing order, and the exponent vector of each element of S' in
    order (L' = n / S' reversed, so its vectors follow).  Each vector is
    built with its divisor from the factor sieve's primes, so a prime power
    the sieve misses shows as a missing divisor.  Exactly one type has two
    outcomes: the s7 cell of p^2*q*r with S' = (p, q, p^2, r, p*q), where
    only n = 60 is recurrent (small form 10).  The large5 cell, p^4*q with
    p^2 < q < p^3, does not split."""
    types: dict = {}  # type -> {outcome: [n, ...]}
    for n, factors, small, large in harness._profile_range(2, 10**5 + 1):
        vec = {1: ()}  # divisor below the root of n -> its exponent vector
        for p, e in factors:
            below = {}
            for d, v in vec.items():
                for k in range(e + 1):
                    if d * d >= n:
                        break
                    below[d] = v + (k,)
                    d *= p
            vec = below
        key = (tuple([e for _, e in factors]), tuple([vec[d] for d in small]))
        outcome, _ = check._evaluate(n, factors, small, large)
        types.setdefault(key, {}).setdefault(outcome, []).append(n)
    split = {key: outs for key, outs in types.items() if len(outs) > 1}
    s7 = ((2, 1, 1), ((1, 0, 0), (0, 1, 0), (2, 0, 0), (0, 0, 1), (1, 1, 0)))
    assert list(split) == [s7]
    by_small = {o[0]: (o, ns) for o, ns in split[s7].items()}  # S' recurrent -> outcome, n
    assert len(by_small) == len(split[s7]) == 2
    assert by_small[True] == ((True, False, (10,), False, False, (), True), [60])
    no_form, ns = by_small[False]
    assert no_form == (False, False, (), False, False, (), True) and ns[:4] == [495, 585, 693, 819]
    large5 = ((4, 1), ((1, 0), (2, 0), (0, 1), (3, 0)))
    assert len(types[large5]) == 1 and next(iter(types[large5].values()))[:2] == [80, 112]


@pytest.mark.parametrize("side", [0, 1])  # S', L'
def test_profile_sweep_reports_a_set_that_lost_one_divisor(monkeypatch, side):
    # each set is checked against tau and against the other set on its own,
    # so a divisor missing from either one shows in both checks
    strict_sets = profiles._strict_sets

    def drop_one(n, factors):
        sets = list(strict_sets(n, factors))
        if n == 360:
            sets[side] = sets[side][1:]
        return tuple(sets)

    monkeypatch.setattr(harness, "_strict_sets", drop_one)
    assert profile_sweep_failures(300, 400) == ([360], [360])


def test_profile_sweep_guards_before_cutting_blocks(monkeypatch):
    # an out-of-bound range must fail before it is cut into spans: at
    # hi = 2**63 a list of them alone would hold about 1.4e14 spans
    def no_blocks(*args):
        raise AssertionError("map_spans called before the input bound was checked")

    monkeypatch.setattr(harness, "map_spans", no_blocks)
    with pytest.raises(CapacityError):
        profile_sweep_failures(2, 2**63)
    with pytest.raises(CapacityError):
        validate_range(2, 2**63)


def test_default_jobs_counts_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert _available_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _available_cpus() == 64


@pytest.mark.parametrize("jobs, tasks, cpus, size", [
    (100_000, 10, 2, 2),
    (2, 10, 8, 2),
    (50, 4, 8, 4),
    (2, 10, 1, 1),  # one CPU: the spans run in this process
])
def test_pool_is_capped_at_jobs_tasks_and_cpus(monkeypatch, pool_sizes, jobs, tasks, cpus, size):
    sizes = pool_sizes(cpus)
    monkeypatch.setattr(runner, "_SPAN_MAX", 1)  # a task per item
    assert list(map_spans(_span_of, 0, tasks, jobs, 0)) == [(a, a + 1) for a in range(tasks)]
    assert sizes == ([size] if size > 1 else [])  # one worker is no pool


def test_pool_over_more_tasks_than_sys_maxsize_starts(monkeypatch):
    # 2**64 spans: len() of their range raises OverflowError; the map must
    # take none
    sizes = []

    class Context:
        @staticmethod
        def Pool(processes):  # runs the tasks here: no process starts
            sizes.append(processes)
            return contextlib.nullcontext(types.SimpleNamespace(imap=map))

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)
    results = map_spans(_span_of, 0, 2**80, 2, 0)
    assert list(itertools.islice(results, 3)) == [(0, 65536), (65536, 131072), (131072, 196608)]
    results.close()
    assert sizes == [2]


@pytest.mark.parametrize("scan", [validate_range, profile_sweep_failures])
def test_range_scan_pool_starts_at_the_floor(pool_sizes, scan):
    sizes = pool_sizes(2)
    scan(2, harness._POOL_MIN, jobs=2)  # _POOL_MIN - 1 n
    assert sizes == []
    scan(2, harness._POOL_MIN + 1, jobs=2)
    assert sizes == [2] and sizes.tasks == [2]


def test_validate_with_huge_jobs_asks_one_worker_per_cpu(monkeypatch, pool_sizes, tmp_path):
    expected = tmp_path / "jobs-1.jsonl"
    validate_range(2, 3_000, report_path=expected)
    sizes = pool_sizes(2)
    monkeypatch.setattr(harness, "_POOL_MIN", 0)
    path = tmp_path / "jobs-5000.jsonl"
    validate_range(2, 3_000, jobs=5_000, report_path=path)  # one block per CPU
    assert sizes == [2] and sizes.tasks == [2]
    assert path.read_bytes() == expected.read_bytes()
    assert profile_sweep_failures(2, 3_000, jobs=5_000) == ([], [])
    assert sizes == [2, 2] and sizes.tasks == [2, 2]


def test_validate_failing_in_the_parent_ends_its_pool(monkeypatch, tmp_path):
    # the parent fails while rendering block 2, with block 3 still in the
    # pool; the workers must end with the call, not when the traceback goes
    real = harness._json_int

    def json_int(v):
        if v == 150:
            raise OSError("disk full")
        return real(v)

    monkeypatch.setattr(runner, "_SPAN_MAX", 100)
    monkeypatch.setattr(harness, "_POOL_MIN", 0)
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)  # a pool on one CPU too
    monkeypatch.setattr(harness, "_json_int", json_int)
    with pytest.raises(OSError, match="disk full") as info:
        validate_range(2, 300, jobs=2, report_path=tmp_path / "r.jsonl")
    assert info.traceback and multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def test_validate_straddling_the_sieve_crossover_matches_per_n(monkeypatch, tmp_path):
    # at jobs=1 the block's first segment is sieved (isqrt 19 748 <= 5 * 4 096)
    # and its 3 905-n tail goes per n (19 748 > 5 * 3 905); at jobs=2 on two
    # CPUs both blocks of at most 4 001 n are sieved
    monkeypatch.setattr(harness, "_POOL_MIN", 0)  # a pool on this small range
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)  # and on one CPU
    started = []
    fork = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: started.append(m) or fork(m))
    lo, hi = 39 * 10**7 - 2_000, 39 * 10**7 + 6_000
    expected_lines = "".join(record_line(check_single(n)) for n in range(lo, hi + 1))
    expected_errata = [e for n in range(lo, hi + 1) for e in errata_of(n)]
    reference = _reference_scan(lo, hi)
    per_n = []
    strict_sets = profiles._strict_sets
    monkeypatch.setattr(harness, "_strict_sets",
                        lambda n, factors: per_n.append(n) or strict_sets(n, factors))
    for jobs in (1, 2):
        path = tmp_path / f"report-{jobs}.jsonl"
        summary, errata = validate_range(lo, hi, jobs=jobs, report_path=path)
        assert path.read_text() == expected_lines
        assert errata == expected_errata
        assert (expected_lines, errata, _counts(summary)) == reference
    assert len(per_n) == 3_905  # counted in this process only, so at jobs=1
    assert started == ["fork"]  # at jobs=2


def test_validate_across_the_2_53_cut_matches_per_n(monkeypatch, tmp_path):
    # JSON integers above 2**53 are strings, so one outcome's line template
    # carries n as a number below the cut and as a string above it
    monkeypatch.setattr(harness, "_POOL_MIN", 0)  # a pool on this small range
    lo, hi = 2**53 - 400, 2**53 + 400
    expected_lines = "".join(record_line(check_single(n)) for n in range(lo, hi + 1))
    expected_errata = [e for n in range(lo, hi + 1) for e in errata_of(n)]
    reference = _reference_scan(lo, hi)
    for jobs in (1, 2):
        path = tmp_path / f"report-{jobs}.jsonl"
        summary, errata = validate_range(lo, hi, jobs=jobs, report_path=path)
        assert path.read_text() == expected_lines
        assert errata == expected_errata
        assert (expected_lines, errata, _counts(summary)) == reference
    n_above = {}  # line text around the n field -> whether n > 2**53
    for n, line in zip(range(lo, hi + 1), expected_lines.splitlines()):
        head, rest = line.split('"n":')
        n_text, tail = rest.split(",", 1)
        assert n_text == (str(n) if n <= 2**53 else f'"{n}"')
        n_above.setdefault((head, tail), set()).add(n > 2**53)
    assert {False, True} in n_above.values()


def test_validate_range_contract():
    with pytest.raises(ContractViolation):
        validate_range(1, 10)
    with pytest.raises(ContractViolation):
        validate_range(10, 2)
    with pytest.raises(ContractViolation):
        validate_range(2, 10, jobs=0)
    with pytest.raises(ContractViolation):
        profile_sweep_failures(2, 10, jobs=0)


def _fresh_stdout(code):
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(divrec.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return done.stdout.strip()


def test_import_and_check_single_leave_numpy_unloaded():
    # nor divrec.harness, so no prime table of range scans is built either
    code = (
        "import sys, divrec; divrec.check_single(60); print('numpy' in sys.modules,"
        " 'divrec.harness' in sys.modules)"
    )
    assert _fresh_stdout(code) == "False False"


def test_check_single_loads_only_the_one_n_modules():
    code = ("import sys, divrec; divrec.check_single(60); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'divrec'))")
    assert _fresh_stdout(code) == repr(sorted([
        "divrec", "divrec.arith", "divrec.check", "divrec.classify", "divrec.fit",
        "divrec.oracle", "divrec.profiles",
    ]))


def test_star_import_binds_every_public_name():
    # the lazy names too, though a plain import loads neither lazy module
    code = ("import sys, divrec; lazy = [m for m in ('divrec.harness', 'divrec.search') "
            "if m in sys.modules]; from divrec import *; "
            "print(lazy, [n for n in divrec.__all__ if n not in globals()])")
    assert _fresh_stdout(code) == "[] []"
    assert {"validate_range", "search_s7", "S7Triple", "L5Pair"} <= set(divrec.__all__)


# Per start-up call, the modules it must not load: only a pool needs
# multiprocessing, only a search needs divrec.search, only a range scan
# needs divrec.harness, only a search needs dataclasses (for its hit
# records), only reports, ledgers and JSON output need json, and the CLI
# needs csv only for --format csv.  A search's --out file is ``<out>``, in
# a temp directory.
_START_UP_UNUSED = {
    "import divrec; divrec.check_single(60)":
        ("csv", "dataclasses", "divrec.harness", "divrec.search", "json", "multiprocessing"),
    "from divrec.cli import main; main(['classify', '60'])":
        ("csv", "dataclasses", "divrec.harness", "divrec.search", "multiprocessing"),
    "from divrec.cli import main; main(['oracle', '60'])":
        ("csv", "dataclasses", "divrec.harness", "divrec.search", "multiprocessing"),
    "from divrec.cli import main; "
    + "; ".join(f"main([{cmd!r}, '60', '--format', {fmt!r}])"
                for cmd in ("classify", "oracle") for fmt in ("json", "csv")):
        ("dataclasses", "divrec.harness", "divrec.search", "multiprocessing"),
    "from divrec.cli import main; "
    "main(['validate', '--from', '2', '--to', '50', '--jobs', '1'])":
        ("csv", "dataclasses", "divrec.search", "json", "multiprocessing"),
    # a range below the pool floor runs here whatever --jobs says
    "from divrec.cli import main; "
    "main(['validate', '--from', '2', '--to', '50', '--jobs', '2'])":
        ("multiprocessing",),
    "from divrec.cli import main; "
    "main(['tau-check', '--from', '2', '--to', '50', '--jobs', '2'])":
        ("multiprocessing",),
    "import divrec; divrec.search_large5(50)":
        ("csv", "divrec.harness", "json", "multiprocessing"),
    "from divrec.cli import main; "
    "main(['search-s7', '--pmax', '20', '--out', <out>, '--format', 'json'])":
        ("csv", "divrec.harness", "multiprocessing"),
}


@pytest.mark.parametrize("call", list(_START_UP_UNUSED))
def test_start_up_loads_no_pool_and_no_search(call, tmp_path):
    # against the modules of the bare interpreter, which ``site`` may have
    # filled before the call runs
    out = tmp_path / "hits.jsonl"
    code = (f"import sys; bare = set(sys.modules); {call.replace('<out>', repr(str(out)))}; "
            f"print([m for m in {_START_UP_UNUSED[call]!r} "
            "if m in sys.modules and m not in bare])")
    assert _fresh_stdout(code).splitlines()[-1] == "[]"
    assert out.exists() == ("<out>" in call)


def test_block_scan_matches_per_n_paths(tmp_path):
    # sieved segments with the p^2*q^2 errata; the crossover at 10^9 and the
    # per-n profiles near 10^12 are checked the same way above
    lo, hi = 2, 20_000
    report, errata, counts = _scan(lo, hi, tmp_path)
    # the public per-n path
    assert report == "".join(record_line(check_single(n)) for n in range(lo, hi + 1))
    assert errata == [e for n in range(lo, hi + 1) for e in errata_of(n)]
    # the verdict and match objects, counts included
    assert (report, errata, counts) == _reference_scan(lo, hi)


def _no_forms(sig):
    return []


def _empty_solution(seq):
    return (FitKind.EMPTY,)


_small_forms = classify._small_forms
_large_forms = classify._large_forms


def _shifted_small_forms(sig):
    # every stated small-side set gains a term, every stated recurrence a
    # wrong first seed
    return [
        (i, params, pset and pset + (pset[-1] + 1,), pu and (pu[0] + 1, *pu[1:]))
        for i, params, pset, pu in _small_forms(sig)
    ]


def _shifted_recurrence(core, da, db):
    """``core`` with (a, b) of every stated recurrence moved by (da, db); its
    set and both seeds stay right, so only the triple check can fail it."""
    def shifted(sig):
        return [(i, params, pset, pu and (pu[0], pu[1], pu[2] + da, pu[3] + db))
                for i, params, pset, pu in core(sig)]
    return shifted


@pytest.mark.parametrize("patch, kinds", [
    ({"_small_forms": _no_forms, "_large_forms": _no_forms},
     {KIND_ORACLE_ONLY}),
    ({"_solution": _empty_solution}, {KIND_CLASSIFIER_ONLY}),
    ({"_small_forms": _shifted_small_forms},
     {KIND_PREDICTION, KIND_ORACLE_ONLY}),
    ({"_small_forms": _shifted_recurrence(_small_forms, 1, 0)},
     {KIND_PREDICTION, KIND_ORACLE_ONLY}),
    ({"_large_forms": _shifted_recurrence(_large_forms, 0, 1)},
     {KIND_PREDICTION, KIND_ORACLE_ONLY}),
])
def test_forced_disagreements_match_object_reference(monkeypatch, tmp_path, patch, kinds):
    # each core is replaced both where the one-n core ``check._evaluate``
    # reads it and where the public classifiers and verdicts read it
    # (``fit._fit`` wraps the plain fit core ``fit._solution``)
    for name, fake in patch.items():
        monkeypatch.setattr(check, name, fake)
        monkeypatch.setattr(fit if name == "_solution" else classify, name, fake)
    lo, hi = 2, 3_000
    got = _scan(lo, hi, tmp_path)
    assert got == _reference_scan(lo, hi)
    errata = got[1]
    assert {e.kind for e in errata} == kinds
    if KIND_ORACLE_ONLY in kinds:
        details = [e.detail for e in errata if e.kind == KIND_ORACLE_ONLY]
        assert any("; witness (a, b) = (" in d for d in details)
    if patch.get("_small_forms") is _no_forms:
        assert any("; vacuously recurrent; " in d for d in details)
        assert {e.theorem for e in errata} == {"Small", "Large"}
    if KIND_PREDICTION in kinds:
        # only the patched sides' predictions were shifted
        shifted = {"Small" if name == "_small_forms" else "Large" for name in patch}
        assert {e.theorem for e in errata if e.kind == KIND_PREDICTION} == shifted
        bad = {e.n for e in errata if e.kind == KIND_PREDICTION}
        assert bad == {json.loads(line)["n"] for line in got[0].splitlines()
                       if not json.loads(line)["prediction_ok"]}
        assert (60 in bad) == ("_small_forms" in patch)  # 60 has small form 10 only
        if patch.get("_small_forms") is not _shifted_small_forms:
            # set and seeds right, as "form i predicted S u=(...), computed S"
            details = [e.detail for e in errata if e.kind == KIND_PREDICTION]
            for d in details:
                predicted, computed = d.split(" predicted ")[1].split(", computed ")
                assert predicted.split(" u=")[0] == computed


def test_each_prediction_is_checked_once(monkeypatch):
    # an outcome that files prediction errata keeps the failing forms of its
    # first pass; the errata stay those of the object reference
    calls = []

    def counted(pset, pu, computed):
        calls.append(pset)
        return classify._prediction_holds(pset, pu, computed)

    for name, fake in (("_small_forms", _shifted_small_forms), ("_prediction_holds", counted)):
        monkeypatch.setattr(check, name, fake)
    monkeypatch.setattr(classify, "_small_forms", _shifted_small_forms)
    filed = 0
    for n in range(2, 3_000):
        f = factorize(n)
        prof = profile(n, fac=f)
        calls.clear()
        _, errata = check._evaluate(n, f.factors, prof.small_strict, prof.large_strict)
        assert len(calls) == len(_shifted_small_forms(f.factors)) + len(_large_forms(f.factors))
        assert list(errata) == evaluate_by_objects(f, prof)[1], n
        filed += sum(e.kind == KIND_PREDICTION for e in errata)
    assert filed > 100
