import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divrec
from divrec import harness
from divrec.arith import CapacityError, ContractViolation
from divrec.fit import verify_params
from divrec.harness import (
    _BLOCK,
    _blocks,
    KIND_CLASSIFIER_ONLY,
    KIND_ORACLE_ONLY,
    KIND_PREDICTION,
    ErrataEntry,
    ValidationRecord,
    append_ledger,
    canonical_json,
    check_single,
    default_jobs,
    evaluate_single,
    jsonable,
    load_allowlist,
    profile_sweep_failures,
    record_line,
    split_errata,
    validate_range,
    validation_record_dict,
    write_summary_csv,
)
from divrec.oracle import large_verdict
from divrec.profiles import profile


def test_check_single_60():
    assert check_single(60) == ValidationRecord(
        n=60,
        small_oracle=True,
        small_forms=(10,),
        large_oracle=False,
        large_forms=(),
        prediction_ok=True,
    )


def test_check_single_100_files_erratum():
    rec, errata = evaluate_single(100)
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
        rec, errs = evaluate_single(e.n)
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


def test_report_bytes_identical_across_jobs(tmp_path):
    paths = []
    for jobs in (1, 2, 3):
        path = tmp_path / f"report-{jobs}.jsonl"
        validate_range(2, 2000, jobs=jobs, report_path=path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]
    first = json.loads(paths[0].decode().splitlines()[0])
    assert first["n"] == 2


def test_report_near_1e12_identical_across_jobs_and_to_single_n(tmp_path):
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


def test_blocks_give_every_worker_a_share():
    assert _blocks(2, 3001, 1) == [(2, 3002)]
    assert _blocks(2, 3001, 2) == [(2, 1502), (1502, 3002)]
    assert _blocks(10, 12, 5) == [(10, 11), (11, 12), (12, 13)]
    spans = _blocks(1, 3 * _BLOCK, 2)
    assert [b - a for a, b in spans] == [_BLOCK] * 3
    assert spans[0][0] == 1 and spans[-1][1] == 3 * _BLOCK + 1


def test_record_json_round_trip():
    rec = check_single(60)
    line = record_line(rec)
    parsed = json.loads(line)
    assert canonical_json(parsed) + "\n" == line
    assert parsed["small_forms"] == [10]


def test_record_line_matches_canonical_json():
    # the direct writer against the generic encoder it replaces, around the
    # 2**53 cut where integers turn into strings
    forms = [(), (1,), (2, 7, 9)]
    for n in (2, 2**53 - 1, 2**53, 2**53 + 1, 2**62):
        for small_forms, large_forms in itertools.product(forms, forms):
            for small, large, ok in itertools.product((False, True), repeat=3):
                rec = ValidationRecord(n, small, small_forms, large, large_forms, ok)
                assert record_line(rec) == canonical_json(validation_record_dict(rec)) + "\n"


def test_big_integers_serialize_as_strings():
    obj = {"n": 1 << 61, "small": 7}
    encoded = json.loads(canonical_json(obj))
    assert encoded["n"] == str(1 << 61)
    assert encoded["small"] == 7
    assert jsonable(True) is True


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


def test_summary_csv(tmp_path):
    summary, _ = validate_range(2, 100)
    path = tmp_path / "summary.csv"
    write_summary_csv(path, summary)
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


def test_allowlist_default_covers_the_known_family():
    allowlist = load_allowlist()
    _, errata = validate_range(2, 1000)
    documented, violations = split_errata(errata, allowlist)
    assert violations == []
    assert len(documented) == 4


def test_allowlist_never_waives_soundness_failures():
    allowlist = load_allowlist()
    fake = ErrataEntry(100, "Large", KIND_CLASSIFIER_ONLY, "synthetic")
    fake2 = ErrataEntry(100, "Large", KIND_PREDICTION, "synthetic")
    documented, violations = split_errata([fake, fake2], allowlist)
    assert documented == [] and violations == [fake, fake2]


def test_allowlist_rejects_unknown_pattern(tmp_path):
    path = tmp_path / "allow.json"
    path.write_text('[{"theorem": "Large", "pattern": "nope", "justification": "x"}]')
    with pytest.raises(ContractViolation):
        load_allowlist(path)


def test_allowlist_rejects_malformed_file(tmp_path):
    path = tmp_path / "allow.json"
    for text in ("[{", '[{"theorem": "Large"}]', "[1]", "7"):
        path.write_text(text)
        with pytest.raises(ContractViolation):
            load_allowlist(path)


def test_profile_sweep():
    tau_bad, reflect_bad = profile_sweep_failures(2, 20000, jobs=2)
    assert tau_bad == [] and reflect_bad == []


def test_profile_sweep_guards_before_cutting_blocks(monkeypatch):
    # an out-of-bound range must fail before the block list is built: at
    # hi = 2**63 that list alone would hold about 1.4e14 spans
    def no_blocks(*args):
        raise AssertionError("_blocks called before the input bound was checked")

    monkeypatch.setattr(harness, "_blocks", no_blocks)
    with pytest.raises(CapacityError):
        profile_sweep_failures(2, 2**63)
    with pytest.raises(CapacityError):
        validate_range(2, 2**63)


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("DIVREC_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("DIVREC_JOBS", "0")
    with pytest.raises(ContractViolation):
        default_jobs()
    monkeypatch.delenv("DIVREC_JOBS")
    assert default_jobs() >= 1


def test_validate_range_contract():
    with pytest.raises(ContractViolation):
        validate_range(1, 10)
    with pytest.raises(ContractViolation):
        validate_range(10, 2)
    with pytest.raises(ContractViolation):
        validate_range(2, 10, jobs=0)
    with pytest.raises(ContractViolation):
        profile_sweep_failures(2, 10, jobs=0)


def test_import_and_check_single_leave_numpy_unloaded():
    # nor the prime table of range scans, which only factor_range builds
    code = (
        "import sys, divrec; divrec.check_single(60); print('numpy' in sys.modules,"
        " divrec.arith._segment_prime_table.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(divrec.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "False 0"
