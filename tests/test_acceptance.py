"""Acceptance suite: every criterion at its stated range and tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The heavy sweeps share session fixtures so the million-scale
scans run once.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from functools import partial

import pytest

from divrec.arith import factorize
from divrec.check import KIND_CLASSIFIER_ONLY, KIND_ORACLE_ONLY, KIND_PREDICTION
from divrec.classify import classify_large, classify_small
from divrec.fit import FitKind, brute_force_fit, solve_fit, solutions_in_box, verify_params
from divrec.harness import profile_sweep_failures, split_errata, validate_range
from divrec.profiles import profile
from divrec.runner import _available_cpus, map_spans
from divrec.search import search_large5, search_s7
from references import large_verdict, profiles_in_range, small_verdict

FULL_RANGE = 10**6
MID_RANGE = 10**5


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


@pytest.fixture(scope="session")
def jobs():
    return _available_cpus()


@pytest.fixture(scope="session")
def full_validation(jobs):
    return validate_range(2, FULL_RANGE, jobs=jobs)


def test_criterion_1_tau_identity_sweep(jobs):
    with criterion(f"C1 tau identity holds for every n in [2, {FULL_RANGE}]"):
        t0 = time.time()
        tau_bad, reflect_bad = profile_sweep_failures(2, FULL_RANGE, jobs=jobs)
        elapsed = time.time() - t0
        assert tau_bad == []
        assert reflect_bad == []  # same pass checks the reflection map
        assert elapsed < 120, f"sweep took {elapsed:.1f}s"
        print(f"      [swept {FULL_RANGE - 1} values in {elapsed:.1f}s, jobs={jobs}]")


def test_criterion_2_reflection_sweep():
    with criterion(f"C2 d -> n/d maps L' onto S' for every n in [2, {MID_RANGE}]"):
        for p in profiles_in_range(2, MID_RANGE):
            assert (
                tuple(p.n // d for d in reversed(p.large_strict)) == p.small_strict
            ), p.n


def test_criterion_3_conjugate_fit_identity():
    label = (
        f"C3 point fits on L' satisfy the conjugate identity on S' "
        f"triples in [2, {MID_RANGE}]"
    )
    with criterion(label):
        checked = 0
        for prof in profiles_in_range(2, MID_RANGE):
            if len(prof.large_strict) < 4:
                continue
            fit = solve_fit(list(prof.large_strict))
            if fit.kind is not FitKind.POINT:
                continue
            a, b = fit.point
            s = prof.small_strict
            for i in range(len(s) - 2):
                # a*d3 + b*d2 = d2*d3/d1, cleared of the division
                assert (a * s[i + 2] + b * s[i + 1]) * s[i] == s[i + 1] * s[i + 2], prof.n
            checked += 1
        assert checked > 1000
        print(f"      [checked {checked} point-fitted values]")


# --- criterion 4: exhaustive fit-solver vs grid oracle ------------------

_ENTRY_MAX = 40
_GRID_BOUND = 50


def _c4_worker(stride, lo, hi):
    """The mismatches among the sequences of lengths 3 to 6 whose index in
    their length's combinations is lo to hi - 1 modulo ``stride``: the
    offsets [lo, hi) of ``stride`` share each length evenly."""
    mismatches = []
    for length in (3, 4, 5, 6):
        combos = itertools.combinations(range(1, _ENTRY_MAX + 1), length)
        found = 0
        for idx, seq in enumerate(combos):
            if not lo <= idx % stride < hi:
                continue
            s = list(seq)
            if solutions_in_box(solve_fit(s), _GRID_BOUND) != brute_force_fit(s, _GRID_BOUND):
                mismatches.append(s)
                found += 1
                if found >= 5:
                    break
    return mismatches


def test_criterion_4_fit_solver_oracle_equivalence(jobs):
    label = (
        f"C4 solve_fit matches the exhaustive grid scan on every increasing "
        f"sequence (len <= 6, entries <= {_ENTRY_MAX}) plus 10^4 random ones"
    )
    with criterion(label):
        # lengths 1 and 2: no constraints, both sides give the whole grid
        full_grid = brute_force_fit([1], _GRID_BOUND)
        assert len(full_grid) == (2 * _GRID_BOUND + 1) ** 2
        for seq in itertools.chain(
            itertools.combinations(range(1, _ENTRY_MAX + 1), 1),
            itertools.combinations(range(1, _ENTRY_MAX + 1), 2),
        ):
            v = solve_fit(list(seq))
            assert v.kind is FitKind.VACUOUS
            assert brute_force_fit(list(seq), _GRID_BOUND) == full_grid

        t0 = time.time()
        batches = map_spans(partial(_c4_worker, jobs), 0, jobs, jobs, 0)
        mismatches = [m for batch in batches for m in batch]
        assert mismatches == []

        rng = random.Random(1063)
        for _ in range(10**4):
            length = rng.randint(3, 9)
            seq = sorted(rng.sample(range(1, 100001), length))
            assert solutions_in_box(solve_fit(seq), _GRID_BOUND) == brute_force_fit(
                seq, _GRID_BOUND
            ), seq
        print(f"      [exhaustive + random sweep in {time.time() - t0:.1f}s]")


def test_criterion_5_worked_examples():
    with criterion("C5 the five worked examples reproduce exactly"):
        # 60 = 2^2*3*5: exceptional small form with (a, b) = (2, -1)
        assert profile(60).small_strict == (2, 3, 4, 5, 6)
        assert small_verdict(60).witness == (2, -1)
        (m,) = classify_small(60)
        assert m.form_id == 10 and m.predicted_u == (2, 3, 2, -1)
        assert m.predicted_set == (2, 3, 4, 5, 6)

        # 512 = 2^9: prime-power small form under U(2, 4, 2, 0)
        (m,) = classify_small(512)
        assert m.form_id == 1 and m.predicted_u == (2, 4, 2, 0)
        assert m.predicted_set == (2, 4, 8, 16) == profile(512).small_strict

        # 48 = 2^4*3: even-power large form under U(8, 12, 0, 2)
        assert profile(48).large_strict == (8, 12, 16, 24)
        (m,) = classify_large(48)
        assert m.form_id == 4 and m.predicted_u == (8, 12, 0, 2)
        assert verify_params([8, 12, 16, 24], 0, 2)

        # 162 = 2*3^4: small form under U(2, 3, 0, 3)
        (m,) = classify_small(162)
        assert m.form_id == 5 and m.predicted_u == (2, 3, 0, 3)

        # 42 = 2*3*7: large form under U(7, 14, 0, 3)
        (m,) = classify_large(42)
        assert m.form_id == 9 and m.predicted_u == (7, 14, 0, 3)
        assert profile(42).large_strict == (7, 14, 21)


def test_criterion_6_classifier_soundness(full_validation):
    label = f"C6 zero OracleNoClassifierYes and zero prediction failures in [2, {FULL_RANGE}]"
    with criterion(label):
        _, errata = full_validation
        assert [e for e in errata if e.kind == KIND_CLASSIFIER_ONLY] == []
        assert [e for e in errata if e.kind == KIND_PREDICTION] == []


def test_criterion_7_classifier_completeness(full_validation):
    label = (
        f"C7 small side complete in [2, {FULL_RANGE}]; every large gap is the "
        f"documented square-of-two-primes family"
    )
    with criterion(label):
        _, errata = full_validation
        gaps = [e for e in errata if e.kind == KIND_ORACLE_ONLY]
        assert [e for e in gaps if e.theorem == "Small"] == []
        large_gaps = [e for e in gaps if e.theorem == "Large"]
        assert len(large_gaps) == len(errata)  # nothing else in the ledger

        documented, violations = split_errata(errata)
        assert violations == []
        assert len(documented) == len(large_gaps) > 0

        for e in large_gaps:
            # oracle-confirmed, with a witness that satisfies the recurrence
            v = large_verdict(e.n)
            assert v.recurrent
            assert verify_params(list(profile(e.n).large_strict), *v.witness)
            (p, a), (q, b) = factorize(e.n).factors
            assert (a, b) == (2, 2) and q > p * p
        print(f"      [{len(large_gaps)} documented large-side gaps, zero others]")


def test_criterion_8_search_reproduction():
    with criterion("C8 searches reproduce deterministically at the default bounds"):
        t0 = time.time()
        s7 = search_s7(100)
        elapsed = time.time() - t0
        assert elapsed < 60, f"search took {elapsed:.1f}s"
        assert [(h.p, h.q, h.r) for h in s7] == [(2, 3, 5)]
        assert s7 == search_s7(100, jobs=2) == search_s7(100, jobs=7)
        assert all(h.oracle_confirmed for h in s7)

        l5 = search_large5(50)
        assert l5 == []
        assert search_large5(50, jobs=3) == []

        # both results match the committed fixtures
        import pathlib

        fixtures = pathlib.Path(__file__).parent / "fixtures"
        s7_lines = [
            json.loads(line)
            for line in (fixtures / "search_s7_pmax100.jsonl").read_text().splitlines()
            if line
        ]
        assert [(h["p"], h["q"], h["r"]) for h in s7_lines] == [(2, 3, 5)]
        assert (fixtures / "search_large5_pmax50.jsonl").read_text().strip() == ""


def test_criterion_9_report_determinism(tmp_path):
    label = f"C9 validate JSONL over [2, {MID_RANGE}] is byte-identical for jobs 1, 4, 8"
    with criterion(label):
        blobs = []
        for jobs in (1, 4, 8):
            path = tmp_path / f"report-{jobs}.jsonl"
            validate_range(2, MID_RANGE, jobs=jobs, report_path=path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        assert len(blobs[0].splitlines()) == MID_RANGE - 1
