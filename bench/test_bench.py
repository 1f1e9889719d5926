"""Tests of the benchmark itself:  python3 -m pytest bench

The reference must reproduce the worked examples, and the checks must
catch a corrupted output and count it as one failed operation.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
from clock import Clock  # noqa: E402
import workloads  # noqa: E402


def test_reference_reproduces_the_worked_examples():
    small, _ = ref.divisor_sets(60)
    assert small == [2, 3, 4, 5, 6] and ref.decide(small) == (True, (2, -1))

    small, _ = ref.divisor_sets(512)
    assert small == [2, 4, 8, 16] and ref.decide(small)[0] and ref.satisfies(small, 2, 0)

    _, large = ref.divisor_sets(48)
    assert large == [8, 12, 16, 24] and ref.decide(large) == (True, (0, 2))

    small, _ = ref.divisor_sets(162)
    assert small == [2, 3, 6, 9] and ref.decide(small) == (True, (0, 3))

    _, large = ref.divisor_sets(42)
    assert large == [7, 14, 21] and ref.decide(large)[0] and ref.satisfies(large, 0, 3)


def test_reference_window_sieve_matches_trial_division():
    lo, hi = 999_900, 1_000_100
    for n, small in zip(range(lo, hi + 1), ref.small_sets_in_window(lo, hi)):
        assert (small, ref.large_from_small(n, small)) == ref.divisor_sets(n)


def test_errata_family():
    assert [n for n in range(2, 1000) if ref.in_errata_family(n)] == [100, 196, 484, 676]


def test_flipped_small_oracle_is_one_failed_n(tmp_path):
    wl = workloads.RangeWorkload(2, 1_201, 600, (2, 601), tmp_path, sieve=True)
    wl.run_round(0, Clock())
    assert wl.check() == [0]

    report = tmp_path / "round-0" / "call-0" / "report.jsonl"
    lines = report.read_text().splitlines(keepends=True)
    i = 60 - 2
    assert '"small_oracle":true' in lines[i]
    lines[i] = lines[i].replace('"small_oracle":true', '"small_oracle":false')
    report.write_text("".join(lines))
    assert wl.check() == [1]


def test_wrong_search_witness_is_one_failed_call():
    wl = workloads.SearchWorkload(3, p_s7=30, p_l5=20)
    wl.run_round(0, Clock())
    assert wl.check() == [0]

    s7, l5, s7_small, l5_small = wl._rounds[0]
    s7[0] = dataclasses.replace(s7[0], a=s7[0].a + 1)
    assert wl.check() == [1]


def test_wrong_fit_box_is_caught():
    seq = [8, 12, 16, 24]  # the unique fit is (0, 2)
    good = workloads.solve_fit(seq).kind, [(0, 2)], [(0, 2)]
    assert workloads.FitWorkload.seq_ok(seq, good)
    assert not workloads.FitWorkload.seq_ok(seq, (good[0], [(1, 2)], [(1, 2)]))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
