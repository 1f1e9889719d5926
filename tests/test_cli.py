import contextlib
import csv
import json
import multiprocessing
import os
import stat
import tempfile

import pytest

from divrec import cli, harness, runner, search
from divrec.check import check_single
from divrec.cli import main
from references import record_line, validation_record_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "60", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["factorization"] == [[2, 2], [3, 1], [5, 1]]
    assert payload["small_divisors"] == [2, 3, 4, 5, 6]
    assert payload["large_divisors"] == [10, 12, 15, 20, 30]
    assert payload["small"]["recurrent"] is True
    assert payload["small"]["witness"] == [2, -1]
    assert payload["large"]["recurrent"] is False
    (form,) = payload["small_forms"]
    assert form["form_id"] == 10
    assert form["predicted_u"] == [2, 3, 2, -1]
    assert payload["prediction_ok"] is True


def test_classify_json_round_trips(capsys):
    _, out, _ = run(capsys, "classify", "48", "--format", "json")
    line = out.strip()
    assert json.dumps(
        json.loads(line), sort_keys=True, separators=(",", ":")
    ) == line


def test_classify_text_annotates_recurrence(capsys):
    code, out, _ = run(capsys, "classify", "512")
    assert code == 0
    assert "U(2, 4, 2, 0)" in out
    assert "[2, 4, 8, 16]" in out


def test_classify_agrees_with_check_single(capsys):
    for n in (30, 48, 60, 100, 675, 1024):
        _, out, _ = run(capsys, "classify", str(n), "--format", "json")
        payload = json.loads(out)
        rec = validation_record_dict(check_single(n))
        assert payload["small"]["recurrent"] == rec["small_oracle"]
        assert payload["large"]["recurrent"] == rec["large_oracle"]
        assert [m["form_id"] for m in payload["small_forms"]] == rec["small_forms"]
        assert [m["form_id"] for m in payload["large_forms"]] == rec["large_forms"]
        assert payload["prediction_ok"] == rec["prediction_ok"]


def test_oracle_with_grid(capsys):
    code, out, _ = run(capsys, "oracle", "100", "--bound", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["large"]["witness"] == [2, 0]
    assert [2, 0] in payload["large_grid"]
    assert payload["small_grid"] == []  # 4a + 2b = 5 has no solution


def test_validate_exit_zero_with_default_allowlist(capsys, tmp_path):
    out_path = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys, "validate", "--from", "2", "--to", "300",
        "--jobs", "1", "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["summary"]["range_hi"] == 300
    assert [e["n"] for e in payload["errata"]] == [100, 196]
    lines = out_path.read_text().splitlines()
    assert len(lines) == 299
    assert (tmp_path / "report.summary.csv").exists()
    ledger = (tmp_path / "report.errata.jsonl").read_text().splitlines()
    assert [json.loads(x)["n"] for x in ledger] == [100, 196]


def test_validate_exit_two_with_empty_allowlist(capsys, monkeypatch):
    # with no erratum documented, the known p^2*q^2 family is a violation
    monkeypatch.setattr(harness, "_documented", lambda e: False)
    code, out, _ = run(capsys, "validate", "--from", "90", "--to", "110", "--jobs", "1")
    assert code == 2
    assert "VIOLATION n=100" in out


def test_validate_clean_range_exits_zero(capsys):
    code, _, _ = run(capsys, "validate", "--from", "2", "--to", "99")
    assert code == 0


def test_search_s7_cli(capsys, tmp_path):
    out_path = tmp_path / "hits.jsonl"
    code, out, _ = run(
        capsys, "search-s7", "--pmax", "100", "--jobs", "1",
        "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    hit = json.loads(out.splitlines()[0])
    assert (hit["p"], hit["q"], hit["r"]) == (2, 3, 5)
    assert hit["a"] == 2 and hit["b"] == -1
    assert json.loads(out_path.read_text().splitlines()[0]) == hit


def test_search_large5_cli(capsys):
    code, out, _ = run(capsys, "search-large5", "--pmax", "20", "--format", "text")
    assert code == 0
    assert "no hits" in out


def test_tau_check_cli(capsys):
    code, out, _ = run(capsys, "tau-check", "--from", "2", "--to", "5000")
    assert code == 0
    assert "0 tau-identity failures" in out


def test_tau_check_out_of_bound_exits_one_before_work(capsys, monkeypatch):
    def no_blocks(*args):
        raise AssertionError("map_spans called before the input bound was checked")

    monkeypatch.setattr(harness, "map_spans", no_blocks)
    code, out, err = run(capsys, "tau-check", "--from", "2", "--to", str(2**63))
    assert code == 1 and out == ""
    assert "exceeds the input bound" in err


@pytest.mark.parametrize("command", ["classify", "oracle"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_single_n_commands_build_one_profile(capsys, monkeypatch, command, fmt):
    # one factorization and one profile per call, in every format; the
    # oracle takes sequences, so it cannot build a profile of its own
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "factorize", counting("factorize", cli.factorize))
    monkeypatch.setattr(cli, "profile", counting("profile", cli.profile))
    code, out, _ = run(capsys, command, "360", "--format", fmt)
    assert code == 0 and out
    assert sorted(calls) == ["factorize", "profile"]


def test_bad_arguments_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # missing n
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_contract_violation_exits_one(capsys):
    code, _, err = run(capsys, "classify", "1")
    assert code == 1
    assert "error" in err


def test_validate_rejects_reversed_range(capsys):
    code, _, err = run(capsys, "validate", "--from", "50", "--to", "10")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["validate", "tau-check"])
@pytest.mark.parametrize("lo, hi, message", [
    ("1", "10", "--from must be >= 2"),
    ("-5", "10", "--from must be >= 2"),
    ("50", "10", "--to must be >= --from"),
])
def test_bad_range_names_the_flag(capsys, command, lo, hi, message):
    code, out, err = run(capsys, command, "--from", lo, "--to", hi, "--jobs", "1")
    assert code == 1 and out == ""
    assert err == f"divrec: error: {message}\n"


def test_oracle_bound_outside_range_exits_one(capsys):
    for bound in ("0", "-3", "301", "10000"):
        code, out, err = run(capsys, "oracle", "6", "--bound", bound)
        assert code == 1 and out == ""
        assert "--bound" in err
    code, out, _ = run(capsys, "oracle", "100", "--bound", "300", "--format", "json")
    assert code == 0
    assert [2, 0] in json.loads(out)["large_grid"]


def test_validate_bad_jobs_env_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("DIVREC_JOBS", "abc")
    code, out, err = run(capsys, "validate", "--from", "2", "--to", "50")
    assert code == 1 and out == ""
    assert "DIVREC_JOBS" in err


def test_tau_check_jobs_env_beyond_int_digits_exits_one(capsys, monkeypatch):
    # int() refuses a decimal string of more than 4300 digits
    monkeypatch.setenv("DIVREC_JOBS", "9" * 5000)
    code, out, err = run(capsys, "tau-check", "--from", "2", "--to", "50")
    assert code == 1 and out == ""
    assert err == "divrec: error: DIVREC_JOBS must be a positive integer\n"


@pytest.mark.parametrize("name, what", [("r.errata.jsonl", "ledger")])
def test_validate_deeply_nested_json_exits_one(capsys, tmp_path, name, what):
    # json's decoder recurses once per level: this raises RecursionError
    (tmp_path / name).write_text("[" * 200_000 + "]" * 200_000 + "\n")
    code, out, err = run(capsys, "validate", "--from", "2", "--to", "50",
                         "--out", str(tmp_path / "r.jsonl"))
    assert code == 1 and out == ""
    assert err.startswith(f"divrec: error: malformed {what}")
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_validate_malformed_ledger_exits_one_before_output(capsys, tmp_path):
    ledger = tmp_path / "report.errata.jsonl"
    for text in (
        '{"n": 100, "theorem": "Large"}\n{not json\n',
        # entries of the wrong type: n a float, a bool or a non-decimal string,
        # or a theorem other than Small or Large
        '{"n": 1.5, "theorem": "Large", "kind": "x", "detail": "y"}\n',
        '{"n": true, "theorem": "Small"}\n',
        '{"n": "0x64", "theorem": "Small"}\n',
        '{"n": "1e2", "theorem": "Small"}\n',
        '{"n": 100, "theorem": "Medium"}\n',
    ):
        ledger.write_text(text)
        code, out, err = run(
            capsys, "validate", "--from", "2", "--to", "300",
            "--jobs", "1", "--out", str(tmp_path / "report.jsonl"),
        )
        assert code == 1 and out == "", text
        assert err.startswith(f"divrec: error: malformed ledger {ledger}: "), text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.errata.jsonl"]
        assert ledger.read_text() == text


@pytest.mark.parametrize("n", ["1e400", "-1e400", "NaN", "Infinity"])
def test_validate_non_finite_ledger_n_exits_one(capsys, tmp_path, n):
    # json reads 1e400 as inf, and int() refuses inf with an OverflowError
    ledger = tmp_path / "r.errata.jsonl"
    ledger.write_text(f'{{"n": {n}, "theorem": "Small"}}\n')
    code, out, err = run(capsys, "validate", "--from", "2", "--to", "10",
                         "--out", str(tmp_path / "r.jsonl"))
    assert code == 1 and out == ""
    assert err.startswith(f"divrec: error: malformed ledger {ledger}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.errata.jsonl"]


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the paths were checked")


def test_validate_missing_paths_exit_one_before_work(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "validate_range", _no_work)
    code, out, err = run(capsys, "validate", "--from", "2", "--to", "50",
                         "--out", str(tmp_path / "missing" / "r.jsonl"))
    assert code == 1 and out == ""
    assert err.startswith("divrec: error:")
    assert "missing" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,search_fn", [
    ("search-s7", "search_s7"), ("search-large5", "search_large5"),
])
def test_search_missing_out_dir_exits_one_before_work(
    capsys, tmp_path, monkeypatch, command, search_fn
):
    monkeypatch.setattr(search, search_fn, _no_work)
    code, out, err = run(
        capsys, command, "--pmax", "50", "--out", str(tmp_path / "missing" / "h.jsonl")
    )
    assert code == 1 and out == ""
    assert err.startswith("divrec: error:") and "missing" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("taken", ["r.jsonl", "r.errata.jsonl", "r.summary.csv"])
def test_validate_out_path_that_is_a_directory_exits_one_before_work(
    capsys, tmp_path, monkeypatch, taken
):
    # the report, its ledger or its summary: each would fail only after the scan
    monkeypatch.setattr(harness, "validate_range", _no_work)
    (tmp_path / taken).mkdir()
    code, out, err = run(
        capsys, "validate", "--from", "2", "--to", "50", "--out", str(tmp_path / "r.jsonl")
    )
    assert code == 1 and out == ""
    assert err.startswith("divrec: error:") and "is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == [taken]
    assert list((tmp_path / taken).iterdir()) == []


@pytest.mark.parametrize("command,search_fn", [
    ("search-s7", "search_s7"), ("search-large5", "search_large5"),
])
def test_search_out_path_that_is_a_directory_exits_one_before_work(
    capsys, tmp_path, monkeypatch, command, search_fn
):
    monkeypatch.setattr(search, search_fn, _no_work)
    (tmp_path / "hits").mkdir()
    code, out, err = run(capsys, command, "--pmax", "10", "--out", str(tmp_path / "hits"))
    assert code == 1 and out == ""
    assert err.startswith("divrec: error:") and "is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["hits"]
    assert list((tmp_path / "hits").iterdir()) == []


def test_validate_empty_out_exits_one_before_work(capsys, tmp_path, monkeypatch):
    # "" is the current directory, not a file: refused, not taken for no --out
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "validate_range", _no_work)
    code, out, err = run(capsys, "validate", "--from", "2", "--to", "10", "--jobs", "1",
                         "--out", "")
    assert (code, out, err) == (1, "", "divrec: error: output path . is a directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,search_fn", [
    ("search-s7", "search_s7"), ("search-large5", "search_large5"),
])
def test_search_empty_out_exits_one_before_work(
    capsys, tmp_path, monkeypatch, command, search_fn
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(search, search_fn, _no_work)
    code, out, err = run(capsys, command, "--pmax", "10", "--jobs", "1", "--out", "")
    assert (code, out, err) == (1, "", "divrec: error: output path . is a directory\n")
    assert list(tmp_path.iterdir()) == []


def test_validate_out_name_the_filesystem_refuses_exits_one_before_work(
    capsys, tmp_path, monkeypatch
):
    # the report's name has 250 bytes; its summary's, with 256, is too long
    monkeypatch.setattr(harness, "validate_range", _no_work)
    report = tmp_path / ("a" * 244 + ".jsonl")
    code, out, err = run(capsys, "validate", "--from", "2", "--to", "10", "--jobs", "1",
                         "--out", str(report))
    assert code == 1 and out == ""
    assert err.startswith(f"divrec: error: output path {tmp_path / ('a' * 244)}.summary.csv: ")
    assert list(tmp_path.iterdir()) == []


def test_search_writes_any_out_name_the_filesystem_accepts(capsys, tmp_path):
    # a temp name that grew with the final one would be too long here
    out = tmp_path / ("a" * 244 + ".jsonl")
    code, _, err = run(capsys, "search-s7", "--pmax", "10", "--jobs", "1", "--out", str(out))
    assert (code, err) == (0, "")
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == '{"a":2,"b":-1,"n":60,"oracle_confirmed":true,"p":2,"q":3,"r":5}\n'


def test_temp_names_are_unique_per_file(tmp_path):
    with runner._replace_when_done(tmp_path / "a") as a, \
            runner._replace_when_done(tmp_path / "b") as b:
        assert a.name != b.name
        a.write("a")
        b.write("b")
    assert sorted(p.read_text() for p in tmp_path.iterdir()) == ["a", "b"]


@pytest.mark.parametrize("taken", ["r.jsonl", "r.errata.jsonl", "r.summary.csv"])
def test_validate_out_path_that_is_a_fifo_exits_one_before_work(
    capsys, tmp_path, monkeypatch, taken
):
    # the finished run would rename a regular file over the FIFO
    monkeypatch.setattr(harness, "validate_range", _no_work)
    os.mkfifo(tmp_path / taken)
    code, out, err = run(
        capsys, "validate", "--from", "2", "--to", "50", "--out", str(tmp_path / "r.jsonl")
    )
    assert code == 1 and out == ""
    assert err == f"divrec: error: output path {tmp_path / taken} is not a regular file\n"
    assert [p.name for p in tmp_path.iterdir()] == [taken]
    assert stat.S_ISFIFO((tmp_path / taken).stat().st_mode)


@pytest.mark.parametrize("command,search_fn", [
    ("search-s7", "search_s7"), ("search-large5", "search_large5"),
])
def test_search_out_path_that_is_a_fifo_exits_one_before_work(
    capsys, tmp_path, monkeypatch, command, search_fn
):
    monkeypatch.setattr(search, search_fn, _no_work)
    os.mkfifo(tmp_path / "hits")
    code, out, err = run(capsys, command, "--pmax", "10", "--out", str(tmp_path / "hits"))
    assert code == 1 and out == ""
    assert err == f"divrec: error: output path {tmp_path / 'hits'} is not a regular file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["hits"]
    assert stat.S_ISFIFO((tmp_path / "hits").stat().st_mode)


def test_search_large5_hostile_pmax_exits_one(capsys):
    code, out, err = run(capsys, "search-large5", "--pmax", str(10**12))
    assert code == 1 and out == ""
    assert err.startswith("divrec: error:") and "input bound" in err


@pytest.mark.parametrize("command", ["validate", "tau-check", "search-s7", "search-large5"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_names_the_flag(capsys, command, jobs):
    if command.startswith("search"):
        args = ("--pmax", "50")
    else:
        args = ("--from", "2", "--to", "50")
    code, out, err = run(capsys, command, *args, "--jobs", jobs)
    assert code == 1 and out == ""
    assert err == "divrec: error: --jobs must be >= 1\n"


def _interrupt_validate(tmp_path, monkeypatch, jobs):
    """Run ``validate --out`` over [2, 300] in blocks of 100 n, failing in
    ``_evaluate`` at n = 250, in the last block, on a fork pool at jobs > 1
    whatever the CPU count; return the bytes the report held when the
    failure reached the parent."""
    real_evaluate, real_replace = harness._evaluate, runner._replace_when_done
    held, started = [], []
    fork = multiprocessing.get_context

    def evaluate(n, *args):
        if n == 250:
            raise RuntimeError("injected at n = 250")
        return real_evaluate(n, *args)

    @contextlib.contextmanager
    def replace_when_done(path, *args, **kwargs):
        with real_replace(path, *args, **kwargs) as fh:
            try:
                yield fh
            finally:
                held.append(fh.tell())

    monkeypatch.setattr(runner, "_SPAN_MAX", 100)
    monkeypatch.setattr(harness, "_POOL_MIN", 0)  # a pool at jobs > 1
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)  # and on one CPU
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: started.append(m) or fork(m))
    monkeypatch.setattr(harness, "_evaluate", evaluate)
    monkeypatch.setattr(harness, "_replace_when_done", replace_when_done)
    with pytest.raises(RuntimeError, match="injected"):
        main(["validate", "--from", "2", "--to", "300", "--jobs", str(jobs),
              "--out", str(tmp_path / "report.jsonl")])
    monkeypatch.undo()
    assert multiprocessing.active_children() == []
    assert started == (["fork"] if jobs > 1 else [])
    return held


def _check_interrupted_report(tmp_path, monkeypatch, jobs):
    # no report yet: none is left, nor its temp file
    held = _interrupt_validate(tmp_path, monkeypatch, jobs)
    assert list(tmp_path.iterdir()) == []
    argv = ["validate", "--from", "2", "--to", "300", "--jobs", "1",
            "--out", str(tmp_path / "report.jsonl")]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the first two blocks, n = 2 ... 201, had been written when it failed
    first_two = b"".join(before["report.jsonl"].splitlines(keepends=True)[:200])
    assert held == [len(first_two)]
    # an older report stays as it was
    assert _interrupt_validate(tmp_path, monkeypatch, jobs) == held
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_validate_interrupted_report_leaves_no_file(capsys, tmp_path, monkeypatch):
    _check_interrupted_report(tmp_path, monkeypatch, 1)


def test_validate_interrupted_pool_leaves_no_file_and_no_worker(
    capsys, tmp_path, monkeypatch
):
    _check_interrupted_report(tmp_path, monkeypatch, 2)


def test_validate_writes_nothing_outside_the_report_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    monkeypatch.setattr(harness, "_POOL_MIN", 0)  # a pool on this small range
    monkeypatch.setattr(runner, "_available_cpus", lambda: 2)  # and on one CPU
    started = []
    fork = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: started.append(m) or fork(m))
    argv = ["validate", "--from", "2", "--to", "3000", "--jobs", "2",
            "--out", str(tmp_path / "r.jsonl")]
    assert main(argv) == 0
    assert started == ["fork"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r.errata.jsonl", "r.jsonl", "r.summary.csv",
    ]
    assert (tmp_path / "r.jsonl").read_text() == "".join(
        record_line(check_single(n)) for n in range(2, 3001)
    )


def test_validate_interrupted_summary_and_ledger_keep_old_files(
    capsys, tmp_path, monkeypatch
):
    argv = ["validate", "--from", "2", "--to", "300", "--jobs", "1",
            "--out", str(tmp_path / "report.jsonl")]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == [
        "report.errata.jsonl", "report.jsonl", "report.summary.csv",
    ]

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def writerow(self, row):
            self.fh.write("partial,")
            raise OSError("disk full")

    # the CLI imports csv when it writes a summary: patch the module itself
    monkeypatch.setattr(csv, "writer", HalfWriter)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    real_replace = runner.os.replace

    def fail_ledger(src, dst):
        if str(dst).endswith(".errata.jsonl"):
            raise OSError("disk full")
        real_replace(src, dst)

    # a wider range has one more erratum (n = 484) to append
    monkeypatch.setattr(runner.os, "replace", fail_ledger)
    with pytest.raises(OSError, match="disk full"):
        main([*argv[:4], "500", *argv[5:]])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
    assert (tmp_path / "report.errata.jsonl").read_bytes() == before["report.errata.jsonl"]
    assert (tmp_path / "report.summary.csv").read_bytes() != before["report.summary.csv"]


def test_search_interrupted_out_leaves_no_file_or_the_old_one(
    capsys, tmp_path, monkeypatch
):
    out = tmp_path / "hits.jsonl"
    argv = ["search-s7", "--pmax", "20", "--jobs", "1", "--format", "csv",
            "--out", str(out)]

    def fail(rec):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "canonical_json", fail)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    assert list(tmp_path.iterdir()) == []

    out.write_text("old\n")
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "old\n"

    monkeypatch.undo()
    assert main(argv) == 0
    assert out.read_text() == '{"a":2,"b":-1,"n":60,"oracle_confirmed":true,"p":2,"q":3,"r":5}\n'


def test_validate_appends_after_a_ledger_line_without_newline(capsys, tmp_path):
    argv = ["validate", "--from", "2", "--to", "200", "--jobs", "1",
            "--out", str(tmp_path / "r.jsonl")]
    assert main(argv) == 0
    ledger = tmp_path / "r.errata.jsonl"
    ledger.write_bytes(ledger.read_bytes().rstrip(b"\n"))
    argv[4] = "500"  # one more erratum, n = 484, to append
    assert main(argv) == 0
    assert main(argv) == 0
    lines = ledger.read_text().splitlines()
    assert [json.loads(x)["n"] for x in lines] == [100, 196, 484]
