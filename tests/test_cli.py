import json

import pytest

from divrec import cli, harness
from divrec.cli import main
from divrec.harness import check_single, validation_record_dict


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


def test_validate_exit_two_with_empty_allowlist(capsys, tmp_path):
    allow = tmp_path / "empty.json"
    allow.write_text("[]")
    code, out, _ = run(
        capsys, "validate", "--from", "90", "--to", "110",
        "--jobs", "1", "--allowlist", str(allow),
    )
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
        raise AssertionError("_blocks called before the input bound was checked")

    monkeypatch.setattr(harness, "_blocks", no_blocks)
    code, out, err = run(capsys, "tau-check", "--from", "2", "--to", str(2**63))
    assert code == 1 and out == ""
    assert "exceeds the input bound" in err


@pytest.mark.parametrize("command", ["classify", "oracle"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_single_n_commands_build_one_profile(capsys, monkeypatch, command, fmt):
    # one factorization and one profile per call, in every format
    from divrec import oracle

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "factorize", counting("factorize", cli.factorize))
    monkeypatch.setattr(cli, "profile", counting("profile", cli.profile))
    monkeypatch.setattr(oracle, "profile", counting("profile", oracle.profile))
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


def test_validate_malformed_ledger_exits_one_before_output(capsys, tmp_path):
    ledger = tmp_path / "report.errata.jsonl"
    ledger.write_text('{"n": 100, "theorem": "Large"}\n{not json\n')
    before = ledger.read_bytes()
    code, out, err = run(
        capsys, "validate", "--from", "2", "--to", "300",
        "--jobs", "1", "--out", str(tmp_path / "report.jsonl"),
    )
    assert code == 1 and out == ""
    assert "malformed ledger" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.errata.jsonl"]
    assert ledger.read_bytes() == before


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the paths were checked")


def test_validate_missing_paths_exit_one_before_work(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "validate_range", _no_work)
    for extra in (
        ["--allowlist", str(tmp_path / "missing.json")],
        ["--out", str(tmp_path / "missing" / "r.jsonl")],
    ):
        code, out, err = run(capsys, "validate", "--from", "2", "--to", "50", *extra)
        assert code == 1 and out == ""
        assert err.startswith("divrec: error:")
        assert "missing" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,runner", [
    ("search-s7", "search_s7"), ("search-large5", "search_large5"),
])
def test_search_missing_out_dir_exits_one_before_work(
    capsys, tmp_path, monkeypatch, command, runner
):
    monkeypatch.setattr(cli, runner, _no_work)
    code, out, err = run(
        capsys, command, "--pmax", "50", "--out", str(tmp_path / "missing" / "h.jsonl")
    )
    assert code == 1 and out == ""
    assert err.startswith("divrec: error:") and "missing" in err
    assert list(tmp_path.iterdir()) == []


def test_search_large5_hostile_pmax_exits_one(capsys):
    code, out, err = run(capsys, "search-large5", "--pmax", str(10**12))
    assert code == 1 and out == ""
    assert err.startswith("divrec: error:") and "input bound" in err


def _fail_part_way(src, dst, *args):
    dst.write(src.read(100))
    raise OSError("disk full")


def test_validate_interrupted_report_leaves_no_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(harness.shutil, "copyfileobj", _fail_part_way)
    with pytest.raises(OSError, match="disk full"):
        main(["validate", "--from", "2", "--to", "300", "--jobs", "1",
              "--out", str(tmp_path / "report.jsonl")])
    assert list(tmp_path.iterdir()) == []


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

    monkeypatch.setattr(harness.csv, "writer", HalfWriter)
    with pytest.raises(OSError, match="disk full"):
        main(argv)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    real_replace = harness.os.replace

    def fail_ledger(src, dst):
        if str(dst).endswith(".errata.jsonl"):
            raise OSError("disk full")
        real_replace(src, dst)

    # a wider range has one more erratum (n = 484) to append
    monkeypatch.setattr(harness.os, "replace", fail_ledger)
    with pytest.raises(OSError, match="disk full"):
        main([*argv[:4], "500", *argv[5:]])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
    assert (tmp_path / "report.errata.jsonl").read_bytes() == before["report.errata.jsonl"]
    assert (tmp_path / "report.summary.csv").read_bytes() != before["report.summary.csv"]
