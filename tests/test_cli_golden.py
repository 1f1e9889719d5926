"""Byte-for-byte output of the CLI renderers against a committed fixture.

Every case runs ``main`` in process and compares its exit code, stdout and
stderr with ``fixtures/cli_golden.json``: ``classify`` and ``oracle`` in
every format (``oracle`` also with grids), ``validate``, both searches and
``tau-check``.
A stdout longer than ``_INLINE`` characters (the full grids of vacuous sets)
is stored as its SHA-256.  Run this file as a script to rewrite the fixture
from the current code.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from divrec.cli import main

FIXTURE = Path(__file__).with_name("fixtures") / "cli_golden.json"

_INLINE = 8192
_NS = (1, 6, 42, 48, 60, 100, 162, 360, 512, 675, 1024, 4620, 10**12 + 39, 2**61 - 1)


def _cases():
    for fmt in ("text", "json", "csv"):
        for n in _NS:
            yield f"classify {n} --format {fmt}"
            yield f"oracle {n} --format {fmt}"
            for bound in (1, 7, 50):
                yield f"oracle {n} --bound {bound} --format {fmt}"
        yield f"validate --from 2 --to 3000 --jobs 1 --format {fmt}"
        for command in ("search-s7", "search-large5"):
            for pmax in (1, 50, 300, 10_000):
                yield f"{command} --pmax {pmax} --jobs 1 --format {fmt}"
    yield "tau-check --from 2 --to 3000 --jobs 1"
    yield "tau-check --from 1 --to 10 --jobs 1"


CASES = list(_cases())


def _run(case: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case.split())
    stdout = out.getvalue()
    if len(stdout) > _INLINE:
        return {"code": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                "stderr": err.getvalue()}
    return {"code": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_fixture(golden, case):
    assert _run(case) == golden[case]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({c: _run(c) for c in CASES}, indent=1, sort_keys=True) + "\n")
