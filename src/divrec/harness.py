"""Range cross-validation of oracle vs classifier, reports, errata ledger.

For every n in a range the harness computes the divisor profile, both
brute-force verdicts, both classifications, and prediction checks, then
files any disagreement as an erratum.  Scans run in contiguous blocks,
optionally across worker processes; the merged output is deterministic
and independent of the worker count, byte for byte.

Report formats:
  * report:  JSONL, one validation record per line, sorted keys, integers
    above 2**53 rendered as decimal strings;
  * summary: CSV with fixed columns;
  * ledger:  JSONL of errata entries, deduplicated by (n, theorem).
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from multiprocessing import get_context
from pathlib import Path

from .arith import ContractViolation, Factorization, _guard, factor_range, factorize
from .classify import LARGE, SMALL, classify_large, classify_small, verify_prediction
from .oracle import _verdict
from .profiles import profile, tau_identity_holds

__all__ = [
    "AllowlistEntry",
    "ErrataEntry",
    "KIND_CLASSIFIER_ONLY",
    "KIND_ORACLE_ONLY",
    "KIND_PREDICTION",
    "ValidationRecord",
    "ValidationSummary",
    "append_ledger",
    "canonical_json",
    "check_single",
    "default_jobs",
    "erratum_record",
    "evaluate_single",
    "jsonable",
    "ledger_keys",
    "load_allowlist",
    "profile_sweep_failures",
    "record_line",
    "split_errata",
    "validate_range",
    "validation_record_dict",
    "write_summary_csv",
]

KIND_ORACLE_ONLY = "OracleYesClassifierNo"
KIND_CLASSIFIER_ONLY = "OracleNoClassifierYes"
KIND_PREDICTION = "PredictionMismatch"

JOBS_ENV = "DIVREC_JOBS"
_BLOCK = 65536  # largest contiguous work unit, one task of the parallel map


@dataclass(frozen=True)
class ValidationRecord:
    n: int
    small_oracle: bool
    small_forms: tuple[int, ...]
    large_oracle: bool
    large_forms: tuple[int, ...]
    prediction_ok: bool


@dataclass(frozen=True)
class ErrataEntry:
    n: int
    theorem: str
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationSummary:
    range_lo: int
    range_hi: int
    count_small_recurrent: int
    count_small_vacuous: int
    count_large_recurrent: int
    count_large_vacuous: int
    errata_small: int
    errata_large: int


def default_jobs() -> int:
    env = os.environ.get(JOBS_ENV)
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ContractViolation(f"{JOBS_ENV} must be a positive integer")
        return int(env)
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# single-n evaluation


def evaluate_single(
    n: int, *, fac: Factorization | None = None
) -> tuple[ValidationRecord, list[ErrataEntry]]:
    """The per-n record plus every oracle/classifier disagreement."""
    record, errata, _, _ = _evaluate_full(n, fac)
    return record, errata


def _evaluate_full(
    n: int, fac: Factorization | None
) -> tuple[ValidationRecord, list[ErrataEntry], bool, bool]:
    f = fac if fac is not None else factorize(n)
    prof = profile(n, fac=f)
    # divisor sets of n are sorted, positive and below n, which is guarded
    sv = _verdict(prof.small_strict)
    lv = _verdict(prof.large_strict)
    sm = classify_small(n, fac=f)
    lm = classify_large(n, fac=f)

    errata: list[ErrataEntry] = []
    prediction_ok = True
    for m in (*sm, *lm):
        if not verify_prediction(m, prof):
            prediction_ok = False
            side = prof.small_strict if m.theorem == SMALL else prof.large_strict
            errata.append(ErrataEntry(
                n, m.theorem, KIND_PREDICTION,
                f"form {m.form_id} predicted {list(m.predicted_set or ())} "
                f"u={m.predicted_u}, computed {list(side)}",
            ))

    for theorem, verdict, matches, divs, name in (
        (SMALL, sv, sm, prof.small_strict, "S'"),
        (LARGE, lv, lm, prof.large_strict, "L'"),
    ):
        if verdict.recurrent and not matches:
            witness = (
                f"witness (a, b) = {verdict.witness}"
                if verdict.witness is not None
                else "vacuously recurrent"
            )
            errata.append(ErrataEntry(
                n, theorem, KIND_ORACLE_ONLY,
                f"{name} = {list(divs)}; {witness}; no form matches",
            ))
        elif matches and not verdict.recurrent:
            errata.append(ErrataEntry(
                n, theorem, KIND_CLASSIFIER_ONLY,
                f"forms {[m.form_id for m in matches]} matched but "
                f"{name} = {list(divs)} admits no fit",
            ))

    record = ValidationRecord(
        n,
        sv.recurrent,
        tuple(m.form_id for m in sm),
        lv.recurrent,
        tuple(m.form_id for m in lm),
        prediction_ok,
    )
    return record, errata, sv.vacuous, lv.vacuous


def check_single(n: int) -> ValidationRecord:
    if n < 2:
        raise ContractViolation("check_single requires n >= 2")
    return evaluate_single(n)[0]


# ----------------------------------------------------------------------
# serialization

_BIG = 1 << 53


def jsonable(obj):
    """Recursively convert to JSON-safe data; big integers become strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _BIG else obj
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def validation_record_dict(rec: ValidationRecord) -> dict:
    return {
        "n": rec.n,
        "small_oracle": rec.small_oracle,
        "small_forms": list(rec.small_forms),
        "large_oracle": rec.large_oracle,
        "large_forms": list(rec.large_forms),
        "prediction_ok": rec.prediction_ok,
    }


_JSON_BOOL = {True: "true", False: "false"}


def _json_int(v: int) -> str:
    return str(v) if abs(v) <= _BIG else f'"{v}"'


def record_line(rec: ValidationRecord) -> str:
    """One report line, byte-identical to
    ``canonical_json(validation_record_dict(rec)) + "\\n"``.

    The six keys are written directly, in sorted order.
    """
    return (
        f'{{"large_forms":[{",".join(map(_json_int, rec.large_forms))}],'
        f'"large_oracle":{_JSON_BOOL[rec.large_oracle]},'
        f'"n":{_json_int(rec.n)},'
        f'"prediction_ok":{_JSON_BOOL[rec.prediction_ok]},'
        f'"small_forms":[{",".join(map(_json_int, rec.small_forms))}],'
        f'"small_oracle":{_JSON_BOOL[rec.small_oracle]}}}\n'
    )


def erratum_record(e: ErrataEntry) -> dict:
    return {"n": e.n, "theorem": e.theorem, "kind": e.kind, "detail": e.detail}


@contextmanager
def _replace_when_done(path, mode="w", **kwargs):
    """Open a temp file beside ``path``; move it onto ``path`` only once the
    block completes, so an interrupted write leaves no partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_summary_csv(path, summary: ValidationSummary) -> None:
    columns = [
        "range_lo", "range_hi",
        "count_small_recurrent", "count_small_vacuous",
        "count_large_recurrent", "count_large_vacuous",
        "errata_small", "errata_large",
    ]
    with _replace_when_done(path, newline="") as out:
        writer = csv.writer(out)
        writer.writerow(columns)
        writer.writerow([getattr(summary, c) for c in columns])


def ledger_keys(path) -> set[tuple[int, str]]:
    """The (n, theorem) keys of an errata ledger; empty if it does not exist."""
    path = Path(path)
    if not path.exists():
        return set()
    try:
        with open(path) as fh:
            objs = [json.loads(line) for line in fh if line.strip()]
        return {(int(obj["n"]), obj["theorem"]) for obj in objs}
    except (ValueError, KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed ledger {path}: {exc}") from None


def append_ledger(path, errata) -> int:
    """Append entries not already present, keyed by (n, theorem)."""
    path = Path(path)
    seen = ledger_keys(path)
    lines = []
    for e in errata:
        key = (e.n, e.theorem)
        if key in seen:
            continue
        seen.add(key)
        lines.append(canonical_json(erratum_record(e)) + "\n")
    old = path.read_bytes() if path.exists() else b""
    with _replace_when_done(path, "wb") as fh:
        fh.write(old)
        fh.write("".join(lines).encode())
    return len(lines)


# ----------------------------------------------------------------------
# block scans


def _parallel_map(worker, tasks, jobs, *, chunksize=None) -> list:
    """``[worker(t) for t in tasks]``, on up to ``jobs`` forked workers."""
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with get_context("fork").Pool(min(jobs, len(tasks))) as pool:
        return pool.map(worker, tasks, chunksize=chunksize)


def _scan_validation_block(task):
    lo, hi_excl, part = task
    counts = [0, 0, 0, 0]  # small rec, small vac, large rec, large vac
    errata: list[ErrataEntry] = []
    lines: list[str] = []
    collect = part is not None
    for f in factor_range(lo, hi_excl):
        rec, errs, small_vac, large_vac = _evaluate_full(f.n, f)
        counts[0] += rec.small_oracle
        counts[1] += small_vac
        counts[2] += rec.large_oracle
        counts[3] += large_vac
        errata.extend(errs)
        if collect:
            lines.append(record_line(rec))
    if collect:
        with open(part, "w") as fh:
            fh.writelines(lines)
    return counts, errata


def _blocks(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    """[start, end) spans covering [lo, hi]: one per worker, at most _BLOCK n each."""
    size = min(_BLOCK, -(-(hi - lo + 1) // jobs))
    return [(start, min(start + size, hi + 1)) for start in range(lo, hi + 1, size)]


def validate_range(
    lo: int,
    hi: int,
    *,
    jobs: int = 1,
    report_path=None,
) -> tuple[ValidationSummary, list[ErrataEntry]]:
    """Cross-validate every n in [lo, hi]; optionally stream the JSONL report.

    The result is independent of ``jobs``; with a report path the emitted
    bytes are identical for any worker count.
    """
    if not 2 <= lo <= hi:
        raise ContractViolation("need 2 <= lo <= hi")
    if jobs < 1:
        raise ContractViolation("jobs must be >= 1")
    _guard(hi)

    spans = _blocks(lo, hi, jobs)
    with tempfile.TemporaryDirectory() as tmp:
        if report_path is not None:
            tasks = [
                (b_lo, b_hi, os.path.join(tmp, f"part-{i:06d}.jsonl"))
                for i, (b_lo, b_hi) in enumerate(spans)
            ]
        else:
            tasks = [(b_lo, b_hi, None) for b_lo, b_hi in spans]
        results = _parallel_map(_scan_validation_block, tasks, jobs, chunksize=1)

        if report_path is not None:
            with _replace_when_done(report_path, "wb") as out:
                for _, _, part in tasks:
                    with open(part, "rb") as fh:
                        shutil.copyfileobj(fh, out)

    counts = [0, 0, 0, 0]
    errata: list[ErrataEntry] = []
    for block_counts, block_errata in results:
        for i in range(4):
            counts[i] += block_counts[i]
        errata.extend(block_errata)

    summary = ValidationSummary(
        lo, hi,
        counts[0], counts[1], counts[2], counts[3],
        sum(e.theorem == SMALL for e in errata),
        sum(e.theorem == LARGE for e in errata),
    )
    return summary, errata


# ----------------------------------------------------------------------
# profile identity sweep (tau identity and reflection bijection)


def _scan_profile_block(task):
    lo, hi_excl = task
    tau_bad: list[int] = []
    reflect_bad: list[int] = []
    for f in factor_range(lo, hi_excl):
        prof = profile(f.n, fac=f)
        if not tau_identity_holds(prof):
            tau_bad.append(f.n)
        if tuple(f.n // d for d in reversed(prof.large_strict)) != prof.small_strict:
            reflect_bad.append(f.n)
    return tau_bad, reflect_bad


def profile_sweep_failures(
    lo: int, hi: int, *, jobs: int = 1
) -> tuple[list[int], list[int]]:
    """(tau-identity failures, reflection failures) over [lo, hi]; expect ([], [])."""
    if not 2 <= lo <= hi:
        raise ContractViolation("need 2 <= lo <= hi")
    if jobs < 1:
        raise ContractViolation("jobs must be >= 1")
    _guard(hi)
    results = _parallel_map(_scan_profile_block, _blocks(lo, hi, jobs), jobs, chunksize=1)
    tau_bad = [n for bad, _ in results for n in bad]
    reflect_bad = [n for _, bad in results for n in bad]
    return tau_bad, reflect_bad


# ----------------------------------------------------------------------
# allowlist of documented theorem discrepancies


@dataclass(frozen=True)
class AllowlistEntry:
    theorem: str
    pattern: str
    justification: str


def _family_p2q2_large(n: int) -> bool:
    f = factorize(n)
    if len(f.factors) != 2:
        return False
    (p, a), (q, b) = f.factors
    return a == 2 and b == 2 and q > p * p


# Named errata families; an allowlist file refers to these by pattern name.
_FAMILIES = {
    "p2q2-q-gt-p2": _family_p2q2_large,
}


def load_allowlist(path=None) -> tuple[AllowlistEntry, ...]:
    """Load allowlist entries; with no path, the packaged default."""
    if path is None:
        text = (
            resources.files("divrec").joinpath("data/allowlist.json").read_text()
        )
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ContractViolation(f"cannot read allowlist {path}: {exc.strerror}") from None
    try:
        entries = tuple(
            AllowlistEntry(obj["theorem"], obj["pattern"], obj["justification"])
            for obj in json.loads(text)
        )
        unknown = [e.pattern for e in entries if e.pattern not in _FAMILIES]
    except (ValueError, KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed allowlist: {exc}") from None
    if unknown:
        raise ContractViolation(f"unknown allowlist pattern {unknown[0]!r}")
    return entries


def _allowed(e: ErrataEntry, allowlist) -> bool:
    if e.kind != KIND_ORACLE_ONLY:
        return False  # soundness and prediction failures are never waived
    return any(
        entry.theorem == e.theorem and _FAMILIES[entry.pattern](e.n)
        for entry in allowlist
    )


def split_errata(errata, allowlist) -> tuple[list[ErrataEntry], list[ErrataEntry]]:
    """Partition errata into (documented, violations)."""
    documented, violations = [], []
    for e in errata:
        (documented if _allowed(e, allowlist) else violations).append(e)
    return documented, violations
