"""Range cross-validation of oracle vs classifier, reports, errata ledger.

For every n in a range the harness computes the divisor profile, both
brute-force verdicts, both classifications, and prediction checks, then
files any disagreement as an erratum.  One core, ``_evaluate``, does this
over plain values for block scans and ``check_single`` alike: fit kinds
from ``fit._solution``, form matches from the classifier cores, stated
recurrences by ``fit._holds``.  It returns n's outcome as a plain tuple;
errata, verdict objects and witnesses are built only when an outcome files
one.  Scans run in contiguous blocks, optionally across worker processes.
A block has few distinct outcomes (8 to 20 in blocks of 5000 to 65536 n
from 2 to 10**12); it returns them and each n's index into them, and
renders no text.  The parent adds the blocks' counts into one outcome
histogram and writes the report from each outcome's text split around n,
so the output is independent of the worker count, byte for byte.  A
validate block gets its factorizations from the factor sieve and its
divisor sets from the divisor sieve of ``profiles._profile_range``;
``check_single`` builds one ``profile``.  The ``tau-check`` sweep also
runs on plain values: factor tuples from the factor sieve, and both sets
of each n cut on their own by ``profiles._strict_sets``.

Report formats:
  * report:  JSONL, one validation record per line, sorted keys, integers
    above 2**53 rendered as decimal strings;
  * summary: CSV with fixed columns;
  * ledger:  JSONL of errata entries, deduplicated by (n, theorem).
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
from importlib import resources
from math import isqrt
from pathlib import Path
from typing import NamedTuple

from .arith import ContractViolation, _factor_range, _guard, _tau, factorize
from .classify import LARGE, SMALL, _large_forms, _prediction_holds, _small_forms
from .fit import _EMPTY, _VACUOUS, _solution
from .oracle import _verdict
from .profiles import _profile_range, _strict_sets, _tau_identity, profile

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
    "jsonable",
    "ledger_keys",
    "load_allowlist",
    "profile_sweep_failures",
    "record_line",
    "split_errata",
    "validate_range",
    "write_summary_csv",
]

KIND_ORACLE_ONLY = "OracleYesClassifierNo"
KIND_CLASSIFIER_ONLY = "OracleNoClassifierYes"
KIND_PREDICTION = "PredictionMismatch"

JOBS_ENV = "DIVREC_JOBS"
_BLOCK = 65536  # largest contiguous work unit, one task of the parallel map


class ValidationRecord(NamedTuple):
    n: int
    small_oracle: bool
    small_forms: tuple[int, ...]
    large_oracle: bool
    large_forms: tuple[int, ...]
    prediction_ok: bool


class ErrataEntry(NamedTuple):
    n: int
    theorem: str
    kind: str
    detail: str


class ValidationSummary(NamedTuple):
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
        with suppress(ValueError):  # int() refuses more than 4300 digits
            if env.strip().isdecimal() and int(env) >= 1:
                return int(env)
        raise ContractViolation(f"{JOBS_ENV} must be a positive integer")
    return _available_cpus()


def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# single-n evaluation


def _evaluate(n: int, sig, small: tuple[int, ...], large: tuple[int, ...]):
    """Oracle against classifiers for n with signature ``sig`` and strict sets
    ``small`` and ``large``: ``(outcome, errata)``.

    ``outcome`` is a plain tuple of bools and int tuples, so a block can key
    on it: (small recurrent, small vacuous, small form ids, large recurrent,
    large vacuous, large form ids, prediction_ok).  ``errata`` is ``()``
    unless the outcome files one.
    """
    # divisor sets of n are sorted, positive and below n, which is guarded:
    # neither the fit nor the prediction checks test them again
    s_kind = _solution(small)[0]
    l_kind = _solution(large)[0]
    sm = _small_forms(sig)
    lm = _large_forms(sig)
    ok = True
    for _, _, pset, pu in sm:
        if not _prediction_holds(pset, pu, small):
            ok = False
    for _, _, pset, pu in lm:
        if not _prediction_holds(pset, pu, large):
            ok = False
    s_rec = s_kind is not _EMPTY
    l_rec = l_kind is not _EMPTY
    # most sides match no form
    s_ids = tuple([m[0] for m in sm]) if sm else ()
    l_ids = tuple([m[0] for m in lm]) if lm else ()
    outcome = (s_rec, s_kind is _VACUOUS, s_ids, l_rec, l_kind is _VACUOUS, l_ids, ok)
    if ok and s_rec == bool(s_ids) and l_rec == bool(l_ids):
        return outcome, ()
    errata = [
        ErrataEntry(
            n, theorem, KIND_PREDICTION,
            f"form {form_id} predicted {list(pset or ())} "
            f"u={pu}, computed {list(computed)}",
        )
        for theorem, forms, computed in ((SMALL, sm, small), (LARGE, lm, large))
        for form_id, _, pset, pu in forms
        if not _prediction_holds(pset, pu, computed)
    ]
    if s_rec != bool(s_ids):
        errata.append(_disagreement(n, SMALL, s_rec, s_ids, small))
    if l_rec != bool(l_ids):
        errata.append(_disagreement(n, LARGE, l_rec, l_ids, large))
    return outcome, errata


def _disagreement(n, theorem, recurrent, form_ids, divs) -> ErrataEntry:
    """The erratum for an oracle verdict that its form matches contradict."""
    name = "S'" if theorem == SMALL else "L'"
    if recurrent:
        witness = _verdict(divs).witness
        text = "vacuously recurrent" if witness is None else f"witness (a, b) = {witness}"
        return ErrataEntry(
            n, theorem, KIND_ORACLE_ONLY,
            f"{name} = {list(divs)}; {text}; no form matches",
        )
    return ErrataEntry(
        n, theorem, KIND_CLASSIFIER_ONLY,
        f"forms {list(form_ids)} matched but "
        f"{name} = {list(divs)} admits no fit",
    )


def check_single(n: int) -> ValidationRecord:
    """The validation record of one n, from one ``profile``."""
    if n < 2:
        raise ContractViolation("check_single requires n >= 2")
    f = factorize(n)
    prof = profile(n, fac=f)
    (s_rec, _, s_ids, l_rec, _, l_ids, ok), _ = _evaluate(
        n, f.factors, prof.small_strict, prof.large_strict
    )
    return ValidationRecord(n, s_rec, s_ids, l_rec, l_ids, ok)


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
    if type(obj) in (list, tuple):  # not a record: a NamedTuple is a tuple too
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    import json
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


_JSON_BOOL = {True: "true", False: "false"}


def _json_int(v: int) -> str:
    return str(v) if abs(v) <= _BIG else f'"{v}"'


def record_line(rec: ValidationRecord) -> str:
    """One report line: ``rec`` as canonical JSON, newline-terminated."""
    head, tail = _line_parts(rec.small_oracle, rec.small_forms,
                             rec.large_oracle, rec.large_forms, rec.prediction_ok)
    return head + _json_int(rec.n) + tail


def _line_parts(small_oracle, small_forms, large_oracle, large_forms,
                prediction_ok) -> tuple[str, str]:
    """The report line of a validation record, less its n: the text before
    and after the n field.  The six keys are written directly in sorted
    order, integers above 2**53 as strings; the line is
    ``head + _json_int(n) + tail``."""
    return (
        f'{{"large_forms":[{",".join(map(_json_int, large_forms))}],'
        f'"large_oracle":{_JSON_BOOL[large_oracle]},'
        '"n":',
        f',"prediction_ok":{_JSON_BOOL[prediction_ok]},'
        f'"small_forms":[{",".join(map(_json_int, small_forms))}],'
        f'"small_oracle":{_JSON_BOOL[small_oracle]}}}\n'
    )


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
    import csv
    row = summary._asdict()
    with _replace_when_done(path, newline="") as out:
        writer = csv.writer(out)
        writer.writerow(row)
        writer.writerow(row.values())


def ledger_keys(path) -> set[tuple[int, str]]:
    """The (n, theorem) keys of an errata ledger; empty if it does not exist."""
    import json
    path = Path(path)
    if not path.exists():
        return set()
    try:
        with open(path) as fh:
            objs = [json.loads(line) for line in fh if line.strip()]
        return {(int(obj["n"]), obj["theorem"]) for obj in objs}
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
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
        lines.append(canonical_json(e._asdict()) + "\n")
    old = path.read_bytes() if path.exists() else b""
    if lines and old and not old.endswith(b"\n"):
        old += b"\n"  # else the first new entry would extend the last old line
    with _replace_when_done(path, "wb") as fh:
        fh.write(old)
        fh.write("".join(lines).encode())
    return len(lines)


# ----------------------------------------------------------------------
# block scans


def get_context(method: str):
    """``multiprocessing.get_context(method)``.  Only a pool needs
    ``multiprocessing``, so it is imported on the first call: a process that
    never starts one does not pay for loading it."""
    import multiprocessing

    return multiprocessing.get_context(method)


def _parallel_map(worker, tasks, jobs):
    """``map(worker, tasks)``, on up to ``jobs`` forked workers, one task at a
    time each: an iterator of the results in task order.

    The pool never has more workers than tasks or than CPUs this process
    may use; ``jobs`` and the task list alone decide whether there is one.
    Without one, this is ``map`` itself: no generator frame on the serial path.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return map(worker, tasks)
    return _pool_imap(worker, tasks, min(jobs, len(tasks), _available_cpus()))


def _pool_imap(worker, tasks, processes):
    """Pool results in task order, as they come; closing this ends the pool."""
    with get_context("fork").Pool(processes) as pool:
        yield from pool.imap(worker, tasks)


def _scan_validation_block(span):
    """The outcomes of [lo, hi_excl): its distinct outcomes in order of first
    appearance, an ``array("I")`` of each n's index into them, and its errata."""
    lo, hi_excl = span
    seen = {}  # outcome -> its index
    index = array("I")
    errata: list[ErrataEntry] = []
    for n, sig, small, large in _profile_range(lo, hi_excl):
        outcome, errs = _evaluate(n, sig, small, large)
        if errs:
            errata.extend(errs)
        index.append(seen.setdefault(outcome, len(seen)))
    return list(seen), index, errata


def _blocks(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    """[start, end) spans covering [lo, hi]: one per worker, at most _BLOCK n each.

    Callers pass ``jobs`` capped at the CPUs: a span per job that cannot
    run at once would only add a block set-up.
    """
    size = min(_BLOCK, -(-(hi - lo + 1) // jobs))
    return [(start, min(start + size, hi + 1)) for start in range(lo, hi + 1, size)]


def _range_spans(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    """The ``_blocks`` of a range scan over [lo, hi], once its arguments pass
    their checks."""
    if not 2 <= lo <= hi:
        raise ContractViolation("need 2 <= lo <= hi")
    if jobs < 1:
        raise ContractViolation("jobs must be >= 1")
    _guard(hi)  # first: _blocks lists (hi - lo) / _BLOCK spans
    return _blocks(lo, hi, min(jobs, _available_cpus()))


def validate_range(
    lo: int,
    hi: int,
    *,
    jobs: int = 1,
    report_path=None,
) -> tuple[ValidationSummary, list[ErrataEntry]]:
    """Cross-validate every n in [lo, hi]; optionally stream the JSONL report.

    The result is independent of ``jobs``; with a report path the emitted
    bytes are identical for any worker count.  The report is written a line
    at a time as the blocks come, and moved onto ``report_path`` at the end.
    """
    spans = _range_spans(lo, hi, jobs)
    histogram: Counter = Counter()  # outcome -> count over the range
    errata: list[ErrataEntry] = []
    results = _parallel_map(_scan_validation_block, spans, jobs)
    try:
        with nullcontext() if report_path is None else _replace_when_done(report_path) as out:
            for (b_lo, b_hi), (outcomes, index, block_errata) in zip(spans, results):
                histogram.update({outcomes[i]: c for i, c in Counter(index).items()})
                errata.extend(block_errata)
                if out is not None:
                    parts = [_line_parts(s_rec, s_ids, l_rec, l_ids, ok)
                             for s_rec, _, s_ids, l_rec, _, l_ids, ok in outcomes]
                    out.writelines(parts[i][0] + _json_int(n) + parts[i][1]
                                   for n, i in zip(range(b_lo, b_hi), index))
    finally:
        if hasattr(results, "close"):  # a pool: end its workers now, also on failure
            results.close()

    # small rec, small vac, large rec, large vac: outcome fields 0, 1, 3, 4
    counts = [sum(o[i] * c for o, c in histogram.items()) for i in (0, 1, 3, 4)]
    summary = ValidationSummary(
        lo, hi, *counts,
        sum(e.theorem == SMALL for e in errata),
        sum(e.theorem == LARGE for e in errata),
    )
    return summary, errata


# ----------------------------------------------------------------------
# profile identity sweep (tau identity and reflection bijection)


def _scan_profile_block(task):
    """Both checks of the sweep over [lo, hi_excl), from plain values: the
    divisor count from the exponents against each set's length, and L'
    reflected through n // d against S'."""
    lo, hi_excl = task
    tau_bad: list[int] = []
    reflect_bad: list[int] = []
    for n, factors in _factor_range(lo, hi_excl):
        small, large = _strict_sets(n, factors)
        if not _tau_identity(_tau(factors), isqrt(n) ** 2 == n, small, large):
            tau_bad.append(n)
        if tuple([n // d for d in reversed(large)]) != small:
            reflect_bad.append(n)
    return tau_bad, reflect_bad


def profile_sweep_failures(
    lo: int, hi: int, *, jobs: int = 1
) -> tuple[list[int], list[int]]:
    """(tau-identity failures, reflection failures) over [lo, hi]; expect ([], [])."""
    results = list(_parallel_map(_scan_profile_block, _range_spans(lo, hi, jobs), jobs))
    tau_bad = [n for bad, _ in results for n in bad]
    reflect_bad = [n for _, bad in results for n in bad]
    return tau_bad, reflect_bad


# ----------------------------------------------------------------------
# allowlist of documented theorem discrepancies


class AllowlistEntry(NamedTuple):
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
    import json
    if path is None:
        data = resources.files("divrec").joinpath("data/allowlist.json").read_bytes()
    else:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ContractViolation(f"cannot read allowlist {path}: {exc.strerror}") from None
    try:  # json.loads decodes the bytes; a UnicodeDecodeError is a ValueError
        entries = tuple(
            AllowlistEntry(obj["theorem"], obj["pattern"], obj["justification"])
            for obj in json.loads(data)
        )
        unknown = [e.pattern for e in entries if e.pattern not in _FAMILIES]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
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
