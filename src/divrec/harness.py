"""Range scans: cross-validation, the profile sweep, reports, errata ledger,
and the one documented family of errata (``_documented``).

A validate scan runs the one-n core ``check._evaluate``, read here as a
module global, on every n of a range, in contiguous blocks, optionally
across the workers of ``runner``.  A block has few distinct outcomes (8
to 20 in blocks of 5000 to 65536 n from 2 to 10**12); it returns them and
each n's index into them, and renders no text.  The parent adds the
blocks' counts into one outcome histogram and writes the report from each
outcome's text split around n, so the output is independent of the worker
count, byte for byte.  Both range sieves are here, loaded only with a
range scan: a validate block gets its factorizations from the segmented
factor sieve ``_factor_range`` and its divisor sets from the divisor sieve
``_profile_range``; the ``tau-check`` sweep cuts both sets of each n on
their own by ``profiles._strict_sets`` from the factor sieve's tuples.

Report formats:
  * report:  JSONL, one validation record per line, sorted keys, integers
    above 2**53 rendered as decimal strings;
  * ledger:  JSONL of errata entries, deduplicated by (n, theorem).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from contextlib import nullcontext
from itertools import islice
from math import isqrt
from pathlib import Path
from typing import Iterator, NamedTuple

from .arith import (_TABLE_LIMIT, ContractViolation, _factor_into, _guard, _prime_table, _tau,
                    factorize)
from .check import (KIND_ORACLE_ONLY, _BIG, ErrataEntry, ValidationRecord, _evaluate,
                    canonical_json)
from .classify import LARGE, SMALL
from .profiles import _strict_sets, _tau_identity
from .runner import _replace_when_done, map_spans

__all__ = [
    "ValidationSummary", "append_ledger", "ledger_keys", "profile_sweep_failures",
    "split_errata", "validate_range",
]


class ValidationSummary(NamedTuple):
    range_lo: int
    range_hi: int
    count_small_recurrent: int
    count_small_vacuous: int
    count_large_recurrent: int
    count_large_vacuous: int
    errata_small: int
    errata_large: int


# ----------------------------------------------------------------------
# serialization


def _json_int(v: int) -> str:
    return str(v) if abs(v) <= _BIG else f'"{v}"'


def _line_parts(outcome) -> tuple[str, str]:
    """The report line of an outcome, less its n: the canonical JSON of its
    ``ValidationRecord`` with n = 0, cut around that 0.  The line of n is
    ``head + _json_int(n) + tail``."""
    s_rec, _, s_ids, l_rec, _, l_ids, ok = outcome
    text = canonical_json(ValidationRecord(0, s_rec, s_ids, l_rec, l_ids, ok)._asdict())
    head, tail = text.split('"n":0')
    return head + '"n":', tail + "\n"


def ledger_keys(path) -> set[tuple[int, str]]:
    """The (n, theorem) keys of an errata ledger; empty if it does not exist."""
    import json
    path = Path(path)
    if not path.exists():
        return set()
    try:
        with open(path) as fh:
            objs = [json.loads(line) for line in fh if line.strip()]
        keys = set()
        for obj in objs:
            n, theorem = obj["n"], obj["theorem"]
            if type(n) is str and n.isascii() and n.isdecimal():  # n above 2**53
                n = int(n)  # ValueError past 4300 digits
            if type(n) is not int or theorem not in (SMALL, LARGE):  # a bool is no n
                raise ValueError("an entry needs an integer n and a theorem Small or Large")
            keys.add((n, theorem))
        return keys
    except OSError as exc:
        raise ContractViolation(f"cannot read ledger {path}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ContractViolation(f"malformed ledger {path}: {exc}") from None


def append_ledger(path, errata) -> int:
    """Append entries not already present, keyed by (n, theorem)."""
    path = Path(path)
    seen = ledger_keys(path)
    lines = []
    for e in errata:
        if (e.n, e.theorem) not in seen:
            seen.add((e.n, e.theorem))
            lines.append(canonical_json(e._asdict()) + "\n")
    old = path.read_bytes() if path.exists() else b""
    if lines and old and not old.endswith(b"\n"):
        old += b"\n"  # else the first new entry would extend the last old line
    with _replace_when_done(path, "wb") as fh:
        fh.write(old + "".join(lines).encode())
    return len(lines)


# ----------------------------------------------------------------------
# range sieves

_MIN_SEGMENT = 512


def _factor_range(lo: int, hi_excl: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """``(n, factorize(n).factors)`` for lo <= n < hi_excl, in order.

    Every prime p <= top = min(isqrt(hi_excl - 1), 2**20), a slice of the
    cached ``arith._prime_table``, divides itself out of its multiples
    in the current segment, in one loop from the index of its first
    multiple.  For a prime up to the segment length that is -start % p.  A
    larger prime has at most one multiple, at index size - 1 - last % p
    when last % p < size (last = the segment's largest n, so the dividend
    is positive; CPython takes a slower path for a negative one), and is
    left out otherwise.  A cofactor m > 1 then has no prime factor <= top,
    so it is prime when m < (top + 1)**2, which always holds below 2**40;
    a larger one goes to the Miller-Rabin and Brent-rho tail of ``factorize``.

    Each prime costs one division per segment, so the range is cut into
    the fewest equal segments of at most max(512, an eighth as many n as
    there are sieving primes) n, and no short last segment pays for every
    prime: at 10**12, over 20 000 n, a single segment took 1.66 us
    per n, an eighth 1.79, a sixteenth 2.01 and a thirty-second 2.57 (CPU
    time, best of 9, 2-CPU VM).  Short segments keep the working set
    small when there are few primes.
    """
    if not 1 <= lo <= hi_excl:
        raise ContractViolation("_factor_range requires 1 <= lo <= hi_excl")
    if lo == hi_excl:
        return
    _guard(hi_excl - 1)
    top = min(isqrt(hi_excl - 1), _TABLE_LIMIT)
    table = _prime_table(min(1 << top.bit_length(), _TABLE_LIMIT))
    primes = table[: bisect_right(table, top)]
    proven = (top + 1) ** 2
    total = hi_excl - lo
    count = -(-total // max(_MIN_SEGMENT, len(primes) // 8))
    for j in range(count):
        start = lo + total * j // count
        size = lo + total * (j + 1) // count - start
        rem = list(range(start, start + size))
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        k = bisect_right(primes, size)
        neg, last = -start, start + size - 1  # one negation per segment, not one per prime
        firsts = [(p, neg % p) for p in primes[:k]]
        firsts += [(p, size - 1 - r) for p in primes[k:] if (r := last % p) < size]
        for p, first in firsts:
            for i in range(first, size, p):
                m = rem[i] // p
                e = 1
                while not m % p:
                    m //= p
                    e += 1
                rem[i] = m
                pairs[i].append((p, e))
        for n, m, f in zip(range(start, start + size), rem, pairs):
            if m >= proven:
                acc: dict[int, int] = {}
                _factor_into(m, acc)
                f.extend(sorted(acc.items()))
            elif m > 1:
                f.append((m, 1))
            yield n, tuple(f)


# A segment of the divisor sieve spans at most this many n, so its lists of
# small divisors stay a small working set.
_SIEVE_SEGMENT = 4096
# The sieve walks every d <= isqrt(end - 1) once per segment, so a segment
# is sieved only when that many d stay within this multiple of its length;
# otherwise each n goes through ``_strict_sets``.  CPU time, best of 61
# with the two branches interleaved, 2-CPU VM, factor sieve included, sieve
# against per-n in µs per n: 4 096 n at 2.7*10^8 (isqrt/length 4.0) 3.6 vs
# 4.2, at 4.2*10^8 (5.0) 4.1 vs 4.2, at 6.0*10^8 (6.0) 4.5 vs 4.3, at 10^9
# (7.7) 5.2 vs 4.4; 500 n at 4*10^6 (4.0) 3.3 vs 3.6, at 6.25*10^6 (5.0)
# 3.7 vs 3.6, at 9*10^6 (6.0) 4.1 vs 3.7, at 1.6*10^7 (8.0) 5.0 vs 3.9.
_SIEVE_MAX_ROOT_RATIO = 5


def _profile_range(lo: int, hi_excl: int) -> Iterator[tuple[int, tuple, tuple, tuple]]:
    """``(n, factors, S'(n), L'(n))`` for lo <= n < hi_excl, in order, 2 <= lo,
    with the sets of ``profile(n)`` and the factors of ``factorize(n)``.

    Factorizations come from ``_factor_range``.  Where a segment is cheap to
    sieve, each d >= 2 is appended to the list of every multiple n > d*d,
    which yields S'(n) sorted and leaves out the root of a square; L'(n) is
    n // d over S'(n) reversed.
    """
    facs = _factor_range(lo, hi_excl)
    for start in range(lo, hi_excl, _SIEVE_SEGMENT):
        end = min(start + _SIEVE_SEGMENT, hi_excl)
        size = end - start
        top = isqrt(end - 1)
        if top > _SIEVE_MAX_ROOT_RATIO * size:
            for n, factors in islice(facs, size):
                yield n, factors, *_strict_sets(n, factors)
            continue
        small: list[list[int]] = [[] for _ in range(size)]
        for d in range(2, top + 1):
            first = max(d * d + d, -(-start // d) * d)
            for divs in small[first - start :: d]:
                divs.append(d)
        for divs, (n, factors) in zip(small, facs):
            yield n, factors, tuple(divs), tuple([n // d for d in reversed(divs)])


# ----------------------------------------------------------------------
# block scans


def _scan_validation_block(lo: int, hi_excl: int):
    """The outcomes of lo <= n < hi_excl: its distinct outcomes in order of
    first appearance, an ``array("I")`` of each n's index into them, and its
    errata."""
    seen = {}  # outcome -> its index
    index = array("I")
    errata: list[ErrataEntry] = []
    for n, sig, small, large in _profile_range(lo, hi_excl):
        outcome, errs = _evaluate(n, sig, small, large)
        if errs:
            errata.extend(errs)
        index.append(seen.setdefault(outcome, len(seen)))
    return list(seen), index, errata


# A range scan over fewer n runs in this process whatever ``jobs`` says.  Wall
# time of fresh CLI processes, 2-CPU VM, median of 11 alternating runs each,
# jobs=1 vs 2: validate over [2, 1.5*10^4] took 226 vs 240 ms, [2, 2.5*10^4]
# 338 vs 275; tau-check over [2, 10^4] 168 vs 195, [2, 3*10^4] 279 vs 250;
# validate over 7 500 n from 10^12 204 vs 197, 1.5*10^4 n 338 vs 277.
_POOL_MIN = 15_000


def _range_scan(worker, lo: int, hi: int, jobs: int):
    """``runner.map_spans`` of ``worker`` over [lo, hi], its arguments checked."""
    if not 2 <= lo <= hi:
        raise ContractViolation("need 2 <= lo <= hi")
    _guard(hi)  # first: a range past the bound exits before any span
    return map_spans(worker, lo, hi + 1, jobs, _POOL_MIN)


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
    histogram: Counter = Counter()  # outcome -> count over the range
    errata: list[ErrataEntry] = []
    results = _range_scan(_scan_validation_block, lo, hi, jobs)
    b_lo = lo  # the first n of the next block
    try:
        with nullcontext() if report_path is None else _replace_when_done(report_path) as out:
            for outcomes, index, block_errata in results:
                histogram.update({outcomes[i]: c for i, c in Counter(index).items()})
                errata.extend(block_errata)
                if out is not None:
                    parts = [_line_parts(o) for o in outcomes]
                    out.writelines(parts[i][0] + _json_int(n) + parts[i][1]
                                   for n, i in enumerate(index, b_lo))
                b_lo += len(index)
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


def _scan_profile_block(lo: int, hi_excl: int):
    """Both checks of the sweep over lo <= n < hi_excl, from plain values:
    the divisor count from the exponents against each set's length, and L'
    reflected through n // d against S'."""
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
    results = list(_range_scan(_scan_profile_block, lo, hi, jobs))
    tau_bad = [n for bad, _ in results for n in bad]
    reflect_bad = [n for _, bad in results for n in bad]
    return tau_bad, reflect_bad


# ----------------------------------------------------------------------
# the documented errata


def _documented(e: ErrataEntry) -> bool:
    """Whether an erratum is the one known gap of the large-side forms: an
    oracle-only Large erratum at n = p^2*q^2 with q > p^2.

    There the three large divisors sort as p^2*q < q^2 < p*q^2, and
    a*q^2 + b*p^2*q = p*q^2 is always solvable (gcd q divides p*q^2), so the
    oracle says recurrent; no enumerated large form covers this window.
    Confirmed by oracle runs over [2, 10^6].  Soundness and prediction
    failures are never documented.
    """
    if e.kind != KIND_ORACLE_ONLY or e.theorem != LARGE:
        return False
    f = factorize(e.n).factors  # ((p, 2), (q, 2)) with q > p^2
    return len(f) == 2 and f[0][1] == f[1][1] == 2 and f[1][0] > f[0][0] ** 2


def split_errata(errata) -> tuple[list[ErrataEntry], list[ErrataEntry]]:
    """Partition errata into (documented, violations)."""
    documented, violations = [], []
    for e in errata:
        (documented if _documented(e) else violations).append(e)
    return documented, violations
