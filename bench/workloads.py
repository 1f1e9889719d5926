"""The benchmark's workloads: inputs from the seed, timed rounds, checks, traced replay.

Every workload is a closed loop of one caller that repeats whole rounds of
the same operations.  ``run_round`` times the calls a user would make
through ``clock.Clock.rate``, one throughput sample per call or batch;
outputs are kept (on disk for the range workloads) and checked by
``check`` after the timed loop, against ``reference`` only.  ``replay``
makes the calls of one layer after another, each through a tracer, so the
traced run can report self time per layer.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import random
from bisect import bisect_left, bisect_right
from math import comb
from pathlib import Path

from divrec import (
    FactorSieve,
    FitKind,
    brute_force_fit,
    classify_large,
    classify_small,
    divisors_sorted,
    factorize,
    primes_upto,
    profile,
    search_large5,
    search_s7,
    solutions_in_box,
    solve_fit,
    validate_range,
    verify_prediction,
)
from divrec.cli import main as divrec_main
from divrec.harness import profile_sweep_failures
from divrec.oracle import verdict_for_sequence

import reference as ref

JOBS_ALL = len(os.sched_getaffinity(0))
PRIMARY, SECONDARY = "primary_per_s", "secondary_per_s"
SMALL_FORMS, LARGE_FORMS = range(1, 11), range(1, 10)
RECORD_KEYS = {"n", "small_oracle", "small_forms", "large_oracle", "large_forms",
               "prediction_ok"}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``divrec <argv>`` in this process: (exit code, standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = divrec_main(argv)
    return code, buf.getvalue()


# ----------------------------------------------------------------------
# range-low, range-high


class RangeWorkload:
    """``divrec validate --out`` and the tau-check sweep over consecutive n.

    The window is cut into sub-windows, each one validate call and one
    tau-check call, so a run yields many samples and their median is
    steady.  Each round ends with one validate call over the whole window
    at jobs = nproc, whose report must equal the sub-window reports joined.
    """

    trace_repeats = 3

    def __init__(self, lo, hi, sub, trace_window, workdir, *, sieve):
        self.lo, self.hi = lo, hi
        self.subs = [(a, min(a + sub - 1, hi)) for a in range(lo, hi + 1, sub)]
        # fixed for every seed, so the traced counts repeat exactly
        self.trace_window = trace_window
        self.sieve = sieve  # the program factorizes by a sieve below its cap
        self.workdir = Path(workdir)
        self.ops_per_round = hi - lo + 1
        self._rounds = []

    @classmethod
    def low(cls, seed, workdir):
        hi = 100_000 + random.Random(seed).randrange(10_001)
        return cls(2, hi, 5_000, (90_001, 100_000), workdir, sieve=True)

    @classmethod
    def high(cls, seed, workdir):
        lo = 10**12 + random.Random(seed).randrange(10**9)
        return cls(lo, lo + 4_999, 500, (10**12 + 1, 10**12 + 2_000), workdir, sieve=False)

    def warm(self):
        validate_range(self.lo, self.lo + 99)
        profile_sweep_failures(self.lo, self.lo + 99)

    def run_round(self, k, clock):
        rdir = self.workdir / f"round-{k}"
        calls = []
        for i, (a, b) in enumerate(self.subs):
            out = rdir / f"call-{i}" / "report.jsonl"
            out.parent.mkdir(parents=True)
            code, stdout = clock.rate(PRIMARY, b - a + 1, run_cli, [
                "validate", "--from", str(a), "--to", str(b), "--jobs", "1",
                "--out", str(out), "--format", "json"])
            calls.append((a, b, out, code, stdout))
        tau = [clock.rate(SECONDARY, b - a + 1, profile_sweep_failures, a, b, jobs=1)
               for a, b in self.subs]
        whole = rdir / "jobs-all.jsonl"
        code, _ = run_cli(["validate", "--from", str(self.lo), "--to", str(self.hi),
                           "--jobs", str(JOBS_ALL), "--out", str(whole),
                           "--format", "json"])
        self._rounds.append((calls, tau, whole, code))

    def check(self) -> list[int]:
        """Failed n per round."""
        expect = []  # per n: (S' recurrent, L' recurrent, vacuous)
        for i, small in enumerate(ref.small_sets_in_window(self.lo, self.hi)):
            large = ref.large_from_small(self.lo + i, small)
            expect.append((ref.decide(small)[0], ref.decide(large)[0], len(small) <= 2))
        return [len(self.check_round(expect, *r)) for r in self._rounds]

    def check_round(self, expect, calls, tau, whole, whole_code) -> set[int]:
        bad: set[int] = set()
        joined: list[bytes] = []
        for a, b, out, code, stdout in calls:
            lines = out.read_bytes().splitlines() if out.exists() else []
            joined.extend(lines)
            bad |= self.check_call(expect, a, b, out, code, stdout, lines)
        for tau_bad, reflect_bad in tau:
            bad.update(tau_bad)
            bad.update(reflect_bad)
        every = range(self.lo, self.hi + 1)
        whole_lines = whole.read_bytes().splitlines() if whole.exists() else []
        if whole_code != 0 or len(whole_lines) != len(joined):
            bad.update(every)
        else:
            bad.update(n for n, x, y in zip(every, joined, whole_lines) if x != y)
        if not bad.issubset(every):  # a fault named an n outside the window
            bad.update(every)
        return bad.intersection(every)

    def check_call(self, expect, a, b, out, code, stdout, lines) -> set[int]:
        """Failed n of one validate call; a call-wide fault fails all its n."""
        every = set(range(a, b + 1))
        base = str(out)[: -len(".jsonl")]
        try:
            payload = json.loads(stdout)
            with open(base + ".summary.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            summary = {k: int(v) for k, v in zip(rows[0], rows[1])}
            ledger = [json.loads(x) for x in Path(base + ".errata.jsonl").read_text().splitlines()]
            records = [json.loads(x) for x in lines]
            errata = payload["errata"]
            violations = payload["violations"]
            gaps = {int(e["n"]) for e in ledger
                    if e["theorem"] == "Large" and e["kind"] == "OracleYesClassifierNo"}
            bad = {int(e["n"]) for e in ledger if int(e["n"]) not in gaps}
        except (OSError, ValueError, LookupError, TypeError):
            return every
        if code != 0 or violations != [] or len(records) != len(every):
            return every

        for n, rec in zip(range(a, b + 1), records):
            if not self.record_ok(n, rec, expect[n - self.lo], n in gaps):
                bad.add(n)
        # The summary must count what the report lines say.  A line that
        # disagrees with the reference has failed on its own, so the
        # summary is held to the reference counts: when no line failed,
        # they are the counts of the lines.
        small, large, vacuous = (sum(col) for col in zip(*expect[a - self.lo : b - self.lo + 1]))
        wanted = {
            "range_lo": a, "range_hi": b,
            "count_small_recurrent": small, "count_small_vacuous": vacuous,
            "count_large_recurrent": large, "count_large_vacuous": vacuous,
            "errata_small": sum(e.get("theorem") == "Small" for e in errata),
            "errata_large": sum(e.get("theorem") == "Large" for e in errata),
        }
        keys = {(e.get("n"), e.get("theorem")) for e in errata}
        if summary != wanted or len(ledger) != len(errata) or len(keys) != len(ledger):
            return every
        return bad

    @staticmethod
    def record_ok(n, rec, expect, in_ledger) -> bool:
        small, large, _ = expect
        if not isinstance(rec, dict) or set(rec) != RECORD_KEYS:
            return False
        if rec["n"] != n or rec["prediction_ok"] is not True:
            return False
        if rec["small_oracle"] is not small or rec["large_oracle"] is not large:
            return False
        # small side: sound and complete; large side: sound, and every gap
        # is a ledger entry in the documented family
        if bool(rec["small_forms"]) != small or (rec["large_forms"] and not large):
            return False
        gap = large and not rec["large_forms"]
        return gap == in_ledger and (not gap or ref.in_errata_family(n))

    def trace_prologue(self, tr):
        a, b = self.trace_window
        tr.call("harness.validate", validate_range, a, b, jobs=1,
                report_path=self.workdir / "traced.jsonl")

    def replay(self, tr):
        """The calls ``_evaluate_full`` makes per n, in its order, plus
        ``divisors_sorted`` on its own (``profile`` calls it inside)."""
        a, b = self.trace_window
        if self.sieve:
            fac = tr.call("arith.sieve_build", FactorSieve, b + 1).factorize
        else:
            fac = factorize
        for n in range(a, b + 1):
            f = tr.call("arith.factorize", fac, n)
            tr.call("arith.divisors_sorted", divisors_sorted, f)
            prof = tr.call("profiles.profile", profile, n, fac=f)
            sv = tr.call("oracle.verdict", verdict_for_sequence, prof.small_strict)
            lv = tr.call("oracle.verdict", verdict_for_sequence, prof.large_strict)
            sm = tr.call("classify.classify", classify_small, n, fac=f)
            lm = tr.call("classify.classify", classify_large, n, fac=f)
            for m in (*sm, *lm):
                tr.call("classify.verify", verify_prediction, m, prof)
            tr.add("profiles.n_count")
            tr.add("profiles.set_len_sum", len(prof.small_strict) + len(prof.large_strict))
            for side, v, seq, matches in (("small", sv, prof.small_strict, sm),
                                          ("large", lv, prof.large_strict, lm)):
                tr.add(f"oracle.fit_kind.{side}.{v.fit.kind.value}")
                tr.add("oracle.nonvacuous_sets", len(seq) >= 3)
                for m in matches:
                    tr.add(f"classify.form.{side}.{m.form_id}")

    @staticmethod
    def layer_metrics(tr) -> dict[str, float]:
        own = tr.self_seconds()
        n = tr.counts["profiles.n_count"]
        layers = ("arith.sieve_build", "arith.factorize", "profiles.profile",
                  "oracle.verdict", "classify.classify", "classify.verify")
        out = {
            "arith.factorize_us_per_n": own["arith.factorize"] * 1e6 / n,
            "arith.divisors_sorted_us_per_n": own["arith.divisors_sorted"] * 1e6 / n,
            "profiles.profile_us_per_n": own["profiles.profile"] * 1e6 / n,
            "oracle.verdict_us_per_n": own["oracle.verdict"] * 1e6 / n,
            "classify.classify_us_per_n": own["classify.classify"] * 1e6 / n,
            "classify.verify_us_per_n": own.get("classify.verify", 0.0) * 1e6 / n,
            "harness.validate_us_per_n": own["harness.validate"] * 1e6 / n,
            "harness.overhead_us_per_n":
                (own["harness.validate"] - sum(own.get(k, 0.0) for k in layers)) * 1e6 / n,
            "profiles.n_count": n,
            "profiles.set_len_sum": tr.counts["profiles.set_len_sum"],
            "oracle.set_count": 2 * n,
            "oracle.nonvacuous_share": tr.counts["oracle.nonvacuous_sets"] / (2 * n),
        }
        if "arith.sieve_build" in own:
            out["arith.sieve_build_ms"] = own["arith.sieve_build"] * 1e3
        for side in ("small", "large"):
            for kind in FitKind:
                key = f"oracle.fit_kind.{side}.{kind.value}"
                out[key] = tr.counts[key]
        for side, ids in (("small", SMALL_FORMS), ("large", LARGE_FORMS)):
            for i in ids:
                out[f"classify.form.{side}.{i}"] = tr.counts[f"classify.form.{side}.{i}"]
        return out


# ----------------------------------------------------------------------
# search


def _between(primes, lo, hi):
    """Primes x with lo < x < hi, from a sorted list."""
    return primes[bisect_right(primes, lo) : bisect_left(primes, hi)]


def naive_s7(p_max: int) -> list[tuple[int, int, int]]:
    """Prime triples p < q < p^2 < r < pq, p <= p_max, whose S'(p^2*q*r) is recurrent."""
    primes = ref.primes_below(p_max**3)
    hits = []
    for p in _between(primes, 1, p_max + 1):
        for q in _between(primes, p, p * p):
            for r in _between(primes, p * p, p * q):
                n = p * p * q * r
                small, _ = ref.split_sets(n, ref.divisors_from_factors([(p, 2), (q, 1), (r, 1)]))
                if ref.decide(small)[0]:
                    hits.append((p, q, r))
    return hits


def naive_l5(p_max: int) -> list[tuple[int, int]]:
    """Prime pairs p^2 < q < p^3, p <= p_max, whose L'(p^4*q) is recurrent."""
    primes = ref.primes_below(p_max**3)
    hits = []
    for p in _between(primes, 1, p_max + 1):
        for q in _between(primes, p * p, p**3):
            n = p**4 * q
            _, large = ref.split_sets(n, ref.divisors_from_factors([(p, 4), (q, 1)]))
            if ref.decide(large)[0]:
                hits.append((p, q))
    return hits


def s7_hit_ok(h) -> bool:
    p, q, r = h.p, h.q, h.r
    if not (ref.is_prime(p) and ref.is_prime(q) and ref.is_prime(r)):
        return False
    if not (p < q < p * p < r < p * q) or h.n != p * p * q * r or not h.oracle_confirmed:
        return False
    small, _ = ref.split_sets(h.n, ref.divisors_from_factors([(p, 2), (q, 1), (r, 1)]))
    return small == [p, q, p * p, r, p * q] and ref.decide(small) == (True, (h.a, h.b))


def l5_hit_ok(h) -> bool:
    p, q = h.p, h.q
    if not (ref.is_prime(p) and ref.is_prime(q)):
        return False
    if not (p * p < q < p**3) or h.n != p**4 * q or not h.oracle_confirmed:
        return False
    _, large = ref.split_sets(h.n, ref.divisors_from_factors([(p, 4), (q, 1)]))
    return ref.decide(large)[0]


class SearchWorkload:
    """``search_s7`` and ``search_large5`` at jobs=1, plus both at a seeded
    small p_max where a naive enumeration from the definition is feasible."""

    trace_repeats = 1

    def __init__(self, seed, workdir=None, *, p_s7=1000, p_l5=170):
        rng = random.Random(seed)
        self.p_s7, self.p_l5 = p_s7, p_l5
        self.small_s7, self.small_l5 = rng.randrange(12, 21), rng.randrange(15, 26)
        self.ops_per_round = 4
        self._rounds = []

    def warm(self):
        search_s7(10)
        search_large5(10)

    def run_round(self, k, clock):
        s7 = clock.rate(PRIMARY, 1, search_s7, self.p_s7)
        l5 = clock.rate(SECONDARY, 1, search_large5, self.p_l5)
        self._rounds.append((s7, l5, search_s7(self.small_s7), search_large5(self.small_l5)))

    def check(self) -> list[int]:
        """Failed search calls per round."""
        want_s7, want_l5 = naive_s7(self.small_s7), naive_l5(self.small_l5)

        def s7_ok(hits, p_max):
            keys = [(h.p, h.q, h.r) for h in hits]
            return (keys == sorted(set(keys)) and all(h.p <= p_max for h in hits)
                    and (2, 3, 5) in keys and all(s7_hit_ok(h) for h in hits))

        def l5_ok(hits, p_max):
            keys = [(h.p, h.q) for h in hits]
            return (keys == sorted(set(keys)) and all(h.p <= p_max for h in hits)
                    and all(l5_hit_ok(h) for h in hits))

        return [
            (not s7_ok(s7, self.p_s7)) + (not l5_ok(l5, self.p_l5))
            + (not (s7_ok(s7s, self.small_s7) and [(h.p, h.q, h.r) for h in s7s] == want_s7))
            + (not (l5_ok(l5s, self.small_l5) and [(h.p, h.q) for h in l5s] == want_l5))
            for s7, l5, s7s, l5s in self._rounds
        ]

    def trace_prologue(self, tr):
        pass

    def replay(self, tr):
        """Each search with, before it, the prime table it builds inside."""
        tr.call("arith.primes_upto", primes_upto, self.p_s7 * self.p_s7)
        s7 = tr.call("search.s7", search_s7, self.p_s7)
        tr.call("arith.primes_upto", primes_upto, self.p_l5**3)
        l5 = tr.call("search.large5", search_large5, self.p_l5)
        tr.add("search.calls", 2)
        tr.add("search.hits", len(s7) + len(l5))

    @staticmethod
    def layer_metrics(tr) -> dict[str, float]:
        own = tr.self_seconds()
        return {
            "arith.primes_upto_ms": own["arith.primes_upto"] * 1e3,
            "search.s7_ms": own["search.s7"] * 1e3,
            "search.large5_ms": own["search.large5"] * 1e3,
            "search.calls": tr.counts["search.calls"],
            "search.hits": tr.counts["search.hits"],
        }


# ----------------------------------------------------------------------
# fit-oracle

FIT_BOUND = 50


def fit_slice(per_length: int) -> list[list[int]]:
    """About ``per_length`` evenly strided sequences of each length 3..6 with
    entries <= 40, in a fixed shuffled order so every batch mixes lengths."""
    seqs = []
    for length in (3, 4, 5, 6):
        stride = max(1, comb(40, length) // per_length)
        combos = itertools.combinations(range(1, 41), length)
        seqs.extend(list(s) for s in itertools.islice(combos, 0, None, stride))
    random.Random(0).shuffle(seqs)
    return seqs


class FitWorkload:
    """The C4 cross-check: ``solutions_in_box(solve_fit(s), 50)`` against
    ``brute_force_fit(s, 50)``, timed per batch of sequences."""

    trace_repeats = 2
    batch = 5000

    def __init__(self, seed, workdir=None, *, per_length=5_000, random_count=10_000):
        rng = random.Random(seed)
        fixed = fit_slice(per_length)
        seeded = []
        for _ in range(random_count):
            length = rng.randint(3, 9)
            seeded.append(sorted(rng.sample(range(1, 100_001), length)))
        self.fixed = fixed
        self.seqs = fixed + seeded
        self.batches = [(PRIMARY, fixed[i : i + self.batch])
                        for i in range(0, len(fixed), self.batch)]
        self.batches += [(SECONDARY, seeded[i : i + self.batch])
                         for i in range(0, len(seeded), self.batch)]
        self.ops_per_round = len(self.seqs)
        self._first = None  # outputs per batch
        self._later = []  # per round and batch: None where equal to the first round

    def warm(self):
        brute_force_fit([1, 2, 3], FIT_BOUND)

    @staticmethod
    def cross_check(batch):
        out = []
        for s in batch:
            v = solve_fit(s)
            out.append((v.kind, solutions_in_box(v, FIT_BOUND), brute_force_fit(s, FIT_BOUND)))
        return out

    def run_round(self, k, clock):
        # Later rounds are compared batch by batch and not kept when equal,
        # so the benchmark's own memory does not grow with the rounds.
        parts = []
        for i, (key, batch) in enumerate(self.batches):
            part = clock.rate(key, len(batch), self.cross_check, batch)
            parts.append(part if self._first is None or part != self._first[i] else None)
        if self._first is None:
            self._first = parts
        else:
            self._later.append(parts)

    def check(self) -> list[int]:
        """Failed sequences per round."""
        def failed(parts):
            outs = itertools.chain.from_iterable(parts)
            return sum(not self.seq_ok(s, out) for s, out in zip(self.seqs, outs))

        first = failed(self._first)
        return [first] + [
            first if all(p is None for p in parts)
            else failed(f if p is None else p for f, p in zip(self._first, parts))
            for parts in self._later
        ]

    @staticmethod
    def seq_ok(seq, out) -> bool:
        kind, box, grid = out
        if box != grid or not all(ref.satisfies(seq, a, b) for a, b in box):
            return False
        solvable, point = ref.decide(seq)
        if (kind is not FitKind.EMPTY) != solvable:
            return False
        if point is None:
            return True
        inside = abs(point[0]) <= FIT_BOUND and abs(point[1]) <= FIT_BOUND
        return kind is FitKind.POINT and box == ([point] if inside else [])

    def trace_prologue(self, tr):
        pass

    def replay(self, tr):
        """The fixed slice only, so the traced counts repeat exactly."""
        for s in self.fixed:
            v = tr.call("fit.solve", solve_fit, s)
            tr.call("fit.box", solutions_in_box, v, FIT_BOUND)
            tr.call("fit.grid", brute_force_fit, s, FIT_BOUND)
            tr.add("fit.seq_count")
            tr.add(f"fit.kind.{v.kind.value}")

    @staticmethod
    def layer_metrics(tr) -> dict[str, float]:
        own = tr.self_seconds()
        count = tr.counts["fit.seq_count"]
        out = {
            "fit.solve_us_per_seq": own["fit.solve"] * 1e6 / count,
            "fit.box_us_per_seq": own["fit.box"] * 1e6 / count,
            "fit.grid_us_per_seq": own["fit.grid"] * 1e6 / count,
            "fit.seq_count": count,
        }
        for kind in FitKind:
            out[f"fit.kind.{kind.value}"] = tr.counts[f"fit.kind.{kind.value}"]
        return out


WORKLOADS = {
    "range-low": RangeWorkload.low,
    "range-high": RangeWorkload.high,
    "search": SearchWorkload,
    "fit-oracle": FitWorkload,
}


def probes(workdir) -> list:
    """Small fixed instances of each workload kind.  A traced run takes the
    figures of every layer its own workload does not reach from these."""
    return [
        RangeWorkload(2, 3_001, 3_000, (2, 3_001), workdir, sieve=True),
        SearchWorkload(0, p_s7=60, p_l5=30),
        FitWorkload(0, per_length=100, random_count=0),
    ]
