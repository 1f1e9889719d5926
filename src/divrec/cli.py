"""Command-line surface: classify, oracle, validate, search, tau-check.

Exit codes: 0 success; 1 usage or contract violation; 2 when a range
check finds a non-allowlisted disagreement (the CI signal).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import asdict
from pathlib import Path

from .arith import CapacityError, ContractViolation, factorize
from .classify import classify_large, classify_small, verify_prediction
from .fit import FitVerdict, brute_force_fit
from .harness import (
    append_ledger,
    canonical_json,
    default_jobs,
    erratum_record,
    ledger_keys,
    load_allowlist,
    profile_sweep_failures,
    split_errata,
    validate_range,
    write_summary_csv,
)
from .oracle import verdict_for_sequence
from .profiles import profile
from .search import search_large5, search_s7

__all__ = ["main"]

# The oracle grid of a vacuous set lists all (2*bound + 1)^2 points.
_MAX_GRID_BOUND = 300


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_format(p):
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divrec",
        description="order-two recurrences in nontrivial divisor sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="profile, verdicts and form matches for one n")
    p.add_argument("n", type=int)
    _add_format(p)

    p = sub.add_parser("oracle", help="brute-force recurrence verdicts for one n")
    p.add_argument("n", type=int)
    p.add_argument("--bound", type=int, default=None,
                   help="also scan the |a|,|b| <= bound grid on both sets "
                        f"(1 to {_MAX_GRID_BOUND})")
    _add_format(p)

    p = sub.add_parser("validate", help="cross-validate a range against the forms")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="write the JSONL report here (plus .summary.csv and .errata.jsonl)")
    p.add_argument("--allowlist", default=None,
                   help="allowlist JSON path (default: the packaged one)")
    _add_format(p)

    p = sub.add_parser("search-s7", help="search the exceptional p^2*q*r small form")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None, help="write hits as JSONL")
    _add_format(p)

    p = sub.add_parser("search-large5", help="search the conditional p^4*q large form")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None, help="write hits as JSONL")
    _add_format(p)

    p = sub.add_parser("tau-check", help="divisor-count identity sweep over a range")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None)

    return parser


# ----------------------------------------------------------------------
# payload builders


def _fit_dict(fit: FitVerdict) -> dict:
    out = {"kind": fit.kind.value}
    if fit.point is not None:
        out["point"] = list(fit.point)
    if fit.line_base is not None:
        out["line_base"] = list(fit.line_base)
        out["line_dir"] = list(fit.line_dir)
    return out


def _verdict_dict(v) -> dict:
    return {
        "recurrent": v.recurrent,
        "vacuous": v.vacuous,
        "fit": _fit_dict(v.fit),
        "witness": list(v.witness) if v.witness is not None else None,
    }


def _match_dict(m) -> dict:
    return {
        "theorem": m.theorem,
        "form_id": m.form_id,
        "params": dict(m.params),
        "predicted_set": list(m.predicted_set) if m.predicted_set is not None else None,
        "predicted_u": list(m.predicted_u) if m.predicted_u is not None else None,
    }


def _verdicts(prof):
    return verdict_for_sequence(prof.small_strict), verdict_for_sequence(prof.large_strict)


def _classify_payload(n: int) -> dict:
    fac = factorize(n)
    prof = profile(n, fac=fac)
    sv, lv = _verdicts(prof)
    sm, lm = classify_small(n, fac=fac), classify_large(n, fac=fac)
    return {
        "n": n,
        "factorization": [list(pair) for pair in fac.factors],
        "tau": prof.tau,
        "is_square": prof.is_square,
        "small_divisors": list(prof.small_strict),
        "large_divisors": list(prof.large_strict),
        "small": _verdict_dict(sv),
        "large": _verdict_dict(lv),
        "small_forms": [_match_dict(m) for m in sm],
        "large_forms": [_match_dict(m) for m in lm],
        "prediction_ok": all(
            verify_prediction(m, prof) for m in (*sm, *lm)
        ),
    }


def _u_string(seq, witness) -> str:
    if witness is None or len(seq) < 2:
        return ""
    a, b = witness
    return f"  => U({seq[0]}, {seq[1]}, {a}, {b})"


def _fac_string(factors) -> str:
    return " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in factors)


def _print_classify_text(payload, out):
    print(f"n = {payload['n']} = {_fac_string(payload['factorization'])}", file=out)
    print(f"tau = {payload['tau']}  square = {'yes' if payload['is_square'] else 'no'}",
          file=out)
    for side, label in (("small", "S'"), ("large", "L'")):
        divs = payload[f"{side}_divisors"]
        v = payload[side]
        status = "vacuously recurrent" if v["vacuous"] else (
            "recurrent" if v["recurrent"] else "not recurrent")
        witness = tuple(v["witness"]) if v["witness"] else None
        print(f"{label} = {divs}", file=out)
        print(f"  {status}{_u_string(divs, witness)}", file=out)
        for m in payload[f"{side}_forms"]:
            params = " ".join(f"{k}={v}" for k, v in sorted(m["params"].items()))
            line = f"  form {m['form_id']} [{params}]"
            if m["predicted_set"] is not None:
                line += f" predicts {m['predicted_set']}"
            if m["predicted_u"] is not None:
                u = m["predicted_u"]
                line += f" via U({u[0]}, {u[1]}, {u[2]}, {u[3]})"
            print(line, file=out)
    print(f"prediction_ok = {payload['prediction_ok']}", file=out)


def _csv_row(payload, columns, out):
    writer = csv.writer(out)
    writer.writerow(columns)
    writer.writerow([payload[c] for c in columns])


def _flat(value):
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return value


# ----------------------------------------------------------------------
# command implementations


def _cmd_classify(args) -> int:
    payload = _classify_payload(args.n)
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        flat = {
            "n": payload["n"],
            "factorization": ";".join(f"{p}^{e}" for p, e in payload["factorization"]),
            "tau": payload["tau"],
            "is_square": payload["is_square"],
            "small_divisors": _flat(payload["small_divisors"]),
            "large_divisors": _flat(payload["large_divisors"]),
            "small_recurrent": payload["small"]["recurrent"],
            "small_forms": _flat([m["form_id"] for m in payload["small_forms"]]),
            "large_recurrent": payload["large"]["recurrent"],
            "large_forms": _flat([m["form_id"] for m in payload["large_forms"]]),
            "prediction_ok": payload["prediction_ok"],
        }
        _csv_row(flat, list(flat), sys.stdout)
    else:
        _print_classify_text(payload, sys.stdout)
    return 0


def _cmd_oracle(args) -> int:
    if args.bound is not None and not 1 <= args.bound <= _MAX_GRID_BOUND:
        raise ContractViolation(f"--bound must be in [1, {_MAX_GRID_BOUND}]")
    n = args.n
    prof = profile(n, fac=factorize(n))
    sv, lv = _verdicts(prof)
    payload = {
        "n": n,
        "small_divisors": list(prof.small_strict),
        "large_divisors": list(prof.large_strict),
        "small": _verdict_dict(sv),
        "large": _verdict_dict(lv),
    }
    if args.bound is not None:
        payload["grid_bound"] = args.bound
        payload["small_grid"] = [list(p) for p in
                                 brute_force_fit(list(prof.small_strict), args.bound)]
        payload["large_grid"] = [list(p) for p in
                                 brute_force_fit(list(prof.large_strict), args.bound)]
    if args.format == "json":
        print(canonical_json(payload))
    elif args.format == "csv":
        flat = {
            "n": n,
            "small_divisors": _flat(payload["small_divisors"]),
            "small_recurrent": sv.recurrent,
            "small_vacuous": sv.vacuous,
            "small_witness": _flat(list(sv.witness)) if sv.witness else "",
            "large_divisors": _flat(payload["large_divisors"]),
            "large_recurrent": lv.recurrent,
            "large_vacuous": lv.vacuous,
            "large_witness": _flat(list(lv.witness)) if lv.witness else "",
        }
        _csv_row(flat, list(flat), sys.stdout)
    else:
        for side, label, v in (("small", "S'", sv), ("large", "L'", lv)):
            divs = payload[f"{side}_divisors"]
            status = "vacuously recurrent" if v.vacuous else (
                "recurrent" if v.recurrent else "not recurrent")
            print(f"{label} = {divs}")
            print(f"  {status}{_u_string(divs, v.witness)}  [{v.fit}]")
            if args.bound is not None:
                print(f"  grid |a|,|b| <= {args.bound}: {payload[f'{side}_grid']}")
    return 0


def _check_out_dir(out):
    # fail before any work, not when the finished run opens the file
    parent = Path(out).parent
    if not parent.is_dir():
        raise ContractViolation(f"--out directory {parent} does not exist")


def _report_paths(out):
    base = out[:-6] if out.endswith(".jsonl") else out
    return f"{base}.summary.csv", f"{base}.errata.jsonl"


def _cmd_validate(args) -> int:
    jobs = args.jobs if args.jobs is not None else default_jobs()
    allowlist = load_allowlist(args.allowlist)
    if args.out:
        _check_out_dir(args.out)
        summary_path, ledger_path = _report_paths(args.out)
        ledger_keys(ledger_path)  # reject a malformed ledger before any output
    summary, errata = validate_range(args.lo, args.hi, jobs=jobs,
                                     report_path=args.out)
    documented, violations = split_errata(errata, allowlist)

    if args.out:
        write_summary_csv(summary_path, summary)
        append_ledger(ledger_path, errata)

    if args.format == "json":
        print(canonical_json({
            "summary": asdict(summary),
            "errata": [erratum_record(e) for e in errata],
            "documented": len(documented),
            "violations": [erratum_record(e) for e in violations],
        }))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        cols = list(asdict(summary))
        writer.writerow(cols)
        writer.writerow([getattr(summary, c) for c in cols])
        sys.stdout.write(buf.getvalue())
    else:
        s = summary
        print(f"range [{s.range_lo}, {s.range_hi}]")
        print(f"small: recurrent {s.count_small_recurrent} "
              f"(vacuous {s.count_small_vacuous}), errata {s.errata_small}")
        print(f"large: recurrent {s.count_large_recurrent} "
              f"(vacuous {s.count_large_vacuous}), errata {s.errata_large}")
        print(f"documented errata: {len(documented)}, violations: {len(violations)}")
        for e in violations:
            print(f"  VIOLATION n={e.n} {e.theorem} {e.kind}: {e.detail}")
    return 2 if violations else 0


def _search_common(args, runner, order):
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if args.out:
        _check_out_dir(args.out)
    hits = runner(args.pmax, jobs=jobs)
    records = [asdict(h) for h in hits]
    if args.out:
        with open(args.out, "w") as fh:
            for rec in records:
                fh.write(canonical_json(rec) + "\n")
    if args.format == "json":
        for rec in records:
            print(canonical_json(rec))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(order)
        for rec in records:
            writer.writerow([rec[c] for c in order])
    else:
        if not records:
            print("no hits")
        for rec in records:
            fields = " ".join(f"{c}={rec[c]}" for c in order)
            print(fields)
    return 0


def _cmd_search_s7(args) -> int:
    return _search_common(
        args, search_s7, ["p", "q", "r", "n", "a", "b", "oracle_confirmed"]
    )


def _cmd_search_large5(args) -> int:
    return _search_common(
        args, search_large5, ["p", "q", "n", "oracle_confirmed"]
    )


def _cmd_tau_check(args) -> int:
    jobs = args.jobs if args.jobs is not None else default_jobs()
    tau_bad, reflect_bad = profile_sweep_failures(args.lo, args.hi, jobs=jobs)
    print(f"range [{args.lo}, {args.hi}]: "
          f"{len(tau_bad)} tau-identity failures, "
          f"{len(reflect_bad)} reflection failures")
    for n in tau_bad[:20]:
        print(f"  tau identity fails at n={n}")
    for n in reflect_bad[:20]:
        print(f"  reflection fails at n={n}")
    return 2 if tau_bad or reflect_bad else 0


_COMMANDS = {
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
    "search-s7": _cmd_search_s7,
    "search-large5": _cmd_search_large5,
    "tau-check": _cmd_tau_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ContractViolation, CapacityError) as exc:
        print(f"divrec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
