"""Command-line surface: classify, oracle, validate, search, tau-check.

Each command computes its result once and returns it in every format:
``(exit code, JSON objects, CSV rows, text lines)``, the CSV header first;
``oracle``'s lines are a generator, so that only text renders its grids.
``main`` prints the one that ``--format`` asks for: each object as one
line of canonical JSON, the rows through ``csv.writer``, or the lines as
they are; ``tau-check`` has no ``--format`` and always prints text.

Exit codes: 0 success; 1 usage or contract violation; 2 when a range
check finds a disagreement outside the documented errata (the CI signal).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from .arith import CapacityError, ContractViolation, factorize
from .check import canonical_json
from .classify import classify_large, classify_small, verify_prediction
from .fit import FitVerdict, brute_force_fit
from .oracle import verdict_for_sequence
from .profiles import profile

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


@lru_cache(maxsize=1)  # one parser per process: building it costs ten parses
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
    _add_format(p)

    for name, form in (("search-s7", "exceptional p^2*q*r small"),
                       ("search-large5", "conditional p^4*q large")):
        p = sub.add_parser(name, help=f"search the {form} form")
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


def _verdict_payload(n: int, prof) -> dict:
    """n, both strict sets and both oracle verdicts: what ``oracle`` reports
    and ``classify`` extends."""
    return {
        "n": n,
        "small_divisors": list(prof.small_strict),
        "large_divisors": list(prof.large_strict),
        "small": _verdict_dict(verdict_for_sequence(prof.small_strict)),
        "large": _verdict_dict(verdict_for_sequence(prof.large_strict)),
    }


def _side_text(payload, side) -> str:
    """The set line and the verdict line of one side of a payload."""
    divs, v = payload[f"{side}_divisors"], payload[side]
    status = "vacuously recurrent" if v["vacuous"] else (
        "recurrent" if v["recurrent"] else "not recurrent")
    if v["witness"]:
        a, b = v["witness"]
        status += f"  => U({divs[0]}, {divs[1]}, {a}, {b})"
    return f"{'S' if side == 'small' else 'L'}' = {divs}\n  {status}"


def _fit_text(fit: dict) -> str:
    if "point" in fit:
        return f"point{tuple(fit['point'])}"
    if "line_base" in fit:
        return f"line base={tuple(fit['line_base'])} dir={tuple(fit['line_dir'])}"
    return fit["kind"]


def _table(row: dict) -> list:
    """One CSV row under its header."""
    return [list(row), list(row.values())]


def _flat(value):
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return value


# ----------------------------------------------------------------------
# command implementations


def _check_n(n: int) -> None:
    if n < 2:
        raise ContractViolation("n must be >= 2")


def _check_range(args) -> None:
    if args.lo < 2:
        raise ContractViolation("--from must be >= 2")
    if args.hi < args.lo:
        raise ContractViolation("--to must be >= --from")


def _jobs(args) -> int:
    """``--jobs``, or the default worker count when it is not given."""
    if args.jobs is None:
        from .runner import default_jobs
        return default_jobs()
    if args.jobs < 1:
        raise ContractViolation("--jobs must be >= 1")
    return args.jobs


def _cmd_classify(args):
    n = args.n
    _check_n(n)
    fac = factorize(n)
    prof = profile(n, fac=fac)
    sm, lm = classify_small(n, fac=fac), classify_large(n, fac=fac)
    payload = {
        **_verdict_payload(n, prof),
        "factorization": [list(pair) for pair in fac.factors],
        "tau": prof.tau,
        "is_square": prof.is_square,
        "small_forms": [_match_dict(m) for m in sm],
        "large_forms": [_match_dict(m) for m in lm],
        "prediction_ok": all(verify_prediction(m, prof) for m in (*sm, *lm)),
    }
    row = {
        "n": n,
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
    fac_text = " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in fac.factors)
    lines = [f"n = {n} = {fac_text}",
             f"tau = {payload['tau']}  square = {'yes' if payload['is_square'] else 'no'}"]
    for side in ("small", "large"):
        lines.append(_side_text(payload, side))
        for m in payload[f"{side}_forms"]:
            params = " ".join(f"{k}={v}" for k, v in sorted(m["params"].items()))
            line = f"  form {m['form_id']} [{params}]"
            if m["predicted_set"] is not None:
                line += f" predicts {m['predicted_set']}"
            if m["predicted_u"] is not None:
                u = m["predicted_u"]
                line += f" via U({u[0]}, {u[1]}, {u[2]}, {u[3]})"
            lines.append(line)
    lines.append(f"prediction_ok = {payload['prediction_ok']}")
    return 0, [payload], _table(row), lines


def _cmd_oracle(args):
    if args.bound is not None and not 1 <= args.bound <= _MAX_GRID_BOUND:
        raise ContractViolation(f"--bound must be in [1, {_MAX_GRID_BOUND}]")
    n = args.n
    _check_n(n)
    payload = _verdict_payload(n, profile(n, fac=factorize(n)))
    if args.bound is not None:
        payload["grid_bound"] = args.bound
    row = {"n": n}
    for side in ("small", "large"):
        divs, v = payload[f"{side}_divisors"], payload[side]
        if args.bound is not None:
            payload[f"{side}_grid"] = [list(p) for p in brute_force_fit(divs, args.bound)]
        row[f"{side}_divisors"] = _flat(divs)
        row[f"{side}_recurrent"] = v["recurrent"]
        row[f"{side}_vacuous"] = v["vacuous"]
        row[f"{side}_witness"] = _flat(v["witness"])  # csv writes None as ""

    def lines():  # a generator: a grid at bound 300 takes 0.13 s to print as text
        for side in ("small", "large"):
            yield f"{_side_text(payload, side)}  [{_fit_text(payload[side]['fit'])}]"
            if args.bound is not None:
                yield f"  grid |a|,|b| <= {args.bound}: {payload[f'{side}_grid']}"

    return 0, [payload], _table(row), lines()


def _check_out_dir(*paths):
    # fail before any work, not when the finished run opens the file
    for path in map(Path, paths):
        try:
            if not path.parent.is_dir():
                raise ContractViolation(f"--out directory {path.parent} does not exist")
            if path.is_dir():
                raise ContractViolation(f"output path {path} is a directory")
            # the finished run renames its file over the path: never over a
            # FIFO, a socket or a device node
            if path.exists() and not path.is_file():
                raise ContractViolation(f"output path {path} is not a regular file")
        except OSError as exc:  # a name too long, say: refused by the filesystem
            raise ContractViolation(f"output path {path}: {exc.strerror}") from None


def _cmd_validate(args):
    # divrec.harness is loaded only by the commands that scan a range
    from .harness import append_ledger, ledger_keys, split_errata, validate_range
    from .runner import _replace_when_done

    _check_range(args)
    jobs = _jobs(args)
    if args.out is not None:
        base = args.out[:-6] if args.out.endswith(".jsonl") else args.out
        summary_path, ledger_path = f"{base}.summary.csv", f"{base}.errata.jsonl"
        _check_out_dir(args.out, summary_path, ledger_path)
        ledger_keys(ledger_path)  # reject a malformed ledger before any output
    summary, errata = validate_range(args.lo, args.hi, jobs=jobs, report_path=args.out)
    documented, violations = split_errata(errata)
    report = {
        "summary": summary._asdict(),
        "errata": [e._asdict() for e in errata],
        "documented": len(documented),
        "violations": [e._asdict() for e in violations],
    }
    s = summary
    lines = [
        f"range [{s.range_lo}, {s.range_hi}]",
        f"small: recurrent {s.count_small_recurrent} "
        f"(vacuous {s.count_small_vacuous}), errata {s.errata_small}",
        f"large: recurrent {s.count_large_recurrent} "
        f"(vacuous {s.count_large_vacuous}), errata {s.errata_large}",
        f"documented errata: {len(documented)}, violations: {len(violations)}",
        *(f"  VIOLATION n={e.n} {e.theorem} {e.kind}: {e.detail}" for e in violations),
    ]
    rows = _table(report["summary"])
    if args.out is not None:  # the report is written; then the summary, then the ledger
        import csv
        with _replace_when_done(summary_path, newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow(row)
        append_ledger(ledger_path, errata)
    return 2 if violations else 0, [report], rows, lines


def _cmd_search(args):
    from dataclasses import asdict, fields  # loaded with divrec.search already
    # divrec.search is loaded only by the commands that run a search
    from .runner import _replace_when_done
    from .search import L5Pair, S7Triple, search_large5, search_s7

    if args.pmax < 2:
        raise ContractViolation("--pmax must be >= 2")
    search_fn, hit_type = {"search-s7": (search_s7, S7Triple),
                           "search-large5": (search_large5, L5Pair)}[args.command]
    order = [f.name for f in fields(hit_type)]
    jobs = _jobs(args)
    if args.out is not None:
        _check_out_dir(args.out)
    records = [asdict(h) for h in search_fn(args.pmax, jobs=jobs)]
    if args.out is not None:
        with _replace_when_done(args.out) as fh:
            fh.writelines(canonical_json(rec) + "\n" for rec in records)
    lines = [" ".join(f"{c}={v}" for c, v in rec.items()) for rec in records]
    return 0, records, [order, *(list(rec.values()) for rec in records)], lines or ["no hits"]


def _cmd_tau_check(args):
    from .harness import profile_sweep_failures

    _check_range(args)
    jobs = _jobs(args)
    tau_bad, reflect_bad = profile_sweep_failures(args.lo, args.hi, jobs=jobs)
    lines = [f"range [{args.lo}, {args.hi}]: {len(tau_bad)} tau-identity failures, "
             f"{len(reflect_bad)} reflection failures",
             *(f"  tau identity fails at n={n}" for n in tau_bad[:20]),
             *(f"  reflection fails at n={n}" for n in reflect_bad[:20])]
    return 2 if tau_bad or reflect_bad else 0, None, None, lines


_COMMANDS = {
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "validate": _cmd_validate,
    "search-s7": _cmd_search,
    "search-large5": _cmd_search,
    "tau-check": _cmd_tau_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, objects, rows, lines = _COMMANDS[args.command](args)
    except (ContractViolation, CapacityError) as exc:
        print(f"divrec: error: {exc}", file=sys.stderr)
        return 1
    fmt = getattr(args, "format", "text")  # tau-check has no --format
    if fmt == "json":
        for obj in objects:
            print(canonical_json(obj))
    elif fmt == "csv":
        import csv  # only --format csv needs it
        csv.writer(sys.stdout).writerows(rows)
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
