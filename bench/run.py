"""Benchmark for divrec: end-to-end throughput and set-up time, or per-layer figures.

    python3 bench/run.py --workload range-low --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it imports the package
from ``src/`` and writes only under ``.bench_work/``.  It repeats whole
rounds of the workload's operations for ``--seconds``, checks every
output against ``reference.py``, and prints one JSON object as its last
line.  With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``; with ``--trace 1`` they are the ``per_layer`` ones,
from a replay of the same calls through a span recorder (``spans.py``).
See README.md for the workloads, the metrics and how they were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from clock import Clock
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 6  # before the timed loop, and as many again after it
# A fresh interpreter imports the package and makes one small public call,
# which pays for the numpy import and the lazy trial-prime table.
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import divrec\n"
    "divrec.check_single(60)\n"
    "print(time.perf_counter() - t)\n"
)


def setup_seconds(clock, reps: int) -> list[float]:
    """Set-up times at reference speed (see clock.py)."""
    times = []
    for _ in range(reps):
        before = clock.calibrate()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        took = float(done.stdout.split()[-1])
        clock.raw["setup_s"].append(took)
        times.append(clock.scaled(took, before))
    return times


def peak_rss_mib() -> float:
    """Largest resident set so far of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def traced_metrics(wl, workdir, spans_path) -> dict[str, float]:
    """Per-layer figures: the workload's replay through a span recorder,
    and the layers it does not reach from small fixed probes."""
    import workloads

    metrics: dict[str, float] = {}
    for probe in workloads.probes(workdir):
        tr = Tracer()
        probe.trace_prologue(tr)
        probe.replay(tr)
        metrics.update(probe.layer_metrics(tr))

    tr = Tracer()
    wl.trace_prologue(tr)
    plain, traced = [], []
    for i in range(wl.trace_repeats):
        start = perf_counter()
        wl.replay(NullTracer())
        plain.append(perf_counter() - start)
        start = perf_counter()
        wl.replay(tr if i == 0 else Tracer())
        traced.append(perf_counter() - start)
    tr.write(spans_path)
    metrics.update(wl.layer_metrics(tr))
    base = statistics.median(plain)
    metrics["trace.overhead_pct"] = 100 * (statistics.median(traced) - base) / base
    return metrics


def run(args, spec, workdir) -> dict:
    import divrec
    if Path(divrec.__file__).resolve().parent != SRC / "divrec":
        raise SystemExit(f"divrec was imported from {divrec.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    clock = Clock()
    setup_reps = 0 if args.trace else SETUP_REPS
    setup = setup_seconds(clock, setup_reps)
    wl.warm()
    # Whole rounds, and no round that would likely end past --seconds.
    rounds = 0
    start = perf_counter()
    while True:
        began = perf_counter()
        wl.run_round(rounds, clock)
        rounds += 1
        now = perf_counter()
        if now - start + (now - began) > args.seconds:
            break
    setup += setup_seconds(clock, setup_reps)
    peak = peak_rss_mib()  # before the checks, whose reference data is not the program's
    failed = sum(wl.check())

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        values = traced_metrics(wl, workdir, spans_path)
    else:
        values = {name: statistics.median(v) for name, v in clock.samples.items()}
        values.update(setup_s=statistics.median(setup), peak_rss_mib=peak)
        raw = {name: round(statistics.median(v), 4) for name, v in clock.raw.items()}
        print(f"unscaled medians: {raw}", file=sys.stderr)
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(values)} differ from BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": rounds * wl.ops_per_round,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="divrec benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("range-low", "range-high", "search", "fit-oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "divrec" / "__init__.py").is_file():
        print(f"no divrec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    # validate_range stages its parts in a temporary directory; keep it here
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    try:
        result = run(args, spec, Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
