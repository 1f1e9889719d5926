"""What the range scans, the searches and the CLI share: the worker count,
``map_spans``, which maps a worker over the spans of a range, on a fork
pool when one pays, and output files that appear only once complete.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from functools import partial
from itertools import count
from pathlib import Path

from .arith import ContractViolation

__all__ = ["JOBS_ENV", "default_jobs", "map_spans"]

JOBS_ENV = "DIVREC_JOBS"
_SPAN_MAX = 65536  # items in a span: one task of a pool, one block of a scan
_temp_ids = count()  # numbers the temp files of this process


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


def map_spans(worker, lo, stop, jobs, pool_min):
    """``worker(a, b)`` for each span [a, b) of [lo, stop), lo < stop, in order.

    A span per job, at most ``_SPAN_MAX`` items, with ``jobs`` capped at the
    CPUs.  The spans are a ``range`` of their starts: O(1) memory, and no
    len(), which fails past sys.maxsize.  With one job after that cap, one
    span or fewer than ``pool_min`` items this is ``map`` itself; else a fork
    pool of at most that many workers runs them, one span at a time each."""
    if jobs < 1:
        raise ContractViolation("jobs must be >= 1")
    cpus = min(jobs, _available_cpus()) if jobs > 1 else 1  # jobs=1: no system call
    starts = range(lo, stop, min(_SPAN_MAX, -(-(stop - lo) // cpus)))
    span = partial(_run_span, worker, starts)
    if cpus <= 1 or len(starts[:2]) <= 1 or stop - lo < pool_min:
        return map(span, starts)
    return _pool_imap(span, starts, len(starts[:cpus]))


def _run_span(worker, starts: range, a: int):
    """``worker`` on the span of ``starts`` that begins at ``a``."""
    return worker(a, min(a + starts.step, starts.stop))


def _pool_imap(worker, tasks, processes):
    """Pool results in task order, as they come; closing this ends the pool.
    Only a pool needs ``multiprocessing``, so it loads here, not at import."""
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(processes) as pool:
        yield from pool.imap(worker, tasks)


@contextmanager
def _replace_when_done(path, mode="w", **kwargs):
    """Open a temp file beside ``path``; move it onto ``path`` only once the
    block completes, so an interrupted write leaves no partial file.  The
    temp name does not grow with the final one: any name the filesystem takes works."""
    path = Path(path)
    tmp = path.with_name(f".divrec-{os.getpid()}-{next(_temp_ids)}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
