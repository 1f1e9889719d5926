"""What the range scans, the searches and the CLI share: the worker count,
the fork pool that maps a worker over tasks (``multiprocessing`` loads when
the first pool starts), and output files that appear only once complete.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path

from .arith import ContractViolation

__all__ = ["JOBS_ENV", "default_jobs"]

JOBS_ENV = "DIVREC_JOBS"


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
    Only slices of ``tasks`` are measured: a ``range`` past sys.maxsize has no len.
    """
    if jobs <= 1 or len(tasks[:2]) <= 1:
        return map(worker, tasks)
    return _pool_imap(worker, tasks, len(tasks[:_cpu_jobs(jobs)]))


def _cpu_jobs(jobs: int) -> int:
    """``jobs``, capped at the CPUs this process may use."""
    return min(jobs, _available_cpus())


def _pool_imap(worker, tasks, processes):
    """Pool results in task order, as they come; closing this ends the pool."""
    with get_context("fork").Pool(processes) as pool:
        yield from pool.imap(worker, tasks)


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
