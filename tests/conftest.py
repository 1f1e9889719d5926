import multiprocessing

import pytest

from divrec import runner


class _PoolLog(list):
    """The pool sizes requested, in order; ``tasks`` holds the number of
    tasks each pool was given, and ``maps`` its (worker, tasks) pair."""

    def __init__(self):
        super().__init__()
        self.tasks = []
        self.maps = []


class _SerialPool:
    """Stands in for a fork pool: runs the tasks here, in order."""

    def __init__(self, log):
        self.log = log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, worker, tasks):
        self.log.tasks.append(len(tasks))
        self.log.maps.append((worker, tasks))
        return map(worker, tasks)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Call with a CPU count; returns the ``_PoolLog`` of the pools that
    ``runner.map_spans`` then requests.  No process is started."""

    def install(cpus):
        sizes = _PoolLog()

        class Context:
            @staticmethod
            def Pool(processes):
                sizes.append(processes)
                return _SerialPool(sizes)

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
        monkeypatch.setattr(runner, "_available_cpus", lambda: cpus)
        return sizes

    return install
