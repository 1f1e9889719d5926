import pytest

from divrec import harness


class _SerialPool:
    """Stands in for a fork pool: runs the tasks here, in order."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, worker, tasks, chunksize=None):
        return [worker(t) for t in tasks]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Call with a CPU count; returns the list of pool sizes that
    ``harness._parallel_map`` then requests.  No process is started."""

    def install(cpus):
        sizes = []

        class Context:
            @staticmethod
            def Pool(processes):
                sizes.append(processes)
                return _SerialPool()

        monkeypatch.setattr(harness, "get_context", lambda method: Context)
        monkeypatch.setattr(harness, "_available_cpus", lambda: cpus)
        return sizes

    return install
