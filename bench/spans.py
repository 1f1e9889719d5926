"""In-memory spans around calls into divrec, for the benchmark's traced run.

A span is (name, start, end, parent).  Spans are kept in flat lists while
the run lasts and written out as JSON lines when it ends.  A layer's self
time is the total duration of its spans minus the part their child spans
cover.  ``NullTracer`` makes the same calls with nothing recorded, so the
difference between the two is the cost of tracing.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = perf_counter()
            self.starts[sid] = start
            self._stack.pop()

    def add(self, key: str, k: int = 1) -> None:
        self.counts[key] += k

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[sid]
        out: dict[str, float] = {}
        for name, t in zip(self.names, own):
            out[name] = out.get(name, 0.0) + t
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                name, start, end, parent = row
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key: str, k: int = 1) -> None:
        pass
