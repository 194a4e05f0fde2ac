"""In-memory spans around the benchmark's calls into linadd.

A span is (name, start, end, parent, job): the parent is the index of the
enclosing span, or -1, and the job is the identifier of the job that made
the call, or None during set-up.  Spans stay in memory while the benchmark
runs and are written out once at the end.  A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """The untraced path: calls go straight through."""

    job = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, job]
        self._stack: list = []
        self.job = None

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def mark(self):
        """Index to pass to `summary` to cover only spans recorded after now."""
        return len(self.spans)

    def summary(self, since: int = 0) -> dict:
        """{name: {"total_s", "self_s", "calls"}} over spans from `since`.
        `total_s` counts only the outermost span of a name, so a recursive
        call is not counted twice."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans[since:]:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i in range(since, len(spans)):
            name, start, end, parent, _ = spans[i]
            row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            dur = end - start
            row["calls"] += 1
            row["self_s"] += dur - child_time[i]
            if not self._inside(parent, name):
                row["total_s"] += dur
        return out

    def _inside(self, i: int, name: str) -> bool:
        while i >= 0:
            if self.spans[i][0] == name:
                return True
            i = self.spans[i][3]
        return False

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, f)
