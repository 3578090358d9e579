"""Spans recorded by the benchmark around its own calls into each layer.

A span is (name, start, end, parent index, job id).  Spans are kept in
memory and written out when the run ends.  Untraced runs use
:class:`NoTrace`, whose ``call`` is a plain call.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class NoTrace:
    job = None

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def count(self, name, n=1):
        self.counts[name] += n

    def layer_times(self, scale) -> dict:
        """name -> (calls, total self seconds, list of durations).  Self
        time is a span's duration minus the union of its children; each
        is multiplied by scale(start, job) (see clock.py)."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict = {}
        for index, (name, start, end, _, job) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get(index, ())):
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            k = scale(start, job)
            calls, busy, durations = out.get(name, (0, 0.0, []))
            durations.append((end - start) * k)
            out[name] = (calls + 1, busy + ((end - start) - covered) * k, durations)
        return out

    def write(self, path):
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            json.dump(
                {"fields": keys, "spans": self.spans, "counts": self.counts},
                fh,
            )
