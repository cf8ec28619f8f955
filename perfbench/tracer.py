"""In-memory spans around the benchmark's calls into the uwdae layers.

A span records (name, start, end, parent, op, peak_mb, failed).  The
layer is the part of the name before the first dot.  Spans are kept in a
list and written out once, when the run ends.  With tracing off,
``span`` returns one shared no-op context, so the timed path pays for a
method call only.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc
from collections import defaultdict

_OFF = contextlib.nullcontext()

NAME, START, END, PARENT, OP, PEAK_MB, FAILED = range(7)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None  # id of the operation the next spans belong to
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, memory: bool = False):
        """Time the block; with ``memory`` also record its tracemalloc peak.

        A memory span's time is inflated by tracemalloc, so it is kept out
        of the timing medians.
        """
        if not self.enabled:
            return _OFF
        return self._span(name, memory)

    @contextlib.contextmanager
    def _span(self, name, memory):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if memory:
            tracemalloc.start()
        rec[START] = time.perf_counter()
        try:
            yield
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            if memory:
                rec[PEAK_MB] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()

    def durations(self) -> dict[str, list[float]]:
        """Durations of the timed (non-memory) spans, by name."""
        out = defaultdict(list)
        for s in self.spans:
            if s[PEAK_MB] is None:
                out[s[NAME]].append(s[END] - s[START])
        return out

    def peaks(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            if s[PEAK_MB] is not None:
                out[s[NAME]] = max(out.get(s[NAME], 0.0), s[PEAK_MB])
        return out

    def failures(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name and s[FAILED])

    def self_time_per_op(self, root: str, layers) -> dict[str, float]:
        """Mean self time per ``root`` span, by layer, over spans under it.

        A span's self time is its duration minus the time its children
        cover; children run one after another, so their durations add.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        roots = {i for i, s in enumerate(self.spans) if s[NAME] == root}
        acc = dict.fromkeys(layers, 0.0)
        for i, s in enumerate(self.spans):
            top = i
            while self.spans[top][PARENT] is not None:
                top = self.spans[top][PARENT]
            layer = s[NAME].split(".")[0]
            if top in roots and layer in acc:
                acc[layer] += s[END] - s[START] - child[i]
        return {k: v / max(len(roots), 1) for k, v in acc.items()}

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "peak_mb", "failed")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def median_or_zero(values) -> float:
    """Median of the samples; 0 when the workload never made the call."""
    return statistics.median(values) if values else 0.0
