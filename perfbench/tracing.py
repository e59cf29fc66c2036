"""In-memory spans around the benchmark's calls into the package's layers.

A span is (op_id, name, start_ns, end_ns, parent); ``parent`` is the index
of the enclosing span, or -1.  Spans are kept in a list while the run goes
and written out once, when it ends.  Self time of a span is its duration
minus the part its direct children cover; spans of one process never
overlap except by nesting, so that part is the sum of the children.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("theta", "algebra", "traces", "lattice", "realization", "loops", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (self.op_id, name, start, end, parent)

        return traced

    def add(self, name: str, start: int, end: int, parent=None) -> int:
        """Record a span measured elsewhere (a child process); by default under the open span."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append((self.op_id, name, start, end, parent))
        return len(self.spans) - 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def summarize(spans: list, op_ns: int) -> dict:
    """Per-function calls / p50 / self time, and each layer's share of op time.

    Functions are named ``<layer>.<fn>``; ops are root spans named ``op``,
    and ``op_ns`` is their summed duration.  Calls made outside an op (the
    untimed output checks) count towards calls, p50 and self time but not
    towards a layer's share of op time.
    """
    child_ns = defaultdict(int)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations, self_ns, layer_ns = defaultdict(list), defaultdict(int), defaultdict(int)
    for idx, (_, name, start, end, parent) in enumerate(spans):
        own = end - start - child_ns[idx]
        durations[name].append(end - start)
        self_ns[name] += own
        if parent >= 0:
            layer_ns[name.split(".", 1)[0]] += own
    functions = {name: {"calls": len(ds), "p50_ns": statistics.median(ds), "self_ns": self_ns[name]}
                 for name, ds in durations.items()}
    shares = {layer: layer_ns[layer] / op_ns if op_ns else 0.0 for layer in LAYERS}
    return {"functions": functions, "self_share": shares}
