"""Spans and counters recorded by the benchmark around calls into karpelevic.

The program itself carries no tracing: every span is opened here, in the
benchmark's own files, around one call into a module's public function.
A span is (name, start_ns, end_ns, parent, tag), where parent is the
index of the enclosing span (the operation that caused the call) or -1.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

OP = "op"


class NullTracer:
    """Untraced runs: calls pass straight through and nothing is kept."""

    def call(self, name, fn, *args, tag=None):
        return fn(*args)

    def op(self, name, fn):
        """Run fn() as one operation: (result, exception or None, duration in ns)."""
        start = perf_counter_ns()
        try:
            result, error = fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        return result, error, perf_counter_ns() - start

    def count(self, name, k=1):
        pass


class Tracer:
    """Traced runs: one span per call, plus work counters by name."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._current = -1

    def call(self, name, fn, *args, tag=None):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent, self._current = self._current, idx
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            spans[idx] = (name, start, perf_counter_ns(), parent, tag)
            self._current = parent

    def op(self, name, fn):
        """As NullTracer.op, and the operation is recorded as a span."""
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent, self._current = self._current, idx
        start = perf_counter_ns()
        try:
            result, error = fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        end = perf_counter_ns()
        spans[idx] = (name, start, end, parent, None)
        self._current = parent
        return result, error, end - start

    def count(self, name, k=1):
        self.counts[name] += k

    def layer_totals(self, timed_start_ns: int, timed_end_ns: int) -> dict:
        """Self time (ms) and calls per span name, and per name.type-<tag>.

        Self time is a span's duration minus the time its child spans
        cover.  Also returns the share of the timed window covered by layer
        self time (operation spans excluded) and the operations' own self
        time, which is benchmark glue.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        covered = glue = 0
        for idx, (name, start, end, parent, tag) in enumerate(self.spans):
            own = end - start - child_ns[idx]
            timed = start >= timed_start_ns and end <= timed_end_ns
            if name == OP:
                glue += own if timed else 0
                continue
            self_ns[name] += own
            calls[name] += 1
            if tag is not None:
                self_ns[f"{name}.type-{tag}"] += own
            if timed:
                covered += own
        window = max(timed_end_ns - timed_start_ns, 1)
        return {
            "ms": {k: v / 1e6 for k, v in self_ns.items()},
            "calls": dict(calls),
            "coverage": covered / window,
            "glue_ms": glue / 1e6,
        }

    def write(self, path, header: str) -> None:
        """Write the spans as CSV after one '#'-prefixed header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("name,start_ns,end_ns,parent,tag\n")
            for name, start, end, parent, tag in self.spans:
                fh.write(f"{name},{start},{end},{parent},{'' if tag is None else tag}\n")
