"""Span recording around the library's layer boundaries, from outside the library.

The run loops look their kernels up as module-level names (``diht`` calls
``loss_gradient`` through its own module globals, the harness calls
``cbdiht_mod.run_cbdiht``, and so on).  For a traced pass the benchmark
rebinds those names to wrappers that record a span per call, and restores
them afterwards, so the library itself is never edited and untraced passes
run the original functions.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent_index]`` lists."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def installed(self, targets):
        """Rebind ``(module, attribute, span name)`` targets for the block."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict:
        """Per span name: ``(calls, self seconds)``.

        A span's self time is its duration minus the durations of its
        direct children; children never outlive their parent here because
        every span is closed on the way out of a call.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child_time[i])
        return out

    def dump(self, path: str, header: dict) -> None:
        """Write the spans, with times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({**header, "columns": ["name", "start_us", "end_us", "parent"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
