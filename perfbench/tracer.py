"""In-memory spans around calls into submine's public module attributes.

The tracer never edits submine: it swaps module attributes that the pipeline
looks up at call time (for example ``submine.cli.run_discovery`` or
``submine.greedy.marginal_gain``) for wrappers, and puts the originals back
on ``uninstall``.  A target whose module or attribute no longer exists is
listed in ``absent`` instead of failing the run.

Each span records (name, start, end, parent, op).  Calls that run hundreds
of thousands of times per op (``marginal_gain``, ``commit``) would cost more
to record one by one than they take, so they are counted instead: each call
adds one to a counter, and its duration to a time counter, on the innermost
open span.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap.

    kind "span" records a span per call; kind "count" only counts calls on
    the enclosing span.  ``observe(span, result)`` may add counters to the
    call's span (for kind "count", the enclosing span) from the return value.
    ``memory`` records the tracemalloc peak of the call.
    """

    module: str
    attr: str
    name: str
    kind: str = "span"
    observe: Callable[[Span, object], None] | None = None
    memory: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = -1

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, new_op: bool = False) -> Span:
        if new_op:
            self._op += 1
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent=parent, op=self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, seconds: float) -> None:
        if not self._stack:
            return
        counters = self.spans[self._stack[-1]].counters
        counters[key] = counters.get(key, 0) + 1
        counters[key + "_s"] = counters.get(key + "_s", 0.0) + seconds

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    # -- patching ------------------------------------------------------------

    def install(self, targets) -> None:
        for t in targets:
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                module = None
            original = getattr(module, t.attr, None)
            if module is None or original is None:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            wrapper = (
                self._counting(original, t) if t.kind == "count" else self._spanning(original, t)
            )
            self._patches.append((module, t.attr, original))
            setattr(module, t.attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _counting(self, fn, target: Target):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.count(target.name, time.perf_counter() - t0)
            if target.observe is not None:
                target.observe(self.current(), result)
            return result

        return wrapper

    def _spanning(self, fn, target: Target):
        def wrapper(*args, **kwargs):
            own_trace = target.memory and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            if target.memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span = self.begin(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
                if target.memory:
                    span.counters["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                if own_trace:
                    tracemalloc.stop()
            if target.observe is not None:
                target.observe(span, result)
            return result

        return wrapper

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "counters": s.counters,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": rows}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
