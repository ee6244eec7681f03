"""Harness-side spans around calls into each layer of the program.

The program's own tracer measures *simulated* time and is itself one of
the things being measured, so the traced pass records host-time spans
from out here instead: an instance attribute holding a timing wrapper
is set on a public object (``client.predict``, ``domain.update``,
``engine.step`` ...), which shadows the class's method for that one
object and leaves the program's code untouched.  Spans are kept in
memory as parallel lists (name, start, end, parent); a layer's *self
time* is its span's duration minus what its child spans cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any


@dataclass
class Spans:
    """One drained batch of completed spans (parent is an index, -1
    for a root)."""

    names: list[str]
    starts: list[int]
    ends: list[int]
    parents: list[int]

    def __len__(self) -> int:
        return len(self.names)

    def as_rows(self) -> list[dict[str, Any]]:
        return [
            {"name": name, "start_ns": start, "end_ns": end,
             "parent": parent}
            for name, start, end, parent
            in zip(self.names, self.starts, self.ends, self.parents)
        ]


@dataclass
class LayerTime:
    calls: int = 0
    total_ns: int = 0   # sum of span durations
    self_ns: int = 0    # durations minus time covered by child spans


def self_times(spans: Spans) -> dict[str, LayerTime]:
    """Per span name: calls, total and self time.

    Self times of a tree sum to its root's duration, so summed over all
    names they equal the time covered by root spans.
    """
    durations = [end - start
                 for start, end in zip(spans.starts, spans.ends)]
    covered = [0] * len(durations)
    for duration, parent in zip(durations, spans.parents):
        if parent >= 0:
            covered[parent] += duration
    out: dict[str, LayerTime] = {}
    for name, duration, child_ns in zip(spans.names, durations, covered):
        layer = out.get(name)
        if layer is None:
            layer = out[name] = LayerTime()
        layer.calls += 1
        layer.total_ns += duration
        layer.self_ns += duration - child_ns
    return out


def root_ns(spans: Spans) -> int:
    """Time covered by root spans."""
    return sum(end - start for start, end, parent
               in zip(spans.starts, spans.ends, spans.parents)
               if parent < 0)


class SpanRecorder:
    """Records spans; single-threaded, nesting tracked by a stack."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str]] = []

    def enter(self, name: str) -> int:
        """Open a span from harness code; pair with :meth:`exit`."""
        stack = self._stack
        span = len(self._names)
        self._names.append(name)
        self._parents.append(stack[-1] if stack else -1)
        self._ends.append(0)
        stack.append(span)
        self._starts.append(time.perf_counter_ns())
        return span

    def exit(self, span: int) -> None:
        self._ends[span] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a wrapper recording span ``name``."""
        inner = getattr(obj, attr)
        names, starts = self._names, self._starts
        ends, parents, stack = self._ends, self._parents, self._stack
        now = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            starts.append(now())
            try:
                return inner(*args, **kwargs)
            finally:
                ends[span] = now()
                stack.pop()

        setattr(obj, attr, wrapper)
        self._wrapped.append((obj, attr))

    def unwrap_all(self) -> None:
        """Remove every wrapper, restoring the class's own methods."""
        for obj, attr in self._wrapped:
            delattr(obj, attr)
        self._wrapped.clear()

    def drain(self) -> Spans:
        """Hand over the completed spans and start afresh (call only
        between root spans)."""
        assert not self._stack, "drain() inside an open span"
        spans = Spans(self._names[:], self._starts[:], self._ends[:],
                      self._parents[:])
        for column in (self._names, self._starts, self._ends,
                       self._parents):
            column.clear()
        return spans
