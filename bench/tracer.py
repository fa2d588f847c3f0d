"""Outside-in tracer: spans and counts recorded at module attributes.

The tracer replaces a function at the attribute its callers look up (for
example ``policytree.search_tree`` or ``ObservationalDataset.subset``) with a
wrapper that records one span per call: name, start, end, parent span and op
id. Spans stay in memory until :meth:`Tracer.write` is called. Counts are
added at the same boundaries from the call's arguments and result.

A span's self time is its duration minus the time its child spans cover;
calls are single-threaded and properly nested, so the children of a span
never overlap and their durations add up. The wrappers also time their own
work outside the calls they time, which is the tracing overhead; it falls
inside the parent span.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped attribute.

    owner is the module or class whose attribute callers look up. name is
    the span name, or a function of the call's bound arguments giving it.
    count maps (bound arguments, result) to counts to add. size, when set,
    maps the bound arguments to an input size; the largest call per span
    name is kept for :meth:`Tracer.peak_alloc_mb`.
    """

    owner: Any
    attribute: str
    name: str | Callable[[dict], str]
    count: Callable[[dict, Any], dict[str, float]] | None = None
    size: Callable[[dict], int] | None = None


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int  # -1 outside any op


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.largest: dict[str, tuple[int, Callable, tuple, dict]] = {}
        self.overhead = 0.0  # seconds the wrappers spent outside the calls they time
        self._stack: list[int] = []
        self._op = -1

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: float, end: float, parent: int) -> None:
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent, self._op)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        needs_arguments = not isinstance(target.name, str) or target.count or target.size

        def traced(*args, **kwargs):
            entered = self.clock()
            arguments = None
            if needs_arguments:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            name = target.name if isinstance(target.name, str) else target.name(arguments)
            index, parent = self._open()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._close(index, name, start, end, parent)
            if target.count is not None:
                for key, value in target.count(arguments, result).items():
                    self.counts[key] += value
            if target.size is not None:
                size = target.size(arguments)
                if name not in self.largest or size > self.largest[name][0]:
                    self.largest[name] = (size, fn, args, kwargs)
            self.overhead += start - entered + self.clock() - end
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for target in targets:
                original = target.owner.__dict__[target.attribute]
                setattr(target.owner, target.attribute, self._wrap(target, original))
                saved.append((target.owner, target.attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span opened inside carries op_id."""
        self._op = op_id
        index, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(index, "op", start, self.clock(), parent)
            self._op = -1

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, over the spans recorded inside ops."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child_time):
            if span.op >= 0:
                totals[span.name] += span.end - span.start - inner
        return dict(totals)

    def peak_alloc_mb(self, name: str) -> float:
        """tracemalloc peak, in MB, of the largest recorded call of span name, replayed alone."""
        if name not in self.largest:
            return 0.0
        _, fn, args, kwargs = self.largest[name]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def write(self, path) -> None:
        """Write the spans as JSON lines, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                record = {"id": index, **span.__dict__}
                fh.write(json.dumps(record) + "\n")
