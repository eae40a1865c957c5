"""Spans and counters recorded from outside the ``hapstack`` package.

``Tracer.install`` replaces the module-level public names that the
pipeline calls through with timing wrappers, and ``Tracer.restore`` puts
the originals back. Each call becomes a span: name, start, end, parent
span, thread and request id (a document id or a request index), plus
the counters taken at that boundary. Spans stay in memory until the run
ends.

A span's parent is the innermost open span of its thread; a span opened
on a thread with no open span (a ``run_corpus`` worker thread) takes the
benchmark's current root span as parent. Self time is a span's duration
minus the union of its children's intervals, so concurrent children on
two worker threads are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# (module, attribute) of every wrapped public name.
WRAPPED = (
    ("hapstack.pipeline", "split_sentences"),
    ("hapstack.pipeline", "encode"),
    ("hapstack.pipeline", "pad_sequence"),
    ("hapstack.pipeline", "forward_batch"),
    ("hapstack.pipeline", "softmax_pair"),
    ("hapstack.pipeline", "filter_document"),
    ("hapstack.pipeline", "score_sentences"),
    ("hapstack.rescore", "score_sentences"),
    ("hapstack.heatmap", "compute_heatmap"),
    ("hapstack.heatmap", "render_heatmap"),
    ("hapstack.model_io", "load_bundle"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('hapstack.')}.{attr}"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    request: str | None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, self.clock(), 0.0,
                    parent.id if parent else None, threading.get_ident(), request)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str, request: str | None = None) -> Iterator[Span]:
        """A benchmark-level span around one call into the library; spans
        opened on other threads while it is open become its children."""
        span = self.open(name, request)
        self._root = span
        try:
            yield span
        finally:
            self._root = None
            self.close(span)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = args[0].id if name == "pipeline.filter_document" else None
            span = tracer.open(name, request)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                counter(span, result, *args, **kwargs)
            return result

        return wrapper

    def install(self, counters: dict[str, Callable] | None = None) -> None:
        """Wrap every name in ``WRAPPED``; ``counters`` maps a span name to
        ``f(span, result, *args, **kwargs)``, which fills ``span.info``."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        counters = counters or {}
        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            name = span_name(module_name, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counters.get(name)))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.id, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.id] = span.duration - covered
        return result

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "thread": span.thread,
                    "request": span.request, **span.info,
                }) + "\n")

