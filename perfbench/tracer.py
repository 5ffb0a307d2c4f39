"""In-memory span recorder that wraps public calls from outside the program.

A :class:`Tracer` patches named attributes (module functions, methods,
classmethods, generator methods) with wrappers that record one span per
call: its name, start and end (``perf_counter_ns``), the span that was
open on the same thread when it started (its parent) and the run id.
Counters are recorded at the same boundaries.  Nothing is written while
the run measures; :meth:`Tracer.write` exports the spans when it ends,
as JSON lines and as Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``).

A layer's self time is its span's duration minus the time its child
spans cover.  Children of one span run on the same thread and nest, so
the covered time is the sum of their durations.

A wrapper whose span name is already open on the calling thread calls
straight through: recursive or overriding calls (``Adam.step`` calling
``Optimizer.step``, a model calling a sub-model) count once, at the
outermost call.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

__all__ = ["Span", "Tracer"]


class Span:
    """One recorded call."""

    __slots__ = ("span_id", "name", "start_ns", "end_ns", "parent", "thread",
                 "child_ns")

    def __init__(self, span_id: int, name: str, parent: "Span | None",
                 thread: int):
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_ns = 0
        self.end_ns = 0
        self.start_ns = time.perf_counter_ns()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class _ThreadState:
    __slots__ = ("stack", "open")

    def __init__(self):
        self.stack: list[Span] = []
        self.open: dict[str, int] = defaultdict(int)


class Tracer:
    """Records spans and counters for one run; patches calls while
    installed and restores every original on :meth:`uninstall`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- recording ------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def is_open(self, name: str) -> bool:
        return self._state().open[name] > 0

    def begin(self, name: str) -> Span:
        state = self._state()
        stack = state.stack
        span = Span(next(self._ids), name, stack[-1] if stack else None,
                    threading.get_ident())
        stack.append(span)
        state.open[name] += 1
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        state = self._state()
        popped = state.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order "
                               f"(innermost open span is {popped.name!r})")
        state.open[span.name] -= 1
        if span.parent is not None:
            span.parent.child_ns += span.end_ns - span.start_ns
        self.spans.append(span)  # list.append is atomic under the GIL

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, had_own, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, *, name_of=None,
             on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``name_of(args, kwargs)`` picks the span name per call instead;
        ``on_result(tracer, result, args, kwargs)`` records counters from
        the call's arguments and result.
        """
        raw = vars(owner).get(attr, getattr(owner, attr))
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of is not None else name
            if tracer.is_open(span_name):
                return function(*args, **kwargs)
            span = tracer.begin(span_name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        self._patch(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Record one span per item a generator method yields (the time
        spent producing it) and count the items under ``name``."""
        function = getattr(owner, attr)
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                span = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                tracer.count(name)
                yield item

        self._patch(owner, attr, wrapper)

    def wrap_hierarchy(self, base: type, attr: str, name: str, **options) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                self.wrap(cls, attr, name, **options)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- aggregation ----------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.duration_ns * 1e-9
            entry["self_s"] += span.self_ns * 1e-9
        return out

    def durations(self, name: str) -> list[float]:
        """Inclusive seconds of every span named ``name``."""
        return [s.duration_ns * 1e-9 for s in self.spans if s.name == name]

    # -- export ---------------------------------------------------------
    def write(self, prefix: str) -> list[str]:
        """Write ``<prefix>.spans.jsonl`` and ``<prefix>.trace.json``."""
        spans = sorted(self.spans, key=lambda s: s.start_ns)
        origin = spans[0].start_ns if spans else 0
        pid = os.getpid()
        jsonl = prefix + ".spans.jsonl"
        with open(jsonl, "w") as handle:
            for span in spans:
                handle.write(json.dumps({
                    "run_id": self.run_id, "span_id": span.span_id,
                    "parent": span.parent.span_id if span.parent else None,
                    "name": span.name, "thread": span.thread,
                    "start_ns": span.start_ns - origin,
                    "end_ns": span.end_ns - origin,
                    "self_ns": span.self_ns,
                }) + "\n")
        chrome = prefix + ".trace.json"
        events = [{
            "name": span.name, "ph": "X", "pid": pid, "tid": span.thread,
            "ts": (span.start_ns - origin) / 1e3,
            "dur": span.duration_ns / 1e3,
            "args": {"span_id": span.span_id, "run_id": self.run_id,
                     "parent": span.parent.span_id if span.parent else None},
        } for span in spans]
        with open(chrome, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"run_id": self.run_id,
                                     "counters": dict(self.counters)}},
                      handle)
        return [jsonl, chrome]
