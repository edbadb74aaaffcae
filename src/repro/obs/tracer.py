"""Span tracer: monotonic-clock spans with parent links and pluggable sinks.

The engine stack (DESIGN.md §12) is instrumented with *spans* — named
intervals measured on the monotonic clock (:func:`time.perf_counter`),
carrying free-form string/number tags and a link to the enclosing span —
plus zero-duration *events* for point occurrences (a cache put, a cache
eviction).  A :class:`Tracer` owns one :class:`TraceSink` and a
current-span stack; instrumented code does::

    with tracer.span("engine.multiply", workload="asquare") as sp:
        ...
        sp.tag(cache="hit", plan=plan.label)
    tracer.event("plan_cache.evict", key=victim)

The **no-op contract**: a tracer whose sink is the :class:`NullSink`
(the default everywhere) is *disabled* — ``span()`` and ``event()``
return a shared singleton without allocating a span record, touching the
clock, or growing any buffer, so the uninstrumented hot path is
unchanged to within measurement noise.  Instrumentation sites that need
extra work to *compute* a tag (e.g. a cache hit/miss comparison) guard
on :attr:`Tracer.enabled`.

Sinks receive **finished** spans only (duration known), in completion
order — a child therefore arrives before its parent, like every
span-exporting tracer.  Four sinks are built in:

============  =========================================================
``null``      drop everything (the allocation-free default)
``ring``      last-N :class:`SpanRecord` objects in memory (inspection)
``jsonl``     one JSON object per span appended to a file
``stderr``    aggregate count/total/max per span name, dumped on flush
============  =========================================================
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "SpanRecord",
    "TraceSink",
    "NullSink",
    "RingSink",
    "JsonlSink",
    "StderrSummarySink",
    "Tracer",
    "NOOP_TRACER",
]


@dataclass
class SpanRecord:
    """One finished span (or zero-duration event).

    ``start`` is monotonic-clock seconds (comparable *within* a process,
    not across); ``parent_id`` is ``None`` for root spans.  Tag values
    are kept as given (strings/numbers) — :meth:`to_dict` is the JSON
    projection sinks and tests share.
    """

    name: str
    start: float
    duration: float
    span_id: int
    parent_id: int | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def is_event(self) -> bool:
        return self.duration == 0.0

    def to_dict(self) -> dict:
        d: dict[str, Any] = {
            "name": self.name,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
            "span_id": self.span_id,
        }
        if self.parent_id is not None:
            d["parent_id"] = self.parent_id
        if self.tags:
            d["tags"] = {k: self.tags[k] for k in sorted(self.tags)}
        return d


class TraceSink:
    """Where finished spans go.  Subclasses override :meth:`emit`."""

    def emit(self, span: SpanRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output out (file sinks); default no-op."""

    def close(self) -> None:
        self.flush()


class NullSink(TraceSink):
    """Drop every span — the disabled default (never actually called:
    the tracer short-circuits before emitting)."""

    def emit(self, span: SpanRecord) -> None:  # pragma: no cover - short-circuited
        pass


class RingSink(TraceSink):
    """Keep the last ``capacity`` spans in memory (completion order)."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.spans: "deque[SpanRecord]" = deque(maxlen=int(capacity))

    def emit(self, span: SpanRecord) -> None:
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def by_name(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def clear(self) -> None:
        self.spans.clear()


class JsonlSink(TraceSink):
    """Append one JSON object per finished span to ``path``.

    The file handle opens lazily on the first span and is line-buffered
    JSON (sorted keys), so a trace is inspectable with any line tool
    while the process still runs.
    """

    def __init__(self, path) -> None:
        from pathlib import Path

        self.path = Path(path)
        self._fh = None
        # Serving emits spans from the dispatch and RPC threads; a lock
        # keeps each JSON line intact (interleaved writes would corrupt
        # the file mid-line).
        self._lock = threading.Lock()

    def emit(self, span: SpanRecord) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True) + "\n"
        with self._lock:
            if self._fh is None:
                self._fh = self.path.open("a")
            self._fh.write(line)

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class StderrSummarySink(TraceSink):
    """Aggregate per-name statistics; print a table on :meth:`flush`.

    Useful as a zero-config "where did the time go" profile: nothing is
    written per span, only ``count / total / max`` per span name.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream
        self.stats: dict[str, list[float]] = {}  # name -> [count, total, max]
        self._lock = threading.Lock()

    def emit(self, span: SpanRecord) -> None:
        with self._lock:
            agg = self.stats.get(span.name)
            if agg is None:
                self.stats[span.name] = [1, span.duration, span.duration]
            else:
                agg[0] += 1
                agg[1] += span.duration
                agg[2] = max(agg[2], span.duration)

    def summary(self) -> str:
        lines = [f"{'span':<28s} {'count':>8s} {'total_s':>10s} {'max_s':>10s}"]
        for name in sorted(self.stats):
            count, total, mx = self.stats[name]
            lines.append(f"{name:<28s} {int(count):>8d} {total:>10.4f} {mx:>10.6f}")
        return "\n".join(lines)

    def flush(self) -> None:
        if self.stats:
            print(self.summary(), file=self.stream or sys.stderr)


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class _NoopSpan:
    """Shared do-nothing span: the disabled tracer's only return value."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """A live span: context manager that records itself on exit."""

    __slots__ = ("_tracer", "record", "_finished")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record
        self._finished = False

    def tag(self, **tags) -> "_ActiveSpan":
        """Attach tags mid-span (e.g. a hit/miss known only later)."""
        self.record.tags.update(tags)
        return self

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish(error=exc_type.__name__ if exc_type is not None else None)
        return False

    def finish(self, *, error: str | None = None) -> None:
        if self._finished:  # pragma: no cover - defensive double-exit guard
            return
        self._finished = True
        if error:
            self.record.tags.setdefault("error", error)
        self.record.duration = time.perf_counter() - self.record.start
        self._tracer._finish(self)


class Tracer:
    """Span factory bound to one sink (see module docstring).

    Parameters
    ----------
    sink:
        Where finished spans go; ``None`` (default) means the
        :class:`NullSink` and *disables* the tracer entirely.
    clock:
        Monotonic time source (injectable for tests); defaults to
        :func:`time.perf_counter`.
    """

    def __init__(self, sink: TraceSink | None = None, *, clock: Callable[[], float] | None = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.enabled = not isinstance(self.sink, NullSink)
        self._clock = clock or time.perf_counter
        self._next_id = 1
        self._id_lock = threading.Lock()
        # Span nesting is tracked per thread: the serving front-end opens
        # spans from the dispatch and RPC threads concurrently, and a
        # shared stack would parent one thread's span under another's.
        self._local = threading.local()

    @property
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    # ------------------------------------------------------------------
    def span(self, name: str, **tags):
        """Open a span; use as a context manager (or call ``finish()``).

        Disabled tracers return a shared no-op singleton: no record, no
        clock read, no allocation.
        """
        if not self.enabled:
            return _NOOP_SPAN
        stack = self._stack
        parent = stack[-1].record.span_id if stack else None
        record = SpanRecord(
            name=name,
            start=self._clock(),
            duration=0.0,
            span_id=self._new_id(),
            parent_id=parent,
            tags=dict(tags),
        )
        active = _ActiveSpan(self, record)
        stack.append(active)
        return active

    def event(self, name: str, **tags) -> None:
        """Emit a zero-duration span at the current position."""
        if not self.enabled:
            return
        stack = self._stack
        parent = stack[-1].record.span_id if stack else None
        record = SpanRecord(
            name=name,
            start=self._clock(),
            duration=0.0,
            span_id=self._new_id(),
            parent_id=parent,
            tags=dict(tags),
        )
        self.sink.emit(record)

    def _finish(self, active: _ActiveSpan) -> None:
        # Out-of-order exits (a caller keeping a span open across a
        # sibling's lifetime) are tolerated: remove wherever it sits.
        try:
            self._stack.remove(active)
        except ValueError:  # pragma: no cover - already removed
            pass
        self.sink.emit(active.record)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({type(self.sink).__name__}, {state})"


#: The shared disabled tracer: every instrumented layer defaults to this,
#: so observability is strictly opt-in and the default path allocates
#: nothing per call.
NOOP_TRACER = Tracer()
