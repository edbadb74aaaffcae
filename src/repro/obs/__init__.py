"""``repro.obs`` — zero-dependency tracing and metrics (DESIGN.md §12).

Observability for the serving stack, strictly opt-in: a span-based
:class:`Tracer` (monotonic-clock spans with parent links, tags and
pluggable sinks — in-memory ring, JSONL file, stderr summary; the
default :class:`NullSink` keeps every instrumented path allocation-free)
plus the :class:`Histogram` metric primitive with streaming
p50/p95/p99.  The engine, planners, execution backends and
plan cache all accept a tracer; the trace-replay harness
(:mod:`repro.workloads.replay`) builds its latency report on the
histogram primitive.
"""

from .metrics import Histogram, P2Quantile
from .tracer import (
    NOOP_TRACER,
    JsonlSink,
    NullSink,
    RingSink,
    SpanRecord,
    StderrSummarySink,
    Tracer,
    TraceSink,
)

__all__ = [
    "Tracer",
    "TraceSink",
    "NullSink",
    "RingSink",
    "JsonlSink",
    "StderrSummarySink",
    "SpanRecord",
    "NOOP_TRACER",
    "Histogram",
    "P2Quantile",
]
