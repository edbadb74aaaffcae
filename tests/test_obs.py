"""Tracing + metrics layer (``repro.obs``, DESIGN.md §12).

Covers the span lifecycle (nesting, parent links, tags, error capture),
every built-in sink, the no-op contract of the default tracer, and the
metrics primitives — in particular that :class:`Histogram` percentiles
are *numpy-identical* while the stream fits the exact buffer and stay
within P² tolerance beyond it.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.obs import (
    NOOP_TRACER,
    Histogram,
    JsonlSink,
    NullSink,
    P2Quantile,
    RingSink,
    SpanRecord,
    StderrSummarySink,
    Tracer,
)
from repro.obs.metrics import EXACT_CAP, QUANTILES


# ----------------------------------------------------------------------
# Tracer + sinks
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_name_duration_and_tags(self):
        sink = RingSink()
        tracer = Tracer(sink)
        with tracer.span("work", phase="a") as sp:
            sp.tag(rows=10)
        (rec,) = sink.spans
        assert rec.name == "work"
        assert rec.duration >= 0
        assert rec.tags == {"phase": "a", "rows": 10}

    def test_nesting_parent_links_and_emission_order(self):
        sink = RingSink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.spans  # children finish (and emit) first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_parent(self):
        sink = RingSink()
        tracer = Tracer(sink)
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, parent = sink.spans
        assert a.parent_id == parent.span_id and b.parent_id == parent.span_id

    def test_exception_tags_error_and_propagates(self):
        sink = RingSink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (rec,) = sink.spans
        assert rec.tags["error"] == "ValueError"

    def test_event_is_zero_duration_span(self):
        sink = RingSink()
        tracer = Tracer(sink)
        tracer.event("tick", k=1)
        (rec,) = sink.spans
        assert rec.duration == 0.0
        assert rec.tags == {"k": 1}

    def test_noop_tracer_is_disabled_and_allocation_free(self):
        assert not NOOP_TRACER.enabled
        s1 = NOOP_TRACER.span("anything", big=1)
        s2 = NOOP_TRACER.span("other")
        assert s1 is s2  # the shared singleton — no per-call allocation
        with s1 as sp:
            sp.tag(ignored=True)  # must be inert, not raise

    def test_null_sink_tracer_disabled(self):
        assert not Tracer(NullSink()).enabled
        assert Tracer(RingSink()).enabled

    def test_ring_sink_capacity_and_by_name(self):
        sink = RingSink(capacity=3)
        tracer = Tracer(sink)
        for i in range(5):
            tracer.event("e", i=i)
        assert len(sink) == 3
        assert [r.tags["i"] for r in sink.by_name("e")] == [2, 3, 4]
        sink.clear()
        assert len(sink) == 0

    def test_jsonl_sink_writes_sorted_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        with tracer.span("outer", z=1, a=2):
            tracer.event("inner")
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        spans = [json.loads(ln) for ln in lines]
        assert spans[0]["name"] == "inner" and spans[1]["name"] == "outer"
        assert "parent_id" not in spans[1]  # roots omit the null link
        assert spans[0]["parent_id"] == spans[1]["span_id"]
        assert list(spans[1]["tags"]) == ["a", "z"]  # sorted tag keys

    def test_stderr_summary_sink_aggregates(self, capsys):
        sink = StderrSummarySink()
        tracer = Tracer(sink)
        for _ in range(3):
            with tracer.span("op"):
                pass
        text = sink.summary()
        assert "op" in text and "3" in text
        tracer.flush()
        assert "op" in capsys.readouterr().err

    def test_span_record_to_dict_sorts_tags(self):
        rec = SpanRecord(name="n", start=1.23456789012, duration=0.5, span_id=1,
                         parent_id=None, tags={"b": 1, "a": 2})
        d = rec.to_dict()
        assert list(d["tags"]) == ["a", "b"]
        assert d["name"] == "n" and d["span_id"] == 1


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_exact_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.lognormal(0.0, 1.0, size=400)  # < EXACT_CAP: exact path
        h = Histogram("lat")
        for x in xs:
            h.observe(float(x))
        for q in (0.5, 0.95, 0.99):
            assert h.percentile(q) == pytest.approx(float(np.percentile(xs, q * 100)), rel=1e-12)
        assert h.count == 400
        assert h.min == xs.min() and h.max == xs.max()
        assert h.mean == pytest.approx(xs.mean())

    def test_histogram_streaming_within_p2_tolerance(self):
        rng = np.random.default_rng(1)
        xs = rng.lognormal(0.0, 1.0, size=20_000)
        h = Histogram("lat")
        for x in xs:
            h.observe(float(x))
        for q in (0.5, 0.95, 0.99):
            exact = float(np.percentile(xs, q * 100))
            assert h.percentile(q) == pytest.approx(exact, rel=0.05)

    def test_histogram_untracked_quantile_raises_once_streaming(self):
        h = Histogram("lat")
        for x in range(EXACT_CAP):
            h.observe(float(x))
        # The exact buffer answers any quantile.
        assert h.percentile(0.25) == pytest.approx(0.25 * (EXACT_CAP - 1))
        h.observe(0.0)  # one past the buffer: P² takes over
        with pytest.raises(KeyError):
            h.percentile(0.25)
        for q in QUANTILES.values():
            h.percentile(q)  # tracked quantiles keep answering

    def test_histogram_percentiles_and_to_dict_labels(self):
        for n in (100, 2 * EXACT_CAP):  # exact, then streaming
            h = Histogram("lat")
            for x in range(1, n + 1):
                h.observe(float(x))
            assert list(h.percentiles()) == ["p50", "p95", "p99"]
            d = h.to_dict()
            assert d["count"] == n and all(k in d for k in QUANTILES)

    def test_histogram_empty(self):
        h = Histogram("lat")
        assert h.to_dict() == {"count": 0}
        assert math.isnan(h.percentile(0.5)) and math.isnan(h.mean)

    def test_histogram_moments_stay_exact_once_streaming(self):
        # Past the exact buffer only the percentiles are estimates:
        # count, sum, min, max and mean are still exact.
        xs = [float(x) for x in np.random.default_rng(3).normal(size=4 * EXACT_CAP)]
        h = Histogram("lat")
        for x in xs:
            h.observe(x)
        d = h.to_dict()
        assert d["count"] == len(xs)
        assert d["sum"] == pytest.approx(sum(xs))
        assert (d["min"], d["max"]) == (min(xs), max(xs))
        assert d["mean"] == pytest.approx(float(np.mean(xs)))

    def test_p2_quantile_deterministic(self):
        xs = [float(x) for x in np.random.default_rng(2).normal(size=5000)]
        a, b = P2Quantile(0.95), P2Quantile(0.95)
        for x in xs:
            a.observe(x)
            b.observe(x)
        assert a.value() == b.value()
        assert a.value() == pytest.approx(float(np.percentile(xs, 95)), rel=0.05)
