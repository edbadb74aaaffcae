"""Trace-replay harness + engine instrumentation (DESIGN.md §12).

The two contracts under test:

* **Determinism** — same seed, byte-identical trace (``to_jsonl``) and
  byte-identical replay report across fresh engines (latency measured in
  model cost units, never wall clock).
* **No-op default / opt-in tracing** — a default engine's results are
  bitwise unchanged by the instrumentation (its tracer is the shared
  disabled singleton); an engine built with a real tracer emits the
  spans and events every boundary promises.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import EngineStats, SpGEMMEngine
from repro.matrices.generators import grid2d
from repro.matrices.perturb import perturb_values
from repro.obs import NOOP_TRACER, RingSink, Tracer
from repro.workloads import Trace, TraceSpec, replay, synthesize_trace


@pytest.fixture(scope="module")
def small_trace():
    return synthesize_trace(requests=40, seed=7)


# ----------------------------------------------------------------------
# Trace synthesis
# ----------------------------------------------------------------------
class TestTraceSynthesis:
    def test_same_seed_byte_identical(self, small_trace):
        again = synthesize_trace(requests=40, seed=7)
        assert again.to_jsonl() == small_trace.to_jsonl()

    def test_different_seed_differs(self, small_trace):
        other = synthesize_trace(requests=40, seed=8)
        assert other.to_jsonl() != small_trace.to_jsonl()

    def test_jsonl_roundtrip(self, small_trace):
        text = small_trace.to_jsonl()
        back = Trace.from_jsonl(text)
        assert back.to_jsonl() == text
        assert back.spec == small_trace.spec

    def test_requests_are_well_formed(self, small_trace):
        spec = small_trace.spec
        versions: dict[str, int] = {}
        for i, r in enumerate(small_trace.requests):
            assert r.idx == i
            assert r.op in ("multiply", "batch")
            assert r.batch == (spec.batch_size if r.op == "batch" else 1)
            prev = versions.get(r.matrix, 0)
            assert r.version == prev + (1 if r.churn else 0)
            versions[r.matrix] = r.version

    def test_zipf_concentrates_on_head_rank(self):
        trace = synthesize_trace(requests=300, seed=0, zipf_s=1.5, burst_prob=0.0)
        counts: dict[str, int] = {}
        for r in trace.requests:
            counts[r.matrix] = counts.get(r.matrix, 0) + 1
        assert counts["grid2d"] == max(counts.values())  # rank-0 family dominates

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(requests=0)
        with pytest.raises(ValueError):
            TraceSpec(population=99)
        with pytest.raises(ValueError):
            TraceSpec(churn_prob=1.5)
        with pytest.raises(TypeError):
            synthesize_trace(TraceSpec(), requests=5)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class TestReplay:
    def test_report_deterministic_across_fresh_engines(self, small_trace):
        a = replay(small_trace, SpGEMMEngine())
        b = replay(small_trace, SpGEMMEngine())
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_report_fields(self, small_trace):
        rep = replay(small_trace, SpGEMMEngine())
        d = rep.to_dict()
        assert d["requests"] == 40
        assert d["multiplies"] >= 40
        for pct in ("p50", "p95", "p99"):
            assert d["latency_model_units"][pct] > 0
        assert 0.0 <= d["hit_rate"] <= 1.0
        assert d["plans_built"] >= 1
        assert d["churn_events"] == sum(r.churn for r in small_trace.requests)
        assert "wall_seconds" not in json.dumps(d)  # wall clock never in the report
        assert rep.wall_seconds > 0  # ... but is measured for humans

    def test_churn_forces_replanning(self):
        churny = synthesize_trace(requests=30, seed=3, churn_prob=0.5, population=1)
        calm = synthesize_trace(requests=30, seed=3, churn_prob=0.0, population=1)
        rep_churny = replay(churny, SpGEMMEngine())
        rep_calm = replay(calm, SpGEMMEngine())
        assert rep_churny.plans_built > rep_calm.plans_built
        assert rep_churny.hit_rate < rep_calm.hit_rate


# ----------------------------------------------------------------------
# Engine instrumentation
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_default_engine_has_disabled_shared_tracer(self):
        eng = SpGEMMEngine()
        assert eng.tracer is NOOP_TRACER
        assert not eng.tracer.enabled

    def test_traced_engine_bitwise_matches_default(self):
        A = grid2d(8, 8, seed=0)
        C_plain = SpGEMMEngine().multiply(A)
        C_traced = SpGEMMEngine(tracer=Tracer(RingSink())).multiply(A)
        assert (C_plain.indptr == C_traced.indptr).all()
        assert (C_plain.indices == C_traced.indices).all()
        assert (C_plain.values == C_traced.values).all()

    def test_multiply_span_tags_cache_hit_miss(self):
        sink = RingSink()
        eng = SpGEMMEngine(tracer=Tracer(sink))
        A = grid2d(8, 8, seed=0)
        eng.multiply(A)
        eng.multiply(perturb_values(A, seed=1))  # same pattern: plan reused
        first, second = sink.by_name("engine.multiply")
        assert first.tags["cache"] == "miss"
        assert second.tags["cache"] == "hit"
        assert first.tags["plan"] == second.tags["plan"]
        assert {"n", "nnz", "backend", "workload"} <= first.tags.keys()

    def test_boundary_spans_and_parenting(self):
        sink = RingSink()
        eng = SpGEMMEngine(tracer=Tracer(sink))
        A = grid2d(8, 8, seed=0)
        eng.multiply(A)
        names = {r.name for r in sink.spans}
        assert {"engine.multiply", "planner.plan", "backend.execute", "plan_cache.put"} <= names
        (multiply,) = sink.by_name("engine.multiply")
        for child in ("planner.plan", "backend.execute"):
            (rec,) = sink.by_name(child)
            assert rec.parent_id == multiply.span_id

    def test_multiply_many_and_power_spans(self):
        sink = RingSink()
        eng = SpGEMMEngine(tracer=Tracer(sink))
        A = grid2d(8, 8, seed=0)
        for _ in range(2):
            eng.multiply_many(A, [perturb_values(A, seed=i) for i in range(3)])
        eng.power(A, 3)
        first, second = sink.by_name("engine.multiply_many")
        assert first.tags["batch"] == 3 and first.tags["cache"] == "miss"
        assert second.tags["cache"] == "hit"
        (pw,) = sink.by_name("engine.power")
        assert pw.tags["exponent"] == 3
        assert pw.tags["cache"] == "miss"  # the first asquare lookup
        assert pw.tags["plan"] == eng.plan_for(A).label

    def test_plan_cache_evict_event(self):
        from repro.engine.plan_cache import PlanCache

        sink = RingSink()
        eng = SpGEMMEngine(plan_cache=PlanCache(capacity=1), tracer=Tracer(sink))
        eng.multiply(grid2d(8, 8, seed=0))
        eng.multiply(grid2d(9, 9, seed=0))  # different pattern: evicts
        assert len(sink.by_name("plan_cache.evict")) == 1

    def test_reset_stats_keeps_tracer(self):
        sink = RingSink()
        eng = SpGEMMEngine(tracer=Tracer(sink))
        eng.multiply(grid2d(8, 8, seed=0))
        eng.reset_stats()
        sink.clear()
        eng.multiply(grid2d(8, 8, seed=1))
        assert sink.by_name("backend.execute")  # exec ctx still traced


# ----------------------------------------------------------------------
# EngineStats satellites
# ----------------------------------------------------------------------
class TestEngineStats:
    def test_to_dict_is_json_safe(self):
        eng = SpGEMMEngine()
        eng.multiply(grid2d(8, 8, seed=0))
        d = eng.stats().to_dict()
        json.dumps(d, allow_nan=False)  # strict: no NaN/inf anywhere
        assert d["multiplies"] == 1
        assert "break_even_iterations" in d and "amortization_progress" in d

    def test_as_dict_alias(self):
        s = EngineStats()
        assert s.as_dict() == s.to_dict()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestReplayCli:
    def test_engine_replay_flags(self, tmp_path, capsys):
        from repro.experiments.cli import main

        stats_path = tmp_path / "stats.json"
        trace_path = tmp_path / "trace.jsonl"
        rc = main(
            [
                "engine",
                "--replay", "5",
                "--replay-seed", "2",
                "--policy", "heuristic",
                "--stats-json", str(stats_path),
                "--trace", str(trace_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit_rate" in out and "p95" in out
        stats = json.loads(stats_path.read_text())
        assert stats["multiplies"] >= 5
        spans = [json.loads(ln) for ln in trace_path.read_text().splitlines()]
        assert any(s["name"] == "engine.multiply" for s in spans)
