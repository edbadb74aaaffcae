"""Concurrency hammer for the observability layer and engine ledger.

The serving front-end mutates ``Counter``/``Histogram``/
``MetricsRegistry``/``EngineStats`` from client threads and the
dispatch thread at once — these tests drive each primitive
from many threads and assert *exact* final counts (a lost update shows
up as a wrong total, not a flake).
"""

from __future__ import annotations

import json
import threading

from repro.engine import SpGEMMEngine
from repro.engine.engine import EngineStats
from repro.obs import Counter, Histogram, JsonlSink, MetricsRegistry, Tracer

from conftest import random_csr

THREADS = 8
ROUNDS = 2000


def hammer(fn) -> None:
    """Run ``fn(thread_index)`` from THREADS threads, all released at once."""
    barrier = threading.Barrier(THREADS)

    def body(i: int) -> None:
        barrier.wait()
        fn(i)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestMetricsPrimitives:
    def test_counter_no_lost_updates(self):
        c = Counter("hits")
        hammer(lambda i: [c.inc() for _ in range(ROUNDS)])
        assert c.value == THREADS * ROUNDS

    def test_counter_weighted_increments(self):
        c = Counter("weighted")
        hammer(lambda i: [c.inc(2) for _ in range(ROUNDS)])
        assert c.value == 2 * THREADS * ROUNDS

    def test_histogram_exact_count_and_sane_percentiles(self):
        h = Histogram("lat")
        hammer(lambda i: [h.observe(i + k / ROUNDS) for k in range(ROUNDS)])
        d = h.to_dict()
        assert d["count"] == THREADS * ROUNDS
        assert 0.0 <= d["min"] <= d["p50"] <= d["p95"] <= d["p99"] <= d["max"] < THREADS
        json.dumps(d, allow_nan=False)

    def test_registry_get_or_create_is_atomic(self):
        reg = MetricsRegistry()
        seen: list = [None] * THREADS

        def body(i: int) -> None:
            c = reg.counter("shared")
            seen[i] = c
            for _ in range(ROUNDS):
                c.inc()

        hammer(body)
        assert all(c is seen[0] for c in seen)  # one Counter, not N racing ones
        assert reg.counter("shared").value == THREADS * ROUNDS


class TestEngineStatsLedger:
    def test_bump_no_lost_updates(self):
        stats = EngineStats()
        hammer(lambda i: [stats.bump(multiplies=1, plan_cache_hits=1) for _ in range(ROUNDS)])
        assert stats.multiplies == THREADS * ROUNDS
        assert stats.plan_cache_hits == THREADS * ROUNDS

    def test_per_plan(self):
        stats = EngineStats()
        hammer(lambda i: [stats.bump_plan(f"plan-{i % 2}") for _ in range(ROUNDS)])
        assert stats.per_plan == {"plan-0": THREADS // 2 * ROUNDS, "plan-1": THREADS // 2 * ROUNDS}

    def test_to_dict_while_bumping_stays_consistent(self):
        """Snapshots taken mid-hammer must be JSON-safe and internally
        sane; the final one must be exact."""
        stats = EngineStats()
        snaps: list = []

        def body(i: int) -> None:
            for _ in range(ROUNDS):
                stats.bump(multiplies=1)
            if i == 0:
                snaps.append(stats.to_dict())

        hammer(body)
        for d in snaps:
            json.dumps(d, allow_nan=False)
        assert stats.to_dict()["multiplies"] == THREADS * ROUNDS


class TestEngineConcurrentMultiply:
    def test_parallel_multiplies_are_bitwise_and_fully_counted(self):
        """Many threads multiplying through one engine: every product
        byte-identical to the sequential answer, every call counted."""
        eng = SpGEMMEngine()
        A = random_csr(40, 40, 0.1, seed=31)
        Bs = [random_csr(40, 40, 0.1, seed=200 + i) for i in range(THREADS)]
        expected = [SpGEMMEngine().multiply(A, B) for B in Bs]
        got: list = [None] * THREADS
        per_thread = 4
        hammer(lambda i: got.__setitem__(i, [eng.multiply(A, Bs[i]) for _ in range(per_thread)]))
        for i in range(THREADS):
            for C in got[i]:
                assert C.indptr.tobytes() == expected[i].indptr.tobytes()
                assert C.indices.tobytes() == expected[i].indices.tobytes()
                assert C.values.tobytes() == expected[i].values.tobytes()
        s = eng.stats()
        assert s.multiplies == THREADS * per_thread
        assert s.plans_built + s.plan_cache_hits == THREADS * per_thread


class TestTracerThreading:
    def test_span_stacks_are_thread_local_and_ids_unique(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink)

        def body(i: int) -> None:
            for k in range(50):
                with tracer.span("outer", thread=i):
                    with tracer.span("inner", thread=i, k=k):
                        pass

        hammer(body)
        sink.flush()
        sink.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == THREADS * 50 * 2
        assert len({r["span_id"] for r in records}) == len(records)
        inners = [r for r in records if r["name"] == "inner"]
        outers_by_id = {r["span_id"]: r for r in records if r["name"] == "outer"}
        for r in inners:
            # Parent links never cross threads: each inner's parent is an
            # outer tagged with the same thread index.
            parent = outers_by_id[r["parent_id"]]
            assert parent["tags"]["thread"] == r["tags"]["thread"]
