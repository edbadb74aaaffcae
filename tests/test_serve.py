"""Serving front-end tests (``repro.serve``, DESIGN.md §14).

The load-bearing property is bitwise equivalence: a seeded trace
replayed through the coalescing server must produce byte-identical
products to the same trace run sequentially through ``engine.multiply``
— including under forced backpressure, graceful shutdown drains, and
worker-death degradation.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.csr import CSRMatrix
from repro.engine import SpGEMMEngine
from repro.serve import (
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
    SpGEMMServer,
    replay_sequential,
    replay_through_server,
    results_identical,
)
from repro.serve.server import DEFAULT_CLIENT
from repro.workloads import synthesize_trace

from conftest import random_csr


def paused_server(**cfg_kw) -> SpGEMMServer:
    """A server whose dispatcher has not started: submissions queue up,
    so the eventual ``start()`` coalesces maximally and deterministically."""
    kw = {"autostart": False}
    kw.update(cfg_kw)
    return SpGEMMServer(SpGEMMEngine(), ServeConfig(**kw))


class TestCoalescedEqualsSequential:
    def test_replay_bitwise_identical(self):
        trace = synthesize_trace(requests=30, seed=7)
        server = paused_server()
        try:
            got = replay_through_server(server, trace)
        finally:
            server.close()
        expected = replay_sequential(SpGEMMEngine(), trace)
        assert len(got) == len(expected) > 0
        assert results_identical(got, expected)
        s = server.serving_stats()
        assert s["completed"] == len(got)
        # Everything queued before dispatch → Zipf repeats must coalesce.
        assert s["coalesce_ratio"] > 1.0
        assert s["batches"] < s["requests"]

    def test_replay_identical_under_forced_backpressure(self):
        trace = synthesize_trace(requests=30, seed=7)
        server = paused_server(max_pending=3)
        try:
            # A driver trying to keep more requests in flight than the
            # queue admits runs straight into admission control.
            got = replay_through_server(server, trace, max_outstanding=10)
            stats = server.serving_stats()
        finally:
            server.close()
        assert results_identical(got, replay_sequential(SpGEMMEngine(), trace))
        assert stats["shed"] > 0  # the tiny queue really did push back
        assert stats["completed"] == len(got)

    def test_concurrent_submitters_bitwise_identical(self):
        """Racing client threads — no paused-queue determinism — still
        get byte-identical products."""
        A = random_csr(40, 40, 0.1, seed=11)
        Bs = [random_csr(40, 40, 0.1, seed=100 + i) for i in range(12)]
        expected = [SpGEMMEngine().multiply(A, B) for B in Bs]
        server = SpGEMMServer(SpGEMMEngine(), ServeConfig())
        got: list = [None] * len(Bs)
        try:

            def work(i: int) -> None:
                got[i] = server.multiply(A, Bs[i], client=f"t{i % 3}")

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(Bs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            server.close()
        assert results_identical(got, expected)
        stats = server.serving_stats()
        assert stats["requests"] == stats["completed"] == len(Bs)
        for key, total in (("submitted", "requests"), ("completed", "completed")):
            assert sum(c[key] for c in stats["clients"].values()) == stats[total]


class TestAdmissionControl:
    def test_overload_is_typed_and_carries_context(self):
        server = paused_server(max_pending=2)
        A = random_csr(20, 20, 0.2, seed=1)
        try:
            server.submit(A)
            server.submit(A)
            with pytest.raises(ServerOverloaded) as ei:
                server.submit(A)
            assert ei.value.context()["max_pending"] == 2
            assert ei.value.context()["queue_depth"] == 2
            assert server.serving_stats()["shed"] == 1
        finally:
            server.close()  # drains the two accepted requests

    def test_dimension_mismatch_rejected_before_enqueue(self):
        server = paused_server()
        try:
            with pytest.raises(ValueError, match="inner dimensions"):
                server.submit(random_csr(4, 6, 0.5, seed=2), random_csr(4, 6, 0.5, seed=3))
            assert server.serving_stats()["requests"] == 0
        finally:
            server.close()

    def test_submit_after_close_raises_server_closed(self):
        server = paused_server()
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(random_csr(5, 5, 0.5, seed=4))


class TestShutdown:
    def test_close_drains_queued_requests(self):
        server = paused_server()
        A = random_csr(25, 25, 0.15, seed=5)
        futures = [server.submit(A) for _ in range(4)]
        server.close(drain=True)
        ref = SpGEMMEngine().multiply(A)
        assert results_identical([f.result(timeout=0) for f in futures], [ref] * 4)

    def test_close_without_drain_fails_pending_futures(self):
        server = paused_server()
        futures = [server.submit(random_csr(25, 25, 0.15, seed=5)) for _ in range(3)]
        server.close(drain=False)
        for f in futures:
            with pytest.raises(ServerClosed):
                f.result(timeout=0)

    def test_close_is_idempotent(self):
        server = paused_server()
        server.close()
        server.close()

    def test_close_drains_a_never_started_server_on_the_closing_thread(self):
        server = paused_server()
        ran_on: list = []
        run_batch = server._run_batch

        def record(groups):
            ran_on.append(threading.current_thread())
            run_batch(groups)

        server._run_batch = record
        A = random_csr(25, 25, 0.15, seed=5)
        futures = [server.submit(A) for _ in range(3)]
        server.close()
        assert server._thread is None  # no dispatch thread was ever made
        assert ran_on == [threading.current_thread()]  # one drain, here
        ref = SpGEMMEngine().multiply(A)
        assert results_identical([f.result(timeout=0) for f in futures], [ref] * 3)
        stats = server.serving_stats()
        assert stats["batches"] == 1 and stats["completed"] == 3
        assert stats["fallbacks"] == 0 and stats["queue_depth"] == 0

    def test_close_without_drain_leaves_cancelled_futures_cancelled(self):
        server = paused_server()
        A = random_csr(25, 25, 0.15, seed=5)
        cancelled, pending = server.submit(A), server.submit(A)
        assert cancelled.cancel()
        server.close(drain=False)
        assert cancelled.cancelled()
        with pytest.raises(ServerClosed):
            pending.result(timeout=0)
        stats = server.serving_stats()
        assert stats["completed"] == 0 and stats["failed"] == 0


class TestWorkerDeathDegradation:
    def kill_dispatcher(self, server: SpGEMMServer) -> None:
        def boom(groups):
            raise RuntimeError("dispatch machinery died")

        server._run_batch = boom

    def test_queued_requests_survive_dispatcher_death(self):
        server = paused_server()
        A = random_csr(30, 30, 0.12, seed=6)
        futures = [server.submit(A) for _ in range(6)]
        assert futures.pop().cancel()  # dropped, not run in-process
        self.kill_dispatcher(server)
        try:
            server.start()  # the first drained batch kills the loop
            results = [f.result(timeout=10) for f in futures]
        finally:
            server.close()
        assert server.degraded
        ref = SpGEMMEngine().multiply(A)
        assert results_identical(results, [ref] * 5)
        stats = server.serving_stats()
        assert stats["fallbacks"] == stats["completed"] == 5

    def test_submissions_after_death_run_in_process(self):
        server = paused_server()
        self.kill_dispatcher(server)
        A = random_csr(30, 30, 0.12, seed=6)
        server.submit(A)  # queued
        server.start()
        try:
            # Wait for the dispatch thread to die draining that batch.
            server._thread.join(timeout=10)
            assert not server._thread.is_alive()
            assert server.degraded
            C = server.multiply(A, timeout=0)  # resolved synchronously
        finally:
            server.close()
        assert results_identical([C], [SpGEMMEngine().multiply(A)])
        stats = server.serving_stats()
        assert stats["degraded"] is True
        assert stats["fallbacks"] == 2
        assert stats["failed"] == 0


    def test_group_dispatched_before_death_runs_in_process(self):
        # The loop dies after the second group was marked running: the
        # first group's results stand, the in-flight group and the queue
        # behind it finish in-process, and a cancelled queued request
        # is dropped.
        server = paused_server()
        A1 = random_csr(30, 30, 0.12, seed=6)
        A2 = random_csr(30, 30, 0.12, seed=7)
        run_group = server._run_group
        calls = {"n": 0}

        def die_on_second(group):
            calls["n"] += 1
            if calls["n"] == 2:
                for req in group:
                    assert req.future.set_running_or_notify_cancel()
                raise RuntimeError("dispatch machinery died mid-batch")
            run_group(group)

        server._run_group = die_on_second
        futures = [server.submit(A) for A in (A1, A2, A2)]
        server.start()
        try:
            server._thread.join(timeout=10)
            assert not server._thread.is_alive()
            results = [f.result(timeout=10) for f in futures]
        finally:
            server.close()
        assert server.degraded
        ref = SpGEMMEngine()
        assert results_identical(results, [ref.multiply(A1), ref.multiply(A2), ref.multiply(A2)])
        stats = server.serving_stats()
        assert stats["batches"] == 1
        assert stats["fallbacks"] == 2
        assert stats["completed"] == 3 and stats["failed"] == 0


class TestOneDispatchThread:
    def test_server_owns_one_thread_and_plans_a_cold_pattern_once(self):
        A = random_csr(30, 30, 0.15, seed=12)
        with SpGEMMServer(SpGEMMEngine()) as server:
            server.multiply(A, timeout=10)  # cold: planned inline
            live = [t.name for t in threading.enumerate() if t.name.startswith("repro-serve-")]
            assert live == ["repro-serve-dispatch"]
        # One cold pattern under two value digests is two groups in one
        # drain; the plan cache builds their shared plan once.
        A2 = CSRMatrix(A.indptr, A.indices, 2.0 * A.values, A.shape)
        server = paused_server()
        try:
            futures = [server.submit(A), server.submit(A2)]
            server.start()
            Cs = [f.result(timeout=10) for f in futures]
            stats = server.stats()
        finally:
            server.close()
        assert stats.serving["batches"] == 2
        assert stats.plans_built == 1
        ref = SpGEMMEngine()
        assert results_identical(Cs, [ref.multiply(A), ref.multiply(A2)])

    def test_groups_preserve_arrival_order_and_split_at_max_batch(self):
        A1 = random_csr(5, 5, 0.5, seed=8)
        A2 = random_csr(5, 5, 0.5, seed=9)
        server = paused_server(max_batch=2)
        groups: list = []
        run_group = server._run_group

        def record(group):
            groups.append(group)
            run_group(group)

        server._run_group = record
        for A in (A1, A2, A1, A1, A2):
            server.submit(A)
        server.close()  # never started: drains through the dispatch loop
        # A1 first (arrived first), split 2+1; then A2.
        assert [(g[0].A is A1, len(g)) for g in groups] == [(True, 2), (True, 1), (False, 2)]
        assert server.serving_stats()["completed"] == 5

    def test_requests_queued_during_a_batch_coalesce_into_the_next_drain(self):
        # No timer: the first request dispatches alone at once, and the
        # three submitted while its batch executes form the next drain.
        entered, release = threading.Event(), threading.Event()
        drains: list = []
        server = paused_server()
        run_batch = server._run_batch

        def gated(groups):
            drains.append([len(g) for g in groups])
            entered.set()
            release.wait(timeout=10)
            run_batch(groups)

        server._run_batch = gated
        A = random_csr(5, 5, 0.5, seed=8)
        server.start()
        try:
            server.submit(A)
            assert entered.wait(timeout=10)
            for _ in range(3):
                server.submit(A)
            release.set()
        finally:
            server.close()
        assert drains == [[1], [3]]
        assert server.serving_stats()["completed"] == 4

    def test_cancelled_request_is_dropped_at_dispatch(self):
        server = paused_server()
        A = random_csr(25, 25, 0.15, seed=5)
        cancelled, kept = server.submit(A), server.submit(A)
        assert cancelled.cancel()
        server.start()
        try:
            C = kept.result(timeout=10)
        finally:
            server.close()
        assert results_identical([C], [SpGEMMEngine().multiply(A)])
        stats = server.serving_stats()
        assert stats["degraded"] is False
        assert stats["completed"] == 1
        assert stats["fallbacks"] == 0
        assert stats["latency_s"]["count"] == 1


    def test_failed_group_resolves_its_futures_and_the_dispatcher_lives(self):
        server = paused_server()
        bad = random_csr(25, 25, 0.15, seed=5)
        good = random_csr(25, 25, 0.15, seed=6)
        multiply_many = server.engine.multiply_many

        def fail_on_bad(A, Bs, **kw):
            if A is bad:
                raise RuntimeError("kernel failure")
            return multiply_many(A, Bs, **kw)

        server.engine.multiply_many = fail_on_bad
        failing = [server.submit(bad), server.submit(bad)]
        ok = server.submit(good)
        server.start()
        try:
            for f in failing:
                with pytest.raises(RuntimeError, match="kernel failure"):
                    f.result(timeout=10)
            C = ok.result(timeout=10)
            assert server._thread.is_alive()
            C2 = server.multiply(good, timeout=10)  # still served by the dispatcher
        finally:
            server.close()
        ref = SpGEMMEngine().multiply(good)
        assert results_identical([C, C2], [ref, ref])
        stats = server.serving_stats()
        assert stats["degraded"] is False
        assert stats["failed"] == 2 and stats["completed"] == 2
        assert stats["fallbacks"] == 0


class TestStatsPlumbing:
    def test_per_client_ledger(self):
        server = paused_server()
        A = random_csr(20, 20, 0.2, seed=9)
        try:
            server.submit(A, client="alpha")
            server.submit(A, client="alpha")
            server.submit(A, client="beta")
            server.submit(A)  # default client name
        finally:
            server.close()
        clients = server.client_stats()
        assert list(clients) == sorted(clients)
        assert clients["alpha"] == {"submitted": 2, "completed": 2, "failed": 0, "shed": 0}
        assert clients["beta"]["completed"] == 1
        assert clients[DEFAULT_CLIENT]["completed"] == 1

    def test_totals_are_sums_over_clients_for_every_outcome(self):
        server = paused_server(max_pending=2)
        bad = random_csr(20, 20, 0.2, seed=11)
        good = random_csr(20, 20, 0.2, seed=12)
        multiply_many = server.engine.multiply_many

        def fail_on_bad(A, Bs, **kw):
            if A is bad:
                raise RuntimeError("kernel failure")
            return multiply_many(A, Bs, **kw)

        server.engine.multiply_many = fail_on_bad
        failing = server.submit(bad, client="alpha")
        ok = server.submit(good, client="beta")
        with pytest.raises(ServerOverloaded):
            server.submit(good, client="alpha")
        server.start()
        try:
            with pytest.raises(RuntimeError, match="kernel failure"):
                failing.result(timeout=10)
            ok.result(timeout=10)
        finally:
            server.close()
        stats = server.serving_stats()
        assert stats["clients"] == {
            "alpha": {"submitted": 2, "completed": 0, "failed": 1, "shed": 1},
            "beta": {"submitted": 1, "completed": 1, "failed": 0, "shed": 0},
        }
        assert (stats["requests"], stats["completed"], stats["failed"], stats["shed"]) == (3, 1, 1, 1)

    def test_close_racing_a_submit_leaves_no_request_uncounted(self, monkeypatch):
        # A close() that lands between submit's own closing check and
        # admission turns the request away with ServerClosed: it must be
        # counted under no outcome, not as submitted only.
        import repro.serve.server as server_mod

        server = paused_server()
        A = random_csr(20, 20, 0.2, seed=13)
        digest = server_mod.pattern_digest

        def closing_digest(M):
            server.close()
            return digest(M)

        monkeypatch.setattr(server_mod, "pattern_digest", closing_digest)
        with pytest.raises(ServerClosed):
            server.submit(A, client="alpha")
        stats = server.serving_stats()
        assert (stats["requests"], stats["completed"], stats["failed"], stats["shed"]) == (0, 0, 0, 0)
        assert stats["clients"] == {}

    def test_serving_block_lands_in_engine_stats_to_dict(self):
        trace = synthesize_trace(requests=12, seed=3)
        server = paused_server()
        try:
            replay_through_server(server, trace)
            d = server.stats().to_dict()
        finally:
            server.close()
        serving = d["serving"]
        for key in ("requests", "completed", "shed", "coalesce_ratio",
                    "queue_depth", "max_queue_depth", "latency_s", "clients"):
            assert key in serving
        lat = serving["latency_s"]
        assert lat["count"] == serving["completed"] > 0
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        json.dumps(d, allow_nan=False)  # the whole snapshot stays JSON-safe

    def test_latency_percentiles_in_summary_lines(self):
        server = paused_server()
        A = random_csr(20, 20, 0.2, seed=10)
        try:
            server.submit(A)
        finally:
            server.close()
        text = server.stats().summary()
        assert "serving completed: 1" in text


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [dict(max_batch=0), dict(max_pending=0)],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            ServeConfig(**kw)
