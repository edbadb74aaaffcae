"""The serving facade: concurrent submissions → coalesced engine batches.

:class:`SpGEMMServer` wraps one :class:`~repro.engine.engine.SpGEMMEngine`
behind an asynchronous submission API (DESIGN.md §14):

* :meth:`submit` validates the request (admission control), stamps it
  with its group key — ``(workload, pattern_digest, value_digest)`` of
  the left operand — and enqueues it on the
  :class:`~repro.serve.scheduler.BatchScheduler`; the caller gets a
  :class:`~concurrent.futures.Future`.
* The server's one thread, the scheduler's dispatcher, drains whatever
  is queued and hands request groups back to :meth:`_run_batch`, which
  runs them in arrival order, each through one
  :meth:`~repro.engine.engine.SpGEMMEngine.multiply_many` call: the
  group's plan is resolved **once** (a cold one is built inline, once,
  by the plan cache's single-flight ``get_or_build``), with the same
  kernels, plan keys and summation order as sequential
  :meth:`~repro.engine.engine.SpGEMMEngine.multiply`, so coalesced
  results are bitwise-identical to sequential ones.
* Per-request latency lands in a :mod:`repro.obs` histogram
  (p50/p95/p99), per-client counts in a small ledger; everything is
  mirrored into :attr:`EngineStats.serving` so the CLI's
  ``--stats-json`` reports the serving tier alongside the engine ledger.

Degradation: if the dispatch machinery dies the scheduler flips to dead
and every request — queued or future — executes in-process on the
caller's thread, counted in ``serve.fallbacks``.  :meth:`close` drains
by default and always leaves the engine ledger synced.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

from ..core.csr import CSRMatrix
from ..engine.engine import SpGEMMEngine
from ..engine.fingerprint import pattern_digest, value_digest
from ..obs import MetricsRegistry
from .config import ServeConfig
from .errors import ServerClosed, ServerOverloaded
from .scheduler import BatchScheduler, ServeRequest

__all__ = ["SpGEMMServer"]

#: Client label for per-client stats when a submission names none.
DEFAULT_CLIENT = "anon"


class SpGEMMServer:
    """Async batching front-end over one engine (module docstring).

    Parameters
    ----------
    engine:
        The engine to serve; a fresh default engine when omitted.
    config:
        :class:`~repro.serve.config.ServeConfig`; defaults throughout.
    registry:
        :class:`~repro.obs.MetricsRegistry` receiving the serving
        counters and the request-latency histogram; a private registry
        when omitted (exposed as :attr:`registry`).
    """

    def __init__(
        self,
        engine: SpGEMMEngine | None = None,
        config: ServeConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.engine = engine if engine is not None else SpGEMMEngine()
        self.config = config if config is not None else ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = self.engine.tracer
        self._latency = self.registry.histogram("serve.request_latency_s")
        self._submitted = self.registry.counter("serve.submitted")
        self._completed = self.registry.counter("serve.completed")
        self._shed = self.registry.counter("serve.shed")
        self._failed = self.registry.counter("serve.failed")
        self._fallbacks = self.registry.counter("serve.fallbacks")
        self._restarts = self.registry.counter("serve.dispatcher_restarts")
        self._batches = self.registry.counter("serve.batches")
        self._coalesced = self.registry.counter("serve.coalesced_requests")
        self._clients: dict[str, dict] = {}
        self._clients_lock = threading.Lock()
        #: Restart backoff state (monotonic deadline — never a sleep):
        #: attempts before the deadline skip straight to in-process
        #: fallback; the gate doubles on every granted restart.
        self._restart_lock = threading.Lock()
        self._restart_backoff_s = self.config.restart_backoff_s
        self._next_restart_at = 0.0
        self._closed = False
        self._scheduler = BatchScheduler(self._run_batch, self._run_inprocess, self.config)
        if self.config.autostart:
            self._scheduler.start()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatch thread (for ``autostart=False`` servers)."""
        self._scheduler.start()

    def submit(
        self,
        A: CSRMatrix,
        B: CSRMatrix | None = None,
        *,
        workload: str | None = None,
        client: str | None = None,
    ) -> "Future[CSRMatrix]":
        """Enqueue ``A @ B`` (``A²`` when ``B`` is omitted); returns a
        future resolving to the product.

        Admission control runs here, on the caller's thread: dimension
        mismatches raise :class:`ValueError` immediately (one bad
        request must not poison a coalesced batch), a full queue raises
        :class:`~repro.serve.errors.ServerOverloaded`, a closed server
        :class:`~repro.serve.errors.ServerClosed`.  The operand digests
        are also computed here, spreading the O(nnz) hashing cost across
        client threads instead of serialising it on the dispatcher.
        """
        if self._closed:
            raise ServerClosed()
        Bx = A if B is None else B
        if A.ncols != Bx.nrows:
            raise ValueError(f"inner dimensions differ: {A.shape} x {Bx.shape}")
        wl = workload or SpGEMMEngine._infer_workload(A, B)
        name = client or DEFAULT_CLIENT
        req = ServeRequest(
            A=A,
            B=B,
            workload=wl,
            client=name,
            group_key=(wl, pattern_digest(A), value_digest(A)),
            submitted=time.perf_counter(),
        )
        self._submitted.inc()
        self._client_bump(name, "submitted")
        try:
            accepted = self._scheduler.submit(req)
        except ServerOverloaded:
            self._shed.inc()
            self._client_bump(name, "shed")
            raise
        if not accepted and self._try_restart():
            # Dispatcher died but a bounded restart succeeded: resubmit
            # to the fresh dispatch thread (admission re-checked).
            try:
                accepted = self._scheduler.submit(req)
            except ServerOverloaded:
                self._shed.inc()
                self._client_bump(name, "shed")
                raise
        if not accepted:
            # Dispatcher dead: degrade to synchronous in-process
            # execution on the caller's thread.
            self._fallbacks.inc()
            self._run_inprocess(req)
        return req.future

    def _try_restart(self) -> bool:
        """One backoff-gated :meth:`BatchScheduler.restart` attempt.

        Never blocks: before the current monotonic deadline the attempt
        is skipped (the caller falls back in-process), and each granted
        restart doubles the gate — a crash-looping dispatcher converges
        to permanent degraded mode once
        :attr:`ServeConfig.max_restarts` is spent.
        """
        with self._restart_lock:
            now = time.monotonic()
            if now < self._next_restart_at:
                return False
            if not self._scheduler.restart():
                return False
            self._next_restart_at = now + self._restart_backoff_s
            self._restart_backoff_s *= 2
        self._restarts.inc()
        if self.tracer.enabled:
            self.tracer.event("serve.dispatcher_restart", restarts=int(self._restarts.value))
        return True

    def multiply(
        self,
        A: CSRMatrix,
        B: CSRMatrix | None = None,
        *,
        workload: str | None = None,
        client: str | None = None,
        timeout: float | None = None,
    ) -> CSRMatrix:
        """Blocking convenience wrapper: ``submit(...).result(timeout)``."""
        return self.submit(A, B, workload=workload, client=client).result(timeout)

    # ------------------------------------------------------------------
    # Dispatch (scheduler thread)
    # ------------------------------------------------------------------
    def _run_batch(self, groups: "list[list[ServeRequest]]") -> None:
        """Execute one drained batch, group by group in arrival order."""
        if self.tracer.enabled:
            self.tracer.event(
                "serve.batch", groups=len(groups), requests=sum(len(g) for g in groups)
            )
        for group in groups:
            self._run_group(group)

    def _run_group(self, group: "list[ServeRequest]") -> None:
        """One coalesced ``multiply_many`` call; request-level failures
        resolve the group's futures instead of killing the dispatcher."""
        first = group[0]
        Bs = [r.A if r.B is None else r.B for r in group]
        try:
            Cs = self.engine.multiply_many(first.A, Bs, workload=first.workload)
        except Exception as exc:
            for req in group:
                self._fail(req, exc)
            return
        self._batches.inc()
        self._coalesced.inc(len(group))
        for req, C in zip(group, Cs):
            self._finish(req, C)

    # ------------------------------------------------------------------
    # Completion paths
    # ------------------------------------------------------------------
    def _run_inprocess(self, req: ServeRequest) -> None:
        """Degraded mode: execute one request synchronously; never raises
        (the scheduler drains dead-worker leftovers through here)."""
        try:
            C = self.engine.multiply(req.A, req.B, workload=req.workload)
        except Exception as exc:
            self._fail(req, exc)
        else:
            self._finish(req, C)

    def _finish(self, req: ServeRequest, C: CSRMatrix) -> None:
        self._latency.observe(time.perf_counter() - req.submitted)
        self._completed.inc()
        self._client_bump(req.client, "completed")
        req.future.set_result(C)

    def _fail(self, req: ServeRequest, exc: Exception) -> None:
        self._failed.inc()
        self._client_bump(req.client, "failed")
        if not req.future.done():
            req.future.set_exception(exc)

    def _client_bump(self, name: str, key: str) -> None:
        with self._clients_lock:
            entry = self._clients.get(name)
            if entry is None:
                entry = self._clients[name] = {
                    "submitted": 0,
                    "completed": 0,
                    "failed": 0,
                    "shed": 0,
                }
            entry[key] += 1

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """``True`` once the dispatcher has died and requests run
        in-process on caller threads."""
        return self._scheduler.dead

    def client_stats(self) -> dict:
        """Per-client request counts, sorted by client name."""
        with self._clients_lock:
            return {name: dict(self._clients[name]) for name in sorted(self._clients)}

    def serving_stats(self) -> dict:
        """The serving-tier metrics block (JSON-safe): request/shed/
        fallback counts, coalescing ratio, queue depths and latency
        percentiles."""
        batches = self._batches.value
        completed = self._completed.value
        coalesced = self._coalesced.value
        return {
            "requests": self._submitted.value,
            "completed": completed,
            "shed": self._shed.value,
            "failed": self._failed.value,
            "fallbacks": self._fallbacks.value,
            "dispatcher_restarts": self._restarts.value,
            "batches": batches,
            "coalesced_requests": coalesced,
            # Mean requests per engine dispatch — 1.0 means no
            # coalescing happened, N means N requests shared one plan
            # resolution.  Fallback executions bypass batching and are
            # deliberately excluded (they have no batch to amortise).
            "coalesce_ratio": (coalesced / batches) if batches else 0.0,
            "queue_depth": self._scheduler.depth(),
            "max_queue_depth": self._scheduler.max_depth,
            "degraded": self._scheduler.dead,
            "latency_s": self._latency.to_dict(),
            "clients": self.client_stats(),
        }

    def sync_stats(self) -> None:
        """Mirror :meth:`serving_stats` into the engine ledger
        (:attr:`EngineStats.serving`)."""
        self.engine.record_serving(self.serving_stats())

    def stats(self):
        """Engine stats snapshot with the serving block freshly synced."""
        self.sync_stats()
        return self.engine.stats()

    def close(self, *, drain: bool = True) -> None:
        """Graceful shutdown: stop admissions, drain (default) or reject
        the queue, sync the ledger.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._scheduler.close(drain=drain)
        self.sync_stats()

    def __enter__(self) -> "SpGEMMServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("degraded" if self.degraded else "open")
        return (
            f"SpGEMMServer({state}, submitted={int(self._submitted.value)}, "
            f"queue={self._scheduler.depth()}/{self.config.max_pending})"
        )
