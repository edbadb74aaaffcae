"""The serving facade: concurrent submissions → coalesced engine batches.

:class:`SpGEMMServer` wraps one :class:`~repro.engine.engine.SpGEMMEngine`
behind an asynchronous submission API (DESIGN.md §14).  It owns the
bounded FIFO, the condition variable guarding it and the one
``repro-serve-dispatch`` thread:

* :meth:`submit` validates the request (admission control), stamps it
  with its group key — ``(workload, pattern_digest, value_digest)`` of
  the left operand — and enqueues it; a full queue sheds the request
  with :class:`~repro.serve.errors.ServerOverloaded` *before* it is
  enqueued.  The caller gets a :class:`~concurrent.futures.Future`.
* The dispatch thread blocks on the condition variable (**never**
  ``time.sleep``, so :meth:`close` interrupts any wait at once) until a
  request arrives, then drains whatever is queued — there is no timer:
  the requests that arrived while the previous batch executed are what
  coalesces.  It groups the drain by key in arrival order, splits
  groups at ``max_batch`` and runs each group through one
  :meth:`~repro.engine.engine.SpGEMMEngine.multiply_many` call: the
  group's plan is resolved **once** (a cold one is built inline, once,
  by the plan cache's single-flight ``get_or_build``), with the same
  kernels, plan keys and summation order as sequential
  :meth:`~repro.engine.engine.SpGEMMEngine.multiply`, so coalesced
  results are bitwise-identical to sequential ones.
* A request's future is marked running when its group is dispatched; a
  request cancelled before then is dropped, never executed or counted.
* Per-request latency lands in a :mod:`repro.obs` histogram
  (p50/p95/p99), per-client counts in a small ledger; everything is
  mirrored into :attr:`EngineStats.serving` so the CLI's
  ``--stats-json`` reports the serving tier alongside the engine ledger.

Degradation: if the dispatch loop itself dies, the server turns
degraded for good.  The in-flight batch and every queued request run
in-process, and every later submission runs on the caller's thread;
each of them is counted in ``serve.fallbacks``.  :meth:`close` drains
by default (on the closing thread when the dispatcher never started)
and always leaves the engine ledger synced.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..core.csr import CSRMatrix
from ..engine.engine import SpGEMMEngine
from ..engine.fingerprint import pattern_digest, value_digest
from ..obs import MetricsRegistry
from .config import ServeConfig
from .errors import ServerClosed, ServerOverloaded

__all__ = ["SpGEMMServer"]

#: Client label for per-client stats when a submission names none.
DEFAULT_CLIENT = "anon"


@dataclass
class _Request:
    """One queued multiply: operands, identity, and the caller's future."""

    A: CSRMatrix
    B: CSRMatrix | None
    workload: str
    client: str
    #: ``(workload, pattern_digest(A), value_digest(A))`` — requests
    #: sharing this key multiply the *same* left operand and may legally
    #: coalesce into one ``multiply_many`` call.
    group_key: tuple
    #: ``perf_counter`` at submission — the latency histogram's origin.
    submitted: float
    future: Future = field(default_factory=Future)


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
        self._batches = self.registry.counter("serve.batches")
        self._coalesced = self.registry.counter("serve.coalesced_requests")
        self._clients: dict[str, dict] = {}
        self._clients_lock = threading.Lock()
        # Queue state, all guarded by _cond.
        self._cond = threading.Condition()
        self._queue: "deque[_Request]" = deque()
        self._max_depth = 0
        self._thread: threading.Thread | None = None
        self._closing = False
        self._dead = False
        if self.config.autostart:
            self.start()

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatch thread (for ``autostart=False`` servers;
        idempotent, and a no-op once closing)."""
        with self._cond:
            if self._thread is not None or self._closing:
                return
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-dispatch", daemon=True
            )
            self._thread.start()

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
        if self._closing:
            raise ServerClosed()
        Bx = A if B is None else B
        if A.ncols != Bx.nrows:
            raise ValueError(f"inner dimensions differ: {A.shape} x {Bx.shape}")
        wl = workload or SpGEMMEngine._infer_workload(A, B)
        name = client or DEFAULT_CLIENT
        req = _Request(
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
            queued = self._admit(req)
        except ServerOverloaded:
            self._shed.inc()
            self._client_bump(name, "shed")
            raise
        if not queued:
            # Dispatcher dead: run on the caller's thread.
            self._run_inprocess(req)
        return req.future

    def _admit(self, req: _Request) -> bool:
        """Enqueue ``req``; ``False`` means the dispatcher has died and
        the caller must run it in-process."""
        with self._cond:
            if self._closing:
                raise ServerClosed("server is shutting down; submission rejected")
            if self._dead:
                return False
            depth = len(self._queue)
            if depth >= self.config.max_pending:
                raise ServerOverloaded(depth, self.config.max_pending)
            self._queue.append(req)
            self._max_depth = max(self._max_depth, depth + 1)
            self._cond.notify()
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
    # Dispatch loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        """Drain and run batches until closing empties the queue.

        Runs on the dispatch thread, or on the closing thread when
        ``close(drain=True)`` finds the dispatcher never started.  An
        escaping exception is worker death: the server turns degraded
        and runs the in-flight batch and the queue in-process.
        """
        batch: list[_Request] = []
        try:
            while True:
                with self._cond:
                    while not self._queue and not self._closing:
                        self._cond.wait()
                    if not self._queue:
                        return
                    batch = list(self._queue)
                    self._queue.clear()
                self._run_batch(self._group(batch))
                batch = []
        except Exception:
            with self._cond:
                self._dead = True
                leftovers = list(self._queue)
                self._queue.clear()
            for req in [*batch, *leftovers]:
                if not req.future.done():
                    self._run_inprocess(req)

    def _group(self, batch: "list[_Request]") -> "list[list[_Request]]":
        """Group by ``group_key`` preserving arrival order, splitting
        groups larger than ``max_batch``."""
        grouped: "OrderedDict[tuple, list[_Request]]" = OrderedDict()
        for req in batch:
            grouped.setdefault(req.group_key, []).append(req)
        out: list[list[_Request]] = []
        for reqs in grouped.values():
            for i in range(0, len(reqs), self.config.max_batch):
                out.append(reqs[i : i + self.config.max_batch])
        return out

    def _run_batch(self, groups: "list[list[_Request]]") -> None:
        """Execute one drained batch, group by group in arrival order."""
        if self.tracer.enabled:
            self.tracer.event(
                "serve.batch", groups=len(groups), requests=sum(len(g) for g in groups)
            )
        for group in groups:
            self._run_group(group)

    def _run_group(self, group: "list[_Request]") -> None:
        """One coalesced ``multiply_many`` call; request-level failures
        resolve the group's futures instead of killing the dispatcher."""
        group = [r for r in group if r.future.set_running_or_notify_cancel()]
        if not group:
            return
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
    def _run_inprocess(self, req: _Request) -> None:
        """Degraded mode: execute one request synchronously; never raises.

        In-flight members whose group was dispatched before the death
        are already running; any other request is marked running here,
        or dropped if it was cancelled.
        """
        if not (req.future.running() or req.future.set_running_or_notify_cancel()):
            return
        self._fallbacks.inc()
        try:
            C = self.engine.multiply(req.A, req.B, workload=req.workload)
        except Exception as exc:
            self._fail(req, exc)
        else:
            self._finish(req, C)

    def _finish(self, req: _Request, C: CSRMatrix) -> None:
        self._latency.observe(time.perf_counter() - req.submitted)
        self._completed.inc()
        self._client_bump(req.client, "completed")
        req.future.set_result(C)

    def _fail(self, req: _Request, exc: Exception) -> None:
        self._failed.inc()
        self._client_bump(req.client, "failed")
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
        return self._dead

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
        with self._cond:
            depth, max_depth = len(self._queue), self._max_depth
        return {
            "requests": self._submitted.value,
            "completed": completed,
            "shed": self._shed.value,
            "failed": self._failed.value,
            "fallbacks": self._fallbacks.value,
            "batches": batches,
            "coalesced_requests": coalesced,
            # Mean requests per engine dispatch — 1.0 means no
            # coalescing happened, N means N requests shared one plan
            # resolution.  Fallback executions bypass batching and are
            # deliberately excluded (they have no batch to amortise).
            "coalesce_ratio": (coalesced / batches) if batches else 0.0,
            "queue_depth": depth,
            "max_queue_depth": max_depth,
            "degraded": self._dead,
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
        the queue, sync the ledger.  Idempotent.

        ``drain=True`` runs everything still queued first — on the
        dispatch thread, or through the same loop on this thread when
        the dispatcher never started; ``drain=False`` fails pending
        futures with :class:`ServerClosed`.
        """
        with self._cond:
            if self._closing:
                return
            self._closing = True
            rejected: list[_Request] = []
            if not drain:
                rejected = list(self._queue)
                self._queue.clear()
            thread = self._thread
            self._cond.notify_all()
        for req in rejected:
            if req.future.set_running_or_notify_cancel():
                req.future.set_exception(ServerClosed("server closed before dispatch"))
        if thread is not None:
            thread.join()
        elif drain:
            self._loop()
        self.sync_stats()

    def __enter__(self) -> "SpGEMMServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closing else ("degraded" if self.degraded else "open")
        with self._cond:
            depth = len(self._queue)
        return (
            f"SpGEMMServer({state}, submitted={int(self._submitted.value)}, "
            f"queue={depth}/{self.config.max_pending})"
        )
