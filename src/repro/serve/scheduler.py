"""Request queue + batching dispatcher for the serving front-end.

The :class:`BatchScheduler` owns a bounded FIFO of
:class:`ServeRequest` objects and one dispatch thread.  Each cycle it

1. blocks until a request arrives (condition wait — **never**
   ``time.sleep``, so shutdown can interrupt any wait immediately),
2. drains whatever is queued at that instant (there is no timer: the
   requests that arrived while the previous batch executed are what
   coalesces),
3. groups requests by ``group_key`` (same workload + pattern + values →
   eligible for one ``multiply_many`` call) preserving arrival order,
   splits oversized groups, and
4. hands the grouped batch to the server's ``run_batch`` callback.

Admission control lives in :meth:`BatchScheduler.submit`: a full queue
sheds the request with :class:`~repro.serve.errors.ServerOverloaded`
*before* it is enqueued, so backpressure is a typed, immediate signal.

Worker-death degradation: if the dispatch loop itself dies, the scheduler marks itself
dead, drains every queued request through the server's per-request
``fallback`` callback (in-process execution), and every later
:meth:`submit` returns ``False`` so the server runs the request on the
caller's thread — the service degrades to a slower synchronous engine
instead of hanging futures.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from ..core.csr import CSRMatrix
from .config import ServeConfig
from .errors import ServerClosed, ServerOverloaded

__all__ = ["ServeRequest", "BatchScheduler"]


@dataclass
class ServeRequest:
    """One queued multiply: operands, identity, and the caller's future."""

    A: CSRMatrix
    B: CSRMatrix | None
    workload: str
    client: str
    #: ``(workload, pattern_digest(A), value_digest(A))`` — requests
    #: sharing this key multiply the *same* left operand and may legally
    #: coalesce into one ``multiply_many`` call.
    group_key: tuple
    future: Future = field(default_factory=Future)
    #: ``perf_counter`` at submission — the latency histogram's origin.
    submitted: float = 0.0


class BatchScheduler:
    """Bounded queue + draining dispatch thread (module docstring).

    Parameters
    ----------
    run_batch:
        Called on the dispatch thread with a list of request groups
        (each a non-empty list sharing one ``group_key``), in arrival
        order of each group's first member.  Request-level failures must
        be handled inside (set on the futures); an escaping exception is
        treated as worker death.
    fallback:
        Called once per request when the dispatch machinery has died
        (drain) — must execute the request in-process and resolve its
        future, never raise.
    config:
        The owning server's :class:`~repro.serve.config.ServeConfig`.
    """

    def __init__(
        self,
        run_batch: Callable[[list[list[ServeRequest]]], None],
        fallback: Callable[[ServeRequest], None],
        config: ServeConfig,
    ) -> None:
        self._run_batch = run_batch
        self._fallback = fallback
        self.cfg = config
        self._queue: "deque[ServeRequest]" = deque()
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._closing = False
        self._dead = False
        self._restarts = 0  # lifetime restart() successes (under _cond)
        self.max_depth = 0  # high-water mark of the queue (under _cond)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatch thread (idempotent; no-op once closing/dead)."""
        with self._cond:
            if self._thread is not None or self._closing or self._dead:
                return
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-dispatch", daemon=True
            )
            self._thread.start()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def dead(self) -> bool:
        return self._dead

    @property
    def restarts(self) -> int:
        return self._restarts

    def restart(self) -> bool:
        """Bounded dead-dispatcher recovery: clear the dead flag and
        start a fresh dispatch thread.

        Returns ``False`` — leaving the scheduler in degraded mode —
        when the scheduler is not dead, is closing, or has exhausted its
        :attr:`ServeConfig.max_restarts` budget.  By the time the
        dispatcher died it had already drained its queue through the
        fallback callback, so the new thread starts from an empty queue
        and ordinary :meth:`submit`/:meth:`close` semantics (including
        ``close(drain=True)``) resume unchanged.
        """
        with self._cond:
            if not self._dead or self._closing:
                return False
            if self._restarts >= self.cfg.max_restarts:
                return False
            self._restarts += 1
            self._dead = False
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-dispatch", daemon=True
            )
            self._thread.start()
            return True

    def depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self, *, drain: bool = True) -> None:
        """Stop dispatching.  ``drain=True`` processes everything still
        queued first (one final maximal batch); ``drain=False`` fails
        pending futures with :class:`ServerClosed`."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            rejected: list[ServeRequest] = []
            if not drain:
                rejected = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        for req in rejected:
            if not req.future.done():
                req.future.set_exception(ServerClosed("server closed before dispatch"))
        thread = self._thread
        if thread is not None:
            thread.join()
        elif drain and not self._dead:
            # Never started (autostart=False): drain synchronously on the
            # closer's thread so close(drain=True) keeps its promise.
            self._drain_once()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, req: ServeRequest) -> bool:
        """Enqueue ``req``; ``False`` means the scheduler is dead and the
        caller must execute in-process (degraded mode).

        Raises :class:`ServerOverloaded` when the queue is full and
        :class:`ServerClosed` once shutdown has begun.
        """
        with self._cond:
            if self._closing:
                raise ServerClosed("server is shutting down; submission rejected")
            if self._dead:
                return False
            depth = len(self._queue)
            if depth >= self.cfg.max_pending:
                raise ServerOverloaded(depth, self.cfg.max_pending)
            self._queue.append(req)
            self.max_depth = max(self.max_depth, len(self._queue))
            self._cond.notify()
            return True

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        batch: list[ServeRequest] = []
        try:
            while True:
                got = self._next_batch()
                if got is None:
                    return
                batch = got
                self._run_batch(self._group(batch))
                batch = []
        except Exception:
            # Worker death: the dispatch machinery (not a request) failed.
            # Degrade rather than hang — mark dead, then resolve the
            # in-flight batch and every queued request in-process via the
            # fallback callback.
            with self._cond:
                self._dead = True
                leftovers = list(self._queue)
                self._queue.clear()
                self._cond.notify_all()
            for req in [*batch, *leftovers]:
                if not req.future.done():
                    self._fallback(req)

    def _next_batch(self) -> "list[ServeRequest] | None":
        """Block for work, then drain the queue.

        Returns ``None`` exactly once: when closing and the queue is
        empty (the loop's exit signal).
        """
        with self._cond:
            while not self._queue and not self._closing:
                self._cond.wait()
            if not self._queue:
                return None
            batch = list(self._queue)
            self._queue.clear()
            return batch

    def _group(self, batch: "list[ServeRequest]") -> "list[list[ServeRequest]]":
        """Group by ``group_key`` preserving arrival order, splitting
        groups larger than ``max_batch``."""
        grouped: "OrderedDict[tuple, list[ServeRequest]]" = OrderedDict()
        for req in batch:
            grouped.setdefault(req.group_key, []).append(req)
        out: list[list[ServeRequest]] = []
        for reqs in grouped.values():
            for i in range(0, len(reqs), self.cfg.max_batch):
                out.append(reqs[i : i + self.cfg.max_batch])
        return out

    def _drain_once(self) -> None:
        """Synchronous final drain for a never-started scheduler."""
        with self._cond:
            batch = list(self._queue)
            self._queue.clear()
        if not batch:
            return
        try:
            self._run_batch(self._group(batch))
        except Exception:
            self._dead = True
            for req in batch:
                if not req.future.done():
                    self._fallback(req)
