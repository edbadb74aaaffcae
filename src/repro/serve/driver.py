"""Replay driver: feed a synthetic trace through the serving front-end.

The correctness story of the whole subsystem rests on one comparison:
replaying a seeded :class:`~repro.workloads.replay.Trace` through a
:class:`~repro.serve.server.SpGEMMServer` (where requests coalesce into
``multiply_many`` batches) must produce results **bitwise-identical** to
replaying the same trace sequentially through ``engine.multiply``.  Both
paths reconstruct operands via the shared
:func:`~repro.workloads.replay.trace_operands` walk, so any divergence
is a serving bug, not a data-generation artefact.

Batch-op trace requests are deliberately fanned out into individual
submissions here — re-coalescing them is exactly the dispatcher's job,
and the coalesce ratio it achieves is the benchmark's headline number.
"""

from __future__ import annotations

from collections import deque

from ..engine.engine import SpGEMMEngine
from ..workloads.replay import Trace, trace_operands
from .errors import ServerOverloaded
from .server import SpGEMMServer

__all__ = ["replay_through_server", "replay_sequential", "results_identical"]


def replay_through_server(
    server: SpGEMMServer,
    trace: Trace,
    *,
    client: str = "replay",
    max_outstanding: int | None = None,
) -> list:
    """Submit every trace request to ``server``; return the products in
    submission order.

    Flow control, not sleeping: at most ``max_outstanding`` futures
    (default: the server's ``max_pending``) are left unresolved, and a
    load-shed submission waits on the oldest future before retrying — so
    the driver applies backpressure by consuming results, and the replay
    completes even against a tiny queue.
    """
    limit = max_outstanding if max_outstanding is not None else server.config.max_pending
    pending: "deque" = deque()
    out: list = []
    for _req, A, Bs in trace_operands(trace):
        for B in Bs:
            while len(pending) >= limit:
                server.start()  # waiting on a paused dispatcher would deadlock
                out.append(pending.popleft().result())
            while True:
                try:
                    pending.append(server.submit(A, B, client=client))
                    break
                except ServerOverloaded:
                    if not pending:
                        raise  # queue full with nothing of ours in flight
                    server.start()  # paused server: waiting needs a dispatcher
                    out.append(pending.popleft().result())
    # A paused (autostart=False) server has everything queued now — start
    # it (idempotent) so the final drain below can complete.  This is the
    # deterministic-maximal-coalescing path tests and benchmarks use.
    server.start()
    out.extend(f.result() for f in pending)
    return out


def replay_sequential(engine: SpGEMMEngine, trace: Trace) -> list:
    """The comparison baseline: the same request stream, one blocking
    ``engine.multiply`` per product (no coalescing, no queueing)."""
    out: list = []
    for _req, A, Bs in trace_operands(trace):
        for B in Bs:
            out.append(engine.multiply(A, B))
    return out


def results_identical(xs, ys) -> bool:
    """Strict bitwise equality of two result lists (shape, pattern and
    IEEE-754 value bytes — ``tobytes`` comparison, so NaN payloads and
    signed zeros count too)."""
    if len(xs) != len(ys):
        return False
    for a, b in zip(xs, ys):
        if a.shape != b.shape:
            return False
        if a.indptr.tobytes() != b.indptr.tobytes():
            return False
        if a.indices.tobytes() != b.indices.tobytes():
            return False
        if a.values.tobytes() != b.values.tobytes():
            return False
    return True
