"""``repro.serve`` — asynchronous batching front-end for the engine.

The serving tier of the ROADMAP's production north star (DESIGN.md §14):
a long-lived :class:`SpGEMMServer` accepts concurrent ``multiply``
submissions.  It owns the bounded request queue and one dispatch thread,
which drains whatever queued while it was busy and coalesces requests
that share a fingerprint into single
:meth:`~repro.engine.engine.SpGEMMEngine.multiply_many` dispatches
(plan resolved once per group, a cold one built inline).  The server
applies admission control and typed load shedding, records
p50/p95/p99 request latency through :mod:`repro.obs`, and, if its
dispatch thread dies, degrades for good to in-process execution.
:class:`ServeRPCServer` / :class:`ServeClient` expose the same API over
a JSONL TCP socket.

Quick start::

    from repro.serve import ServeConfig, SpGEMMServer

    with SpGEMMServer(config=ServeConfig(max_batch=16)) as srv:
        fut = srv.submit(A, B, client="svc-a")
        C = fut.result()
        print(srv.stats().serving["coalesce_ratio"])
"""

from .config import ServeConfig
from .driver import replay_sequential, replay_through_server, results_identical
from .errors import ServeError, ServerClosed, ServerOverloaded
from .rpc import ServeClient, ServeRPCServer
from .server import SpGEMMServer
from .wire import matrix_from_wire, matrix_to_wire

__all__ = [
    "ServeConfig",
    "SpGEMMServer",
    "ServeError",
    "ServerOverloaded",
    "ServerClosed",
    "ServeRPCServer",
    "ServeClient",
    "matrix_to_wire",
    "matrix_from_wire",
    "replay_through_server",
    "replay_sequential",
    "results_identical",
]
