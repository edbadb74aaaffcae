"""Socket front-end: JSONL request/response framing over TCP.

Protocol (DESIGN.md §14): one JSON object per line, each request carrying
an ``op`` and an optional client-chosen ``id`` echoed back in the
response.  Requests::

    {"op": "multiply", "id": 1, "A": <wire>, "B": <wire>|null,
     "workload": null, "client": "svc-a"}
    {"op": "stats", "id": 2}
    {"op": "ping", "id": 3}
    {"op": "shutdown", "id": 4}

Responses are ``{"id": ..., "ok": true, ...}`` on success or
``{"id": ..., "ok": false, "error": {"type": ..., "message": ..., ...}}``
on failure; typed serving errors (overload, closed) keep their context
fields so :class:`ServeClient` re-raises the same exception type the
in-process API would.

Connections are handled by a :class:`socketserver.ThreadingTCPServer` —
one handler thread per connection, all funnelling into the shared
:class:`~repro.serve.server.SpGEMMServer`, whose dispatcher coalesces
the requests that concurrent connections queue while it is busy into
shared engine batches.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time

from ..core.csr import CSRMatrix
from .errors import ServeError, error_from_wire
from .server import SpGEMMServer
from .wire import matrix_from_wire, matrix_to_wire

__all__ = ["ServeRPCServer", "ServeClient"]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read JSONL requests, write JSONL responses."""

    def handle(self) -> None:
        peer = f"{self.client_address[0]}:{self.client_address[1]}"
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
            except json.JSONDecodeError as exc:
                resp = {
                    "ok": False,
                    "error": {"type": "BadRequest", "message": f"invalid JSON: {exc}"},
                }
            else:
                resp = self.server.rpc.handle_message(msg, peer=peer)
            self.wfile.write((json.dumps(resp, sort_keys=True) + "\n").encode())
            self.wfile.flush()
            if resp.get("bye"):
                break


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    rpc: "ServeRPCServer"


class ServeRPCServer:
    """TCP wrapper around one :class:`SpGEMMServer`.

    ``port=0`` (default) binds an ephemeral port; read the actual
    address from :attr:`address` after construction.  :meth:`start` runs
    ``serve_forever`` on a daemon thread; :meth:`close` stops accepting,
    then closes the underlying serving front-end (draining by default).
    """

    def __init__(
        self, server: SpGEMMServer, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.server = server
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.rpc = self
        self._thread: threading.Thread | None = None
        self._shutdown_requested = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ephemeral ports)."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ServeRPCServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._tcp.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-serve-rpc",
                daemon=True,
            )
            self._thread.start()
        return self

    # ------------------------------------------------------------------
    def handle_message(self, msg: dict, *, peer: str = "local") -> dict:
        """Dispatch one decoded request to the serving API (shared by
        every connection thread; errors become typed wire payloads)."""
        rid = msg.get("id")
        op = msg.get("op")
        try:
            if op == "ping":
                return {"id": rid, "ok": True, "op": "ping"}
            if op == "stats":
                return {"id": rid, "ok": True, "stats": self.server.stats().to_dict()}
            if op == "shutdown":
                self._shutdown_requested.set()
                return {"id": rid, "ok": True, "op": "shutdown", "bye": True}
            if op == "multiply":
                if "A" not in msg:
                    raise ValueError("multiply needs an 'A' operand")
                A = matrix_from_wire(msg["A"])
                B = matrix_from_wire(msg["B"]) if msg.get("B") is not None else None
                t0 = time.perf_counter()
                C = self.server.multiply(
                    A,
                    B,
                    workload=msg.get("workload"),
                    client=msg.get("client") or f"rpc:{peer}",
                )
                return {
                    "id": rid,
                    "ok": True,
                    "C": matrix_to_wire(C),
                    "server_seconds": time.perf_counter() - t0,
                }
            raise ValueError(f"unknown op {op!r}")
        except Exception as exc:
            payload = (
                exc.to_wire()
                if isinstance(exc, ServeError)
                else {"type": type(exc).__name__, "message": str(exc)}
            )
            return {"id": rid, "ok": False, "error": payload}

    # ------------------------------------------------------------------
    def wait_shutdown(self, timeout: float | None = None) -> bool:
        """Block until a client sent ``shutdown`` (CLI serve loop)."""
        return self._shutdown_requested.wait(timeout)

    def close(self, *, drain: bool = True) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.server.close(drain=drain)

    def __enter__(self) -> "ServeRPCServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class ServeClient:
    """Line-oriented RPC client (one socket, sequential requests).

    Typed serving errors re-raise as their original exception classes
    (:class:`~repro.serve.errors.ServerOverloaded` etc.), so remote and
    in-process callers handle backpressure identically::

        with ServeClient(host, port, client="svc-a") as rc:
            C = rc.multiply(A, B)
            print(rc.stats()["serving"]["coalesce_ratio"])
    """

    def __init__(
        self, host: str, port: int, *, client: str = "client", timeout: float = 60.0
    ) -> None:
        self.client = client
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0

    def _call(self, payload: dict) -> dict:
        self._next_id += 1
        payload["id"] = self._next_id
        self._sock.sendall((json.dumps(payload, sort_keys=True) + "\n").encode())
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        resp = json.loads(line)
        if not resp.get("ok"):
            raise error_from_wire(resp.get("error", {}))
        return resp

    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("ok"))

    def multiply(
        self, A: CSRMatrix, B: CSRMatrix | None = None, *, workload: str | None = None
    ) -> CSRMatrix:
        msg = {
            "op": "multiply",
            "A": matrix_to_wire(A),
            "B": None if B is None else matrix_to_wire(B),
            "workload": workload,
            "client": self.client,
        }
        return matrix_from_wire(self._call(msg)["C"])

    def stats(self) -> dict:
        """The server's :meth:`EngineStats.to_dict` (serving block included)."""
        return self._call({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        """Ask the server process to begin shutdown (connection closes)."""
        self._call({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
