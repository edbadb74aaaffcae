"""Socket front-end tests: wire codec exactness, JSONL RPC end-to-end,
typed errors crossing the socket, and the shutdown handshake.

JSON floats serialise via ``repr`` (shortest round-trip), so IEEE-754
doubles survive the wire bit-for-bit — the serving guarantee (bitwise
identity with sequential multiply) holds for remote clients too.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CSRMatrix
from repro.engine import SpGEMMEngine
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeRPCServer,
    ServerClosed,
    ServerOverloaded,
    SpGEMMServer,
    matrix_from_wire,
    matrix_to_wire,
    results_identical,
)

from conftest import random_csr


class TestWireCodec:
    def test_round_trip_is_bitwise(self):
        A = random_csr(30, 40, 0.1, seed=21)
        back = matrix_from_wire(json.loads(json.dumps(matrix_to_wire(A))))
        assert back.shape == A.shape
        assert back.indptr.tobytes() == A.indptr.tobytes()
        assert back.indices.tobytes() == A.indices.tobytes()
        assert back.values.tobytes() == A.values.tobytes()

    def test_awkward_floats_survive_json(self):
        """Shortest-repr floats: values with no short decimal form must
        come back as the same 64-bit pattern."""
        vals = np.array([0.1, 1 / 3, 1e-300, 1e300, -0.0, np.nextafter(1.0, 2.0)])
        A = CSRMatrix(
            indptr=np.array([0, 3, 6], dtype=np.int64),
            indices=np.array([0, 1, 2, 0, 1, 2], dtype=np.int64),
            values=vals,
            shape=(2, 3),
        )
        back = matrix_from_wire(json.loads(json.dumps(matrix_to_wire(A))))
        assert back.values.tobytes() == A.values.tobytes()

    def test_malformed_wire_raises_value_error(self):
        with pytest.raises(ValueError, match="malformed wire matrix"):
            matrix_from_wire({"shape": [2, 2]})
        with pytest.raises(ValueError, match="malformed wire matrix"):
            matrix_from_wire([1, 2, 3])


@pytest.fixture()
def rpc_pair():
    """A served engine on an ephemeral loopback port + connected client."""
    server = SpGEMMServer(SpGEMMEngine(), ServeConfig())
    rpc = ServeRPCServer(server).start()
    host, port = rpc.address
    client = ServeClient(host, port, client="test-client")
    yield server, rpc, client
    client.close()
    rpc.close()


class TestRpcEndToEnd:
    def test_ping(self, rpc_pair):
        _, _, client = rpc_pair
        assert client.ping() is True

    def test_multiply_matches_engine_bitwise(self, rpc_pair):
        server, _, client = rpc_pair
        A = random_csr(35, 35, 0.12, seed=22)
        B = random_csr(35, 35, 0.12, seed=23)
        got = [client.multiply(A, B), client.multiply(A)]
        ref = SpGEMMEngine()
        assert results_identical(got, [ref.multiply(A, B), ref.multiply(A)])
        assert server.serving_stats()["clients"]["test-client"]["completed"] == 2

    def test_stats_over_wire_include_serving_block(self, rpc_pair):
        _, _, client = rpc_pair
        A = random_csr(20, 20, 0.2, seed=24)
        client.multiply(A)
        stats = client.stats()
        assert stats["serving"]["completed"] >= 1
        assert "p95" in stats["serving"]["latency_s"]

    def test_dimension_mismatch_raises_value_error_client_side(self, rpc_pair):
        _, _, client = rpc_pair
        with pytest.raises(ValueError, match="inner dimensions"):
            client.multiply(random_csr(4, 6, 0.5, seed=25), random_csr(4, 6, 0.5, seed=26))

    def test_unknown_op_and_bad_json_are_survivable(self, rpc_pair):
        _, _, client = rpc_pair
        client._sock.sendall(b"this is not json\n")
        resp = json.loads(client._rfile.readline())
        assert resp["ok"] is False and resp["error"]["type"] == "BadRequest"
        with pytest.raises(Exception):
            client._call({"op": "frobnicate"})
        assert client.ping()  # the connection survived both

    def test_shutdown_handshake(self, rpc_pair):
        _, rpc, client = rpc_pair
        client.shutdown()
        assert rpc.wait_shutdown(timeout=10)


class TestTypedErrorsOverWire:
    def test_overload_reconstructs_with_context(self):
        server = SpGEMMServer(
            SpGEMMEngine(), ServeConfig(max_pending=1, autostart=False)
        )
        rpc = ServeRPCServer(server).start()
        host, port = rpc.address
        A = random_csr(15, 15, 0.2, seed=27)
        queued = server.submit(A)  # fills the paused queue
        try:
            with ServeClient(host, port) as client:
                with pytest.raises(ServerOverloaded) as ei:
                    client.multiply(A)
            assert ei.value.max_pending == 1
            assert ei.value.queue_depth == 1
        finally:
            rpc.close()  # drains `queued` via server.close
        assert queued.result(timeout=0) is not None

    def test_closed_server_reconstructs_server_closed(self):
        server = SpGEMMServer(SpGEMMEngine(), ServeConfig())
        rpc = ServeRPCServer(server).start()
        host, port = rpc.address
        try:
            server.close()
            with ServeClient(host, port) as client:
                with pytest.raises(ServerClosed):
                    client.multiply(random_csr(10, 10, 0.3, seed=28))
        finally:
            rpc.close()
