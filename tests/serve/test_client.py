"""Keep-alive transport: QueryClient connection reuse and the server's
request framing on a connection that outlives one request."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

import repro.serve.engine as engine_module
import repro.serve.server as server_module
from repro.exceptions import RemoteQueryError, RemoteQueryTimeoutError
from repro.obs import parse_prometheus
from repro.serve import MarginalServer, QueryClient, QueryEngine, serve_store
from repro.serve.server import MAX_BODY_BYTES, _Handler


@pytest.fixture
def accepted(monkeypatch):
    """Counts the connections every server in the test accepts."""
    count = []
    setup = _Handler.setup

    def counting_setup(handler):
        count.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(_Handler, "setup", counting_setup)
    return count


@pytest.fixture
def server(chain_synopsis, accepted):
    with MarginalServer(QueryEngine(chain_synopsis, workers=2), port=0) as srv:
        yield srv


def connections_counter(client: QueryClient) -> float:
    """``serve.http.connections`` as ``GET /metrics`` reports it."""
    family = parse_prometheus(client.metrics())["serve_http_connections_total"]
    return sum(value for _, _, value in family["samples"])


def raw_exchange(server: MarginalServer, request: bytes) -> bytes:
    """Send raw request bytes and read until the server closes."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):  # a timeout fails the test
            chunks.append(chunk)
    return b"".join(chunks)


class TestConnectionReuse:
    def test_sequential_calls_share_one_connection(
        self, server, accepted, chain_synopsis
    ):
        with QueryClient(server.url) as client:
            first = connections_counter(client)
            for _ in range(5):
                assert client.healthz()["status"] == "ok"
                table = client.marginal_table((0, 1))
                np.testing.assert_allclose(
                    table.counts, chain_synopsis.marginal((0, 1)).counts
                )
                client.batch([(0, 1), (0, 4)])
                client.stats()
            last = connections_counter(client)
        assert len(accepted) == 1
        assert first >= 1 and last == first

    def test_threads_get_one_connection_each(
        self, server, accepted, chain_synopsis
    ):
        expected = chain_synopsis.marginal((0, 4)).counts
        failures = []

        def worker(client):
            try:
                for _ in range(10):
                    counts = client.marginal_table((0, 4)).counts
                    if not np.allclose(counts, expected):
                        failures.append("wrong answer")
            except Exception as exc:  # noqa: BLE001 - the assertion
                failures.append(repr(exc))

        with QueryClient(server.url) as client:
            threads = [
                threading.Thread(target=worker, args=(client,))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert len(accepted) == 4

    def test_server_close_then_fresh_connection(
        self, server, accepted, monkeypatch
    ):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        with QueryClient(server.url) as client:
            client.healthz()
            with pytest.raises(RemoteQueryError) as excinfo:
                client.batch([(0, 1)] * 20)  # a body over 64 bytes
            assert excinfo.value.status == 400
            assert client.marginal((0, 1))["attrs"] == [0, 1]
        assert len(accepted) == 2

    def test_idle_connection_closed_by_server_is_retried(
        self, server, accepted, monkeypatch
    ):
        # handlers drop a connection idle for 0.2 s
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with QueryClient(server.url) as client:
            client.healthz()
            time.sleep(0.6)
            assert client.healthz()["status"] == "ok"
        assert len(accepted) == 2

    def test_handlers_time_out_idle_connections(self, server, monkeypatch):
        # a fixed idle timeout, so no kept-alive connection pins a
        # handler thread until shutdown
        assert 0 < _Handler.timeout <= 300
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        with socket.create_connection(server.address, timeout=5) as sock:
            # the server closes the idle connection: EOF, not a timeout
            assert sock.recv(1) == b""
        with server._lock:
            assert server._drained.wait_for(
                lambda: not server._connections, timeout=5
            )

    def test_no_answers_after_shutdown(self, chain_synopsis):
        server = MarginalServer(QueryEngine(chain_synopsis), port=0).start()
        with QueryClient(server.url) as client:
            client.healthz()
            server.shutdown()
            with pytest.raises(OSError):
                client.healthz()

    def test_keep_alive_latency_has_no_nagle_stall(self, server):
        with QueryClient(server.url) as client:
            client.marginal((0, 1))
            times = []
            for _ in range(50):
                start = time.perf_counter()
                client.marginal((0, 1))
                times.append(time.perf_counter() - start)
        # a delayed-ACK stall costs 40 ms or more per request
        assert statistics.median(times) < 0.020


class TestTypedErrors:
    def test_400_keeps_the_connection(self, server, accepted):
        with QueryClient(server.url) as client:
            with pytest.raises(RemoteQueryError) as excinfo:
                client.marginal((0, 0))
            assert excinfo.value.status == 400
            assert excinfo.value.error_type == "QueryError"
            assert excinfo.value.trace_id
            client.healthz()
        assert len(accepted) == 1

    def test_404_unknown_dataset(self, tmp_path, chain_synopsis):
        from repro.store import SynopsisStore

        store = SynopsisStore(tmp_path / "store")
        store.publish("chain", chain_synopsis)
        with serve_store(store, port=0) as srv, QueryClient(srv.url) as client:
            with pytest.raises(RemoteQueryError) as excinfo:
                client.marginal((0, 1), dataset="missing")
            assert excinfo.value.status == 404
            assert excinfo.value.trace_id
            assert client.marginal((0, 1), dataset="chain")["attrs"] == [0, 1]

    def test_504_timeout(self, chain_synopsis, monkeypatch):
        real = engine_module.reconstruct

        def slow(views, target_attrs, **kwargs):
            time.sleep(0.3)
            return real(views, target_attrs, **kwargs)

        monkeypatch.setattr(engine_module, "reconstruct", slow)
        engine = QueryEngine(chain_synopsis, workers=2)
        with MarginalServer(engine, port=0, request_timeout=0.05) as srv:
            with QueryClient(srv.url) as client:
                with pytest.raises(RemoteQueryTimeoutError) as excinfo:
                    client.marginal((0, 4))
                assert excinfo.value.status == 504
                assert excinfo.value.error_type == "QueryTimeoutError"
                assert excinfo.value.trace_id
                assert client.healthz()["status"] == "ok"


class TestRequestFraming:
    def test_unrouted_body_does_not_corrupt_next_request(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=5)
        try:
            conn.request("POST", "/v1/reload", b"{}",
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status == 400  # single-source server
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()

    @pytest.mark.parametrize("framing", [
        b"Content-Length: twelve\r\n\r\n",
        b"Content-Length: -5\r\n\r\n",
        f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    ], ids=["non-numeric", "negative", "oversized", "chunked"])
    def test_unframeable_body_400_and_close(self, server, framing):
        reply = raw_exchange(
            server,
            b"POST /v1/marginal HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n" + framing,
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["error"]["type"] == "QueryError"
