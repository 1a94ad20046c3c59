"""Stdlib client for the marginal-serving protocol.

Example::

    from repro.serve import QueryClient

    client = QueryClient("http://127.0.0.1:8177")
    client.healthz()["status"]              # "ok"
    payload = client.marginal((0, 3, 5))    # raw protocol dict
    table = client.marginal_table((0, 3, 5))  # a MarginalTable

Against a store-backed server (``repro store serve``), pass
``dataset=`` to target one published dataset, or construct the client
with a default: ``QueryClient(url, dataset="adult")``::

    client.datasets()                        # what's published
    client.marginal((0, 3), dataset="msnbc")
    client.reload()                          # hot-swap new versions

Tracing: construct with ``trace=True`` (or ``trace_sample_rate=``) and
every request carries a fresh ``traceparent`` header; the server
adopts the trace id, tags its spans with it and echoes it back — read
``client.last_trace`` after any call to correlate with server-side
records.  An active :func:`repro.obs.trace_scope` on the calling
thread takes precedence, so one trace id can span several calls.

Server-side errors come back as typed exceptions carrying the
structured body the server returned: ``504`` →
:class:`~repro.exceptions.RemoteQueryTimeoutError` (also a
:class:`QueryTimeoutError`), anything else ≥ 400 →
:class:`~repro.exceptions.RemoteQueryError` with ``status``,
``error_type``, ``request_id`` and ``trace_id`` attributes.

Transport: HTTP/1.1 keep-alive over :mod:`http.client`.  Each calling
thread gets one persistent connection, opened on its first call and
reused after.  A connection is dropped when the server answers
``Connection: close`` or a call on it raises.  A call on a reused
connection that the server closed while it sat idle fails before any
response arrives, and is retried once on a fresh connection; nothing
is retried on a fresh connection or after a timeout.  Use the client
as a context manager, or call :meth:`QueryClient.close`, to close its
connections::

    with QueryClient("http://127.0.0.1:8177") as client:
        client.marginal((0, 3))
"""

from __future__ import annotations

import http.client
import json
import threading
from urllib.parse import quote, urlsplit

from repro.exceptions import RemoteQueryError, RemoteQueryTimeoutError
from repro.marginals.table import MarginalTable
from repro.obs import propagation
from repro.serve.protocol import decode_table

#: How a reused connection fails when the server closed it while idle:
#: the request never reached a handler, so it is safe to send again.
_STALE = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError
)


class QueryClient:
    """Talks to a :class:`repro.serve.MarginalServer`."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        dataset: str | None = None,
        trace: bool = False,
        trace_sample_rate: float | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"not an http:// URL: {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port
        self._prefix = parts.path
        self.timeout = timeout
        self.dataset = dataset
        if trace_sample_rate is None:
            trace_sample_rate = 1.0 if trace else 0.0
        self.trace_sample_rate = float(trace_sample_rate)
        #: The ``trace`` block of the most recent response (or the
        #: error body's), e.g. ``{"trace_id", "request_id", "sampled"}``.
        self.last_trace: dict | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: set[http.client.HTTPConnection] = set()

    def close(self) -> None:
        """Close every connection this client opened, in any thread.

        A connection stays open until then, even after the thread that
        used it has exited.  The client stays usable: a later call
        opens a new connection.
        """
        with self._lock:
            connections, self._connections = self._connections, set()
        for conn in connections:
            conn.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _query_path(self, action: str, dataset: str | None) -> str:
        """``/v1/marginal`` or ``/v1/d/{name}/marginal``."""
        dataset = dataset if dataset is not None else self.dataset
        if dataset is None:
            return f"/v1/{action}"
        return f"/v1/d/{quote(dataset, safe='')}/{action}"

    def _trace_context(self) -> propagation.TraceContext | None:
        """The context to send: the calling thread's scope, else a
        fresh head-sampled one, else None (no header)."""
        current = propagation.current_context()
        if current is not None:
            return current.child()
        if self.trace_sample_rate > 0:
            return propagation.sampled_context(self.trace_sample_rate)
        return None

    # ------------------------------------------------------------------
    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """The calling thread's connection, and whether it is open."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and conn.sock is not None:
            return conn, True
        # none yet, or closed by close(): connects on first request
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout
        )
        self._local.conn = conn
        with self._lock:
            self._connections.add(conn)
        return conn, False

    def _drop(self, conn: http.client.HTTPConnection) -> None:
        conn.close()
        with self._lock:
            self._connections.discard(conn)
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> bytes:
        """One request on the calling thread's connection; returns the
        response body, or raises the typed error a non-2xx status
        carries."""
        url = self._prefix + path
        conn, reused = self._connection()
        try:
            try:
                conn.request(method, url, body, headers)
                response = conn.getresponse()
            except _STALE:
                if not reused:
                    raise
                self._drop(conn)
                conn, _ = self._connection()
                conn.request(method, url, body, headers)
                response = conn.getresponse()
            data = response.read()
        except BaseException:
            self._drop(conn)
            raise
        if response.will_close:
            self._drop(conn)
        if not 200 <= response.status < 300:
            raise self._decode_error(response.status, data)
        return data

    def _request(self, path: str, payload: dict | None = None) -> dict:
        headers = {"Accept": "application/json"}
        context = self._trace_context()
        if context is not None:
            headers[propagation.TRACEPARENT_HEADER] = context.traceparent
        if payload is None:
            raw = self._exchange("GET", path, None, headers)
        else:
            headers["Content-Type"] = "application/json"
            data = json.dumps(payload).encode("utf-8")
            raw = self._exchange("POST", path, data, headers)
        body = json.loads(raw)
        if isinstance(body, dict):
            self.last_trace = body.get("trace")
        return body

    def _decode_error(self, status: int, raw: bytes) -> RemoteQueryError:
        error_type = None
        trace: dict = {}
        try:
            body = json.loads(raw)
            detail = body["error"]
            error_type = detail.get("type")
            trace = body.get("trace") or {}
            message = f"{error_type}: {detail['message']}"
        except Exception:
            message = f"HTTP {status}"
        self.last_trace = trace or None
        cls = RemoteQueryTimeoutError if status == 504 else RemoteQueryError
        return cls(
            f"server rejected request ({status}): {message}",
            status=status,
            error_type=error_type,
            request_id=trace.get("request_id"),
            trace_id=trace.get("trace_id"),
        )

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("/healthz")

    def stats(self) -> dict:
        return self._request("/stats")

    def metrics(self) -> str:
        """The server's raw Prometheus exposition text."""
        raw = self._exchange("GET", "/metrics", None, {"Accept": "text/plain"})
        return raw.decode("utf-8")

    def datasets(self) -> list[dict]:
        """Published datasets on a store-backed server."""
        return self._request("/v1/datasets")["datasets"]

    def reload(self) -> dict:
        """Hot-swap newly published versions on a store-backed server."""
        return self._request("/v1/reload", {})

    def marginal(
        self, attrs, method: str | None = None, dataset: str | None = None
    ) -> dict:
        """One marginal query; returns the raw answer payload."""
        body = {"attrs": [int(a) for a in attrs]}
        if method is not None:
            body["method"] = method
        return self._request(self._query_path("marginal", dataset), body)

    def marginal_table(
        self, attrs, method: str | None = None, dataset: str | None = None
    ) -> MarginalTable:
        """One marginal query, decoded into a :class:`MarginalTable`."""
        return decode_table(
            self.marginal(attrs, method=method, dataset=dataset)
        )

    def batch(
        self, queries, method: str | None = None, dataset: str | None = None
    ) -> dict:
        """A workload of queries; returns the raw batch payload.

        ``queries`` entries are attribute iterables or
        ``(attrs, method)`` pairs.
        """
        encoded = []
        for query in queries:
            if (
                isinstance(query, tuple)
                and len(query) == 2
                and isinstance(query[1], str)
            ):
                attrs, query_method = query
                encoded.append(
                    {"attrs": [int(a) for a in attrs], "method": query_method}
                )
            else:
                encoded.append({"attrs": [int(a) for a in query]})
        body: dict = {"queries": encoded}
        if method is not None:
            body["method"] = method
        return self._request(self._query_path("batch", dataset), body)

    def sample(
        self,
        n: int = 100,
        seed: int | None = None,
        decode: bool = False,
        dataset: str | None = None,
    ) -> dict:
        """Draw ``n`` synthetic records; returns the raw payload.

        ``records`` rows are integer codes in ``attributes`` order, or
        decoded values with ``decode=True``.  Pure post-processing of
        the published synopsis — no privacy budget is spent.
        """
        body: dict = {"n": int(n)}
        if seed is not None:
            body["seed"] = int(seed)
        if decode:
            body["decode"] = True
        return self._request(self._query_path("sample", dataset), body)

    def batch_tables(
        self, queries, method: str | None = None, dataset: str | None = None
    ) -> list[MarginalTable]:
        """A workload of queries, decoded into tables (input order)."""
        payload = self.batch(queries, method=method, dataset=dataset)
        return [decode_table(answer) for answer in payload["answers"]]

    # ------------------------------------------------------------------
    # Stream windows (store-backed servers)
    # ------------------------------------------------------------------
    def windows(self, dataset: str | None = None) -> list[dict]:
        """Stream windows released for a dataset (oldest first)."""
        dataset = dataset if dataset is not None else self.dataset
        if dataset is None:
            raise RemoteQueryError(
                "windows() needs a dataset (pass dataset= or construct "
                "the client with one)"
            )
        path = f"/v1/d/{quote(dataset, safe='')}/windows"
        return self._request(path)["windows"]

    def window_marginal(
        self,
        attrs,
        last: int | None = None,
        windows=None,
        method: str | None = None,
        dataset: str | None = None,
    ) -> dict:
        """Time-sliced marginal: per-window answers plus their union.

        ``last`` selects the newest ``k`` windows, ``windows`` explicit
        window indices; neither selects every released window.
        """
        body: dict = {"attrs": [int(a) for a in attrs]}
        if method is not None:
            body["method"] = method
        if last is not None:
            body["last"] = int(last)
        if windows is not None:
            body["windows"] = [int(w) for w in windows]
        return self._request(
            self._query_path("windows/marginal", dataset), body
        )

    def window_union_table(self, attrs, **kwargs) -> MarginalTable:
        """The union table of a :meth:`window_marginal` call."""
        payload = self.window_marginal(attrs, **kwargs)
        return MarginalTable(
            tuple(payload["attrs"]), payload["union"]["counts"]
        )
