"""Stdlib HTTP server exposing a :class:`QueryEngine` — or a fleet of
them backed by a :class:`~repro.store.SynopsisStore`.

Single-source endpoints (JSON protocol in :mod:`repro.serve.protocol`):

* ``POST /v1/marginal`` — answer one marginal query;
* ``POST /v1/batch``    — answer a de-duplicated workload;
* ``POST /v1/sample``   — draw synthetic records (post-processing of
  the published views: zero additional privacy budget);
* ``GET  /healthz``     — liveness + synopsis identity;
* ``GET  /stats``       — planner-path / cache statistics.

Store-backed (multi-dataset) endpoints, when constructed with
``store=`` / ``router=`` (see ``docs/STORE.md``):

* ``POST /v1/d/{name}/marginal``, ``POST /v1/d/{name}/batch`` and
  ``POST /v1/d/{name}/sample`` — the same protocol, routed to the
  named dataset's engine (built lazily, LRU-evicted, 404 for
  unknown names);
* ``GET|POST /v1/d/{name}/stats`` — that dataset's engine statistics;
* ``GET  /v1/datasets`` — every published dataset and what's serving;
* ``POST /v1/reload``   — re-resolve against the store and hot-swap
  newly published versions with zero dropped in-flight requests;
* ``GET  /stats``       — router + store statistics;
* ``GET  /v1/d/{name}/windows`` — stream windows released for the
  dataset (version, bounds, record count, epsilon);
* ``POST /v1/d/{name}/windows/marginal`` — time-sliced marginals:
  one answer per selected window (``last``/``windows`` in the body)
  plus their record-weighted union (see ``docs/STREAMING.md``).

Telemetry endpoints (any mode):

* ``GET /metrics`` — Prometheus text exposition of the active
  metrics registry (request/path latency histograms labeled by
  dataset and planner path, counters, gauges);

every request gets a trace context — adopted from an incoming
``traceparent`` header or head-sampled at ``trace_sample_rate`` —
that is installed around the engine call (so spans and hit-side
cache timings tag themselves with it), echoed in the JSON body under
``"trace"`` and in the ``traceparent`` / ``X-Request-Id`` response
headers, and recorded in a bounded in-process access log
(:meth:`MarginalServer.access_log`).

Built on :class:`http.server.ThreadingHTTPServer` (one thread per
connection, daemonised), with per-request deadlines enforced through
the engine (``504`` on miss), structured JSON error bodies, and
graceful shutdown that drains the engine pool(s).  Connections are
HTTP/1.1 keep-alive: every request body is read in full before
routing, a body that cannot be framed is refused with ``400`` and the
connection closed, and responses go out with ``TCP_NODELAY`` (see
"Transport" in ``docs/SERVING.md``).
"""

from __future__ import annotations

import json
import socket
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic, perf_counter
from urllib.parse import unquote

from repro import obs
from repro.exceptions import QueryError, QueryTimeoutError, ReproError
from repro.obs import propagation
from repro.obs.exporters import MetricsSnapshotWriter
from repro.obs.log import get_logger
from repro.obs.prometheus import render_prometheus
from repro.obs.session import ObsSession
from repro.serve.engine import QueryEngine, design_notation
from repro.serve.protocol import (
    encode_answer,
    encode_error,
    encode_sample,
    parse_batch_request,
    parse_marginal_request,
    parse_sample_request,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8177
DEFAULT_REQUEST_TIMEOUT = 30.0
MAX_BODY_BYTES = 4 << 20

log = get_logger("serve")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.2"
    protocol_version = "HTTP/1.1"
    # Headers and body are two writes.  With Nagle on, the body waits
    # for the client's delayed ACK of the headers: about 40 ms per
    # request on a kept-alive connection.
    disable_nagle_algorithm = True
    # Seconds a kept-alive connection may sit between requests (or
    # stall mid-request) before the handler closes it and its thread
    # exits; without it every connection a client never closes pins a
    # handler thread until shutdown.  QueryClient retries a reused
    # connection the server closed while idle.
    timeout = 60.0

    # Per-request trace state (reset in _handle; one handler instance
    # serves a keep-alive connection sequentially, so plain instance
    # attributes are safe).
    _context: propagation.TraceContext | None = None
    _trace: dict | None = None
    _start: float = 0.0
    _recorded: bool = False
    _body: bytes = b""

    # -- plumbing -------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        obs.incr("serve.http.connections")
        self.server.connection_opened(self.connection)

    def finish(self) -> None:
        self.server.connection_closed(self.connection)
        super().finish()

    @property
    def engine(self) -> QueryEngine | None:
        return self.server.engine

    @property
    def router(self):
        return self.server.router

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        log.debug("%s %s", self.address_string(), format % args)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        # Record before anything reaches the client: a caller that has
        # its answer must find its own entry in the access log.
        entry = self._record_access(status)
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            if self._context is not None:
                self.send_header(
                    propagation.TRACEPARENT_HEADER, self._context.traceparent
                )
                self.send_header(
                    propagation.REQUEST_ID_HEADER, self._context.span_id
                )
            self.end_headers()
            self.wfile.write(body)
        except BaseException:
            # the response did not go out (say, the client went away)
            if entry is not None:
                entry["status"] = None
            raise

    def _send_json(self, status: int, payload) -> None:
        if (
            isinstance(payload, dict)
            and self._trace is not None
            and "trace" not in payload
        ):
            payload = {**payload, "trace": self._trace}
        self._send_body(
            status, json.dumps(payload).encode("utf-8"), "application/json"
        )

    def _send_error(self, status: int, exc: BaseException) -> None:
        self._send_json(status, encode_error(exc, self._trace))

    def _read_body(self) -> None:
        """Read the whole request body, whatever the route will do.

        On a kept-alive connection an unread body would be parsed as
        the next request line.  A body this cannot frame (a chunked
        one, a ``Content-Length`` that is not a non-negative integer,
        or one over :data:`MAX_BODY_BYTES`) is refused, and the
        connection closed instead of left with unread bytes on it.
        """
        self._body = b""
        text = self.headers.get("Content-Length")
        if "Transfer-Encoding" in self.headers:
            problem = "chunked request bodies are not supported"
        elif text is None:
            return
        elif not (text.isascii() and text.isdigit()):
            problem = f"invalid Content-Length {text!r}"
        elif int(text) > MAX_BODY_BYTES:
            problem = f"request body exceeds {MAX_BODY_BYTES} bytes"
        else:
            self._body = self.rfile.read(int(text))
            if len(self._body) == int(text):
                return
            problem = "request body ended before Content-Length"
        self.close_connection = True
        raise QueryError(problem)

    def _read_json(self):
        if not self._body:
            raise QueryError("missing request body")
        try:
            return json.loads(self._body)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise QueryError(f"invalid JSON body: {exc}") from exc

    # -- routes ---------------------------------------------------------
    def _trace_context(self) -> propagation.TraceContext:
        """Adopt the caller's ``traceparent`` or head-sample a new one.

        An adopted context keeps the caller's sampling decision; a
        fresh one is sampled at the server's ``trace_sample_rate``.
        Either way the request gets ids, so responses and the access
        log always carry a request id.
        """
        parent = propagation.parse_traceparent(
            self.headers.get(propagation.TRACEPARENT_HEADER)
        )
        if parent is not None:
            return parent.child()
        return propagation.sampled_context(self.server.trace_sample_rate)

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._handle(self._route_get)

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._handle(self._route_post)

    def _record_access(self, status: int | None) -> dict | None:
        """Append this request's access-log entry, once per request.

        Called just before the response is written, so ``status`` is
        the status being sent and ``duration_s`` ends when the response
        is ready, before it is transmitted.  Returns the new entry, or
        ``None`` when this request already has one; :meth:`_send_body`
        sets the entry's status back to ``None`` if writing fails, so a
        response that never went out is logged like a request that
        failed before any response.
        """
        if self._recorded:
            return None
        self._recorded = True
        context = self._context
        entry = {
            "method": self.command,
            "path": self.path,
            "status": status,
            "duration_s": perf_counter() - self._start,
            "trace_id": context.trace_id,
            "request_id": context.span_id,
            "sampled": context.sampled,
        }
        self.server.record_access(entry)
        return entry

    def _handle(self, route) -> None:
        self._start = perf_counter()
        context = self._trace_context()
        self._context = context
        self._trace = {
            "trace_id": context.trace_id,
            "request_id": context.span_id,
            "sampled": context.sampled,
        }
        self._recorded = False
        try:
            with propagation.trace_scope(context):
                self._read_body()
                route()
        except QueryTimeoutError as exc:
            self._send_error(504, exc)
        except ReproError as exc:
            # malformed attrs, unknown method, unanswerable query, ...
            self._send_error(400 if not _is_not_found(exc) else 404, exc)
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("internal error serving %s", self.path)
            self._send_error(500, exc)
        finally:
            # a no-op once a response went out; otherwise the request
            # failed before any response and is logged without status
            self._record_access(None)

    def _route_get(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, self.server.health_payload())
        elif self.path == "/metrics":
            sess = obs.current()
            snapshot = (
                sess.metrics.snapshot()
                if sess is not None and sess.metrics is not None
                else {}
            )
            self._send_body(
                200,
                render_prometheus(snapshot).encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif self.path == "/stats":
            if self.router is not None:
                payload = self.router.stats()
            else:
                payload = self.engine.stats()
            payload["server"] = self.server.server_payload()
            self._send_json(200, payload)
        elif self.path == "/v1/datasets" and self.router is not None:
            self._send_json(200, {"datasets": self.router.datasets()})
        elif (
            (routed := self._split_dataset_path(self.path)) is not None
            and routed[1] == "stats"
        ):
            self._dispatch_dataset(*routed)
        elif routed is not None and routed[1] == "windows":
            if self.router is None:
                raise QueryError(
                    "this server hosts a single source; window listings "
                    "need a store-backed server (repro store serve)"
                )
            from repro.stream.query import list_windows

            name = routed[0]
            self._send_json(200, {
                "dataset": name,
                "windows": list_windows(self.router.store, name),
            })
        else:
            self._send_error(404, QueryError(f"unknown path {self.path!r}"))

    @staticmethod
    def _split_dataset_path(path: str) -> tuple[str, str] | None:
        """``/v1/d/{name}/marginal`` → ``(name, "marginal")``."""
        if not path.startswith("/v1/d/"):
            return None
        rest = path[len("/v1/d/"):]
        name, _, action = rest.rpartition("/")
        if name.endswith("/windows") and action == "marginal":
            name = name[: -len("/windows")]
            if not name:
                return None
            return unquote(name), "windows/marginal"
        if not name or action not in (
            "marginal", "batch", "sample", "stats", "windows"
        ):
            return None
        return unquote(name), action

    def _route_post(self) -> None:
        if self.path == "/v1/reload":
            if self.router is None:
                raise QueryError(
                    "this server hosts a single source; /v1/reload "
                    "needs a store-backed server (repro store serve)"
                )
            self._send_json(200, self.router.reload())
            return
        routed = self._split_dataset_path(self.path)
        if routed is not None:
            self._dispatch_dataset(*routed)
            return
        if self.path in ("/v1/marginal", "/v1/batch", "/v1/sample"):
            if self.engine is None:
                raise QueryError(
                    "this server hosts a synopsis store; query "
                    "per-dataset paths /v1/d/{name}/marginal, "
                    "/v1/d/{name}/batch or /v1/d/{name}/sample "
                    "(GET /v1/datasets lists them)"
                )
            self._dispatch(self.engine, self.path.rsplit("/", 1)[1])
            return
        self._send_error(404, QueryError(f"unknown path {self.path!r}"))

    def _dispatch_dataset(self, name: str, action: str) -> None:
        if self.router is None:
            raise QueryError(
                "this server hosts a single source; query /v1/marginal "
                "or /v1/batch instead of per-dataset paths"
            )
        if action == "windows/marginal":
            self._dispatch_windows(name)
            return
        # Per-dataset request counting happens in the engine (which
        # knows its dataset label even for single-source servers).
        with self.router.lease(name) as engine:
            if action == "stats":
                self._send_json(200, engine.stats())
            else:
                self._dispatch(engine, action)

    def _dispatch_windows(self, name: str) -> None:
        """``POST /v1/d/{name}/windows/marginal`` — time-sliced query.

        Body: the usual marginal request plus an optional window
        selection — ``{"last": k}`` for the newest ``k`` windows, or
        ``{"windows": [i, ...]}`` for explicit window indices (default
        every released window).  Answers carry one table per window
        and their record-weighted union.
        """
        from repro.stream.query import answer_windows

        body = self._read_json()
        attrs, method = parse_marginal_request(body)
        answer = answer_windows(
            self.router,
            name,
            attrs,
            windows=body.get("windows"),
            last=body.get("last"),
            method=method,
            timeout=self.server.request_timeout,
        )
        self._send_json(200, answer.to_json())

    def _dispatch(self, engine: QueryEngine, action: str) -> None:
        timeout = self.server.request_timeout
        body = self._read_json()
        if action == "marginal":
            attrs, method = parse_marginal_request(body)
            answer = engine.answer(attrs, method=method, timeout=timeout)
            self._send_json(200, encode_answer(answer))
        elif action == "sample":
            n, seed, decode = parse_sample_request(body)
            answer = engine.sample(n, seed=seed)
            self._send_json(200, encode_sample(answer, decode=decode))
        else:
            queries, method = parse_batch_request(body)
            answers = engine.answer_batch(queries, method=method, timeout=timeout)
            self._send_json(200, {
                "answers": [encode_answer(a) for a in answers],
                "count": len(answers),
                "distinct": len({(a.attrs, a.method) for a in answers}),
            })


def _is_not_found(exc: ReproError) -> bool:
    """Unknown-dataset errors surface as 404, not 400."""
    return isinstance(exc, QueryError) and "unknown dataset" in str(exc)


class MarginalServer:
    """The serving endpoint: engine(s) + ThreadingHTTPServer lifecycle.

    Construct with exactly one of:

    * ``engine=`` — host a single marginal source (the original mode);
    * ``store=``  — a :class:`~repro.store.SynopsisStore` (or its root
      path): every published dataset is served under
      ``/v1/d/{name}/...`` through a lazily built, hot-swappable
      :class:`~repro.serve.multiplex.EngineRouter`;
    * ``router=`` — a pre-configured router.

    Use as a context manager, or call :meth:`start` /
    :meth:`serve_forever` and :meth:`shutdown` explicitly.  Pass
    ``port=0`` to bind an ephemeral port (see :attr:`address`).

    Telemetry knobs:

    * ``trace_sample_rate`` — head-sampling probability for requests
      arriving without a ``traceparent`` header (0 disables span
      tagging and hit-side cache timing; ids are still issued);
    * ``access_log_size`` — bound of the in-process access log ring
      (:meth:`access_log`);
    * ``metrics_out`` / ``metrics_interval_s`` — when set, a
      :class:`~repro.obs.exporters.MetricsSnapshotWriter` appends
      JSON-lines metrics snapshots there for the server's lifetime.

    When no :func:`repro.obs.session` is active at :meth:`start`, the
    server installs its own metrics-only session (no tracer, so root
    spans never accumulate unboundedly) and uninstalls it on
    :meth:`shutdown` — ``GET /metrics`` therefore always has a
    registry to expose.
    """

    def __init__(
        self,
        engine: QueryEngine | None = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        own_engine: bool = True,
        store=None,
        router=None,
        trace_sample_rate: float = 0.0,
        access_log_size: int = 256,
        metrics_out=None,
        metrics_interval_s: float = 10.0,
        **router_kwargs,
    ):
        if sum(x is not None for x in (engine, store, router)) != 1:
            raise QueryError(
                "MarginalServer needs exactly one of engine=, store= "
                "or router="
            )
        if store is not None:
            from repro.serve.multiplex import EngineRouter

            router = EngineRouter(store, **router_kwargs)
        elif router_kwargs:
            raise QueryError(
                f"unexpected arguments {sorted(router_kwargs)} without store="
            )
        self.engine = engine
        self.router = router
        self._own_engine = own_engine
        self.trace_sample_rate = float(trace_sample_rate)
        self._access: deque = deque(maxlen=int(access_log_size))
        self._lock = threading.Lock()
        self._metrics_out = metrics_out
        self._metrics_interval_s = float(metrics_interval_s)
        self._metrics_writer: MetricsSnapshotWriter | None = None
        self._obs_session: ObsSession | None = None
        self._obs_previous: ObsSession | None = None
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.engine = engine
        self._httpd.router = router
        self._httpd.request_timeout = request_timeout
        self._httpd.trace_sample_rate = self.trace_sample_rate
        self._httpd.record_access = self._record_access
        self._httpd.health_payload = self._health_payload
        self._httpd.server_payload = self._server_payload
        self._connections: set[socket.socket] = set()
        self._drained = threading.Condition(self._lock)
        self._httpd.connection_opened = self._connection_opened
        self._httpd.connection_closed = self._connection_closed
        self._thread: threading.Thread | None = None
        self._started_at = monotonic()

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _health_payload(self) -> dict:
        if self.router is not None:
            stats = self.router.stats()
            return {
                "status": "ok",
                "mode": "store",
                "datasets": stats["store"]["datasets"],
                "entries": stats["store"]["entries"],
                "hosted": len(stats["hosted"]),
                "uptime_s": monotonic() - self._started_at,
            }
        source = self.engine.source
        return {
            "status": "ok",
            "mode": "single",
            "design": design_notation(source),
            "epsilon": getattr(source, "epsilon", None),
            "num_attributes": source.num_attributes,
            "views": len(getattr(source, "views", ()) or ()),
            "uptime_s": monotonic() - self._started_at,
        }

    def _server_payload(self) -> dict:
        host, port = self.address
        return {
            "host": host,
            "port": port,
            "request_timeout_s": self._httpd.request_timeout,
            "trace_sample_rate": self.trace_sample_rate,
            "uptime_s": monotonic() - self._started_at,
        }

    # ------------------------------------------------------------------
    def _record_access(self, record: dict) -> None:
        with self._lock:
            self._access.append(record)

    def _connection_opened(self, sock: socket.socket) -> None:
        with self._lock:
            self._connections.add(sock)

    def _connection_closed(self, sock: socket.socket) -> None:
        with self._lock:
            self._connections.discard(sock)
            self._drained.notify_all()

    def access_log(self) -> list[dict]:
        """The most recent requests (bounded ring), oldest first.

        Each record: method, path, status, duration_s, trace_id,
        request_id, sampled.
        """
        with self._lock:
            return list(self._access)

    def _telemetry_up(self) -> None:
        if not obs.enabled():
            self._obs_session = ObsSession(
                trace=False, metrics=True, ledger=False
            )
            self._obs_previous = obs.install(self._obs_session)
        if self._metrics_out is not None and self._metrics_writer is None:
            self._metrics_writer = MetricsSnapshotWriter(
                self._metrics_out, interval_s=self._metrics_interval_s
            ).start()

    def _telemetry_down(self) -> None:
        if self._metrics_writer is not None:
            self._metrics_writer.stop()
            self._metrics_writer = None
        if self._obs_session is not None:
            obs.uninstall(self._obs_session, self._obs_previous)
            self._obs_session = None
            self._obs_previous = None

    # ------------------------------------------------------------------
    def start(self) -> "MarginalServer":
        """Serve on a background daemon thread; returns self."""
        self._telemetry_up()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        log.info("serving on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._telemetry_up()
        log.info("serving on %s", self.url)
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop accepting requests, close the socket, drain the engines."""
        self._httpd.shutdown()
        # A kept-alive connection outlives the listening socket.  Ending
        # its reads makes a handler waiting for the next request exit,
        # and one mid-request write its response first; wait for both,
        # so no request is answered after shutdown returns.
        with self._lock:
            for sock in self._connections:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:  # the peer already closed it
                    pass
            self._drained.wait_for(lambda: not self._connections, timeout=5)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self.router is not None:
            self.router.close()
        if self.engine is not None and self._own_engine:
            self.engine.close()
        self._telemetry_down()

    def __enter__(self) -> "MarginalServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


def serve_source(
    source_or_path,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    trace_sample_rate: float = 0.0,
    metrics_out=None,
    metrics_interval_s: float = 10.0,
    **engine_kwargs,
) -> MarginalServer:
    """Build an engine for any marginal source and wrap it in an
    unstarted :class:`MarginalServer`.

    ``source_or_path`` is anything satisfying
    :class:`~repro.baselines.base.MarginalSource` (a synopsis, a
    fitted baseline mechanism, ...) or a path to a saved synopsis
    ``.npz``, loaded via
    :func:`~repro.core.serialization.load_synopsis`.
    """
    from repro.core.serialization import load_synopsis

    source = source_or_path
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        source = load_synopsis(source)
    engine = QueryEngine(source, attach=True, **engine_kwargs)
    return MarginalServer(
        engine,
        host=host,
        port=port,
        request_timeout=request_timeout,
        trace_sample_rate=trace_sample_rate,
        metrics_out=metrics_out,
        metrics_interval_s=metrics_interval_s,
    )


def serve_store(
    store_or_path,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    max_engines: int | None = None,
    watch: bool = False,
    trace_sample_rate: float = 0.0,
    metrics_out=None,
    metrics_interval_s: float = 10.0,
    **engine_kwargs,
) -> MarginalServer:
    """Serve every dataset of a synopsis store from one process.

    ``store_or_path`` is a :class:`~repro.store.SynopsisStore` or its
    root directory.  Engines are built per dataset on first request
    and hot-swapped on ``POST /v1/reload`` (or automatically with
    ``watch=True``, which polls the manifest mtime).  Returns an
    unstarted :class:`MarginalServer`.
    """
    from repro.serve.multiplex import DEFAULT_MAX_ENGINES, EngineRouter

    router = EngineRouter(
        store_or_path,
        max_engines=max_engines if max_engines is not None else DEFAULT_MAX_ENGINES,
        watch=watch,
        **engine_kwargs,
    )
    return MarginalServer(
        router=router,
        host=host,
        port=port,
        request_timeout=request_timeout,
        trace_sample_rate=trace_sample_rate,
        metrics_out=metrics_out,
        metrics_interval_s=metrics_interval_s,
    )

