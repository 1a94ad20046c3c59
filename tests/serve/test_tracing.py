"""End-to-end trace propagation and typed remote errors."""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.exceptions import (
    QueryError,
    QueryTimeoutError,
    RemoteQueryError,
    RemoteQueryTimeoutError,
)
from repro.obs import propagation
from repro.serve import MarginalServer, QueryClient, QueryEngine
from repro.serve.server import _Handler

UNCOVERED = (0, 2, 4, 6)  # forces the solver (spans under the request)


def spans_named(roots, name):
    found, stack = [], list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            found.append(span)
        stack.extend(span.children)
    return found


class TestPropagationUnit:
    def test_traceparent_round_trip(self):
        context = propagation.new_context()
        parsed = propagation.parse_traceparent(context.traceparent)
        assert parsed.trace_id == context.trace_id
        assert parsed.span_id == context.span_id
        assert parsed.sampled is True

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-short-beef-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
        "zz-" + "1" * 32 + "-" + "2" * 16 + "-01",
    ])
    def test_malformed_headers_rejected(self, header):
        assert propagation.parse_traceparent(header) is None

    def test_child_keeps_trace_id(self):
        context = propagation.new_context()
        child = context.child()
        assert child.trace_id == context.trace_id
        assert child.span_id != context.span_id

    def test_sampling_rates(self):
        assert propagation.sampled_context(0.0).sampled is False
        assert propagation.sampled_context(1.0).sampled is True
        # unsampled contexts still get ids (request ids never vanish)
        assert len(propagation.sampled_context(0.0).trace_id) == 32

    def test_trace_scope_nests_and_restores(self):
        outer = propagation.new_context()
        with propagation.trace_scope(outer):
            assert propagation.current_context() is outer
            with propagation.trace_scope(None):  # None keeps the outer
                assert propagation.current_context() is outer
        assert propagation.current_context() is None


class TestEndToEnd:
    @pytest.fixture
    def served(self, chain_synopsis):
        with obs.session(ledger=False) as sess:
            engine = QueryEngine(chain_synopsis, workers=4)
            with MarginalServer(
                engine, port=0, trace_sample_rate=1.0
            ) as server, QueryClient(server.url, trace=True) as client:
                yield sess, server, client

    def test_one_trace_id_everywhere(self, served):
        sess, server, client = served
        context = propagation.new_context()
        with propagation.trace_scope(context):
            payload = client.marginal(UNCOVERED)

        # client: response body and last_trace
        assert payload["trace"]["trace_id"] == context.trace_id
        assert client.last_trace["trace_id"] == context.trace_id
        assert client.last_trace["request_id"]

        # server: access log
        matching = [
            record for record in server.access_log()
            if record["trace_id"] == context.trace_id
        ]
        assert len(matching) == 1
        assert matching[0]["status"] == 200
        assert matching[0]["method"] == "POST"
        assert matching[0]["request_id"] == payload["trace"]["request_id"]

        # engine and planner/solver spans
        request_spans = [
            span for span in spans_named(sess.tracer.roots, "serve.request")
            if span.trace_id == context.trace_id
        ]
        assert len(request_spans) == 1
        compute = spans_named(request_spans, "serve.compute.solved")
        assert compute
        assert all(s.trace_id == context.trace_id for s in compute)

    def test_access_entry_recorded_before_body_is_written(
        self, served, monkeypatch
    ):
        """A client holding its answer always finds its own entry."""
        _, server, client = served
        logged_at_write = []

        class SpyWriter:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                logged_at_write.append(
                    {record["request_id"] for record in server.access_log()}
                )
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        setup = _Handler.setup

        def spying_setup(handler):
            setup(handler)
            handler.wfile = SpyWriter(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", spying_setup)
        with QueryClient(server.url, trace=True) as fresh:  # a new connection
            payload = fresh.marginal(UNCOVERED)
        # the body is the last write of the response
        assert payload["trace"]["request_id"] in logged_at_write[-1]

    def test_failed_response_still_logged(self, served, monkeypatch):
        _, server, client = served

        def broken_send(handler, status, body, content_type):
            raise ConnectionResetError("client went away")

        monkeypatch.setattr(_Handler, "_send_body", broken_send)
        with pytest.raises(ConnectionError):
            client.healthz()
        assert server.access_log()[-1]["status"] is None
        assert server.access_log()[-1]["path"] == "/healthz"

    def test_unsent_response_logged_without_status(self, served, monkeypatch):
        """An entry recorded before a write that then fails loses its status."""
        _, server, client = served

        def broken_end_headers(handler):
            raise ConnectionResetError("client went away")

        monkeypatch.setattr(_Handler, "end_headers", broken_end_headers)
        with pytest.raises(ConnectionError):
            client.healthz()
        assert server.access_log()[-1]["status"] is None
        assert server.access_log()[-1]["path"] == "/healthz"

    def test_response_headers_echo_trace(self, served):
        _, server, client = served
        client.healthz()
        assert client.last_trace is not None
        record = server.access_log()[-1]
        assert record["trace_id"] == client.last_trace["trace_id"]

    def test_batch_propagates_through_pool(self, served):
        sess, _, client = served
        context = propagation.new_context()
        with propagation.trace_scope(context):
            client.batch([(0, 1), (1, 2), UNCOVERED])
        tagged = [
            span for span in spans_named(sess.tracer.roots, "serve.request")
            if span.trace_id == context.trace_id
        ]
        assert len(tagged) == 3  # every pooled sub-answer carries the id

    def test_sample_rate_zero_issues_ids_without_spans(self, chain_synopsis):
        with obs.session(ledger=False) as sess:
            engine = QueryEngine(chain_synopsis, workers=4)
            with MarginalServer(
                engine, port=0, trace_sample_rate=0.0
            ) as server:
                with QueryClient(server.url) as client:  # no client tracing either
                    payload = client.marginal(UNCOVERED)
                assert payload["trace"]["sampled"] is False
                assert payload["trace"]["request_id"]
                assert server.access_log()[-1]["sampled"] is False
            spans = spans_named(sess.tracer.roots, "serve.request")
            assert all(span.trace_id is None for span in spans)

    def test_metrics_endpoint_and_stats_latency(self, served):
        from repro.obs.prometheus import histogram_quantile, parse_prometheus

        _, _, client = served
        for _ in range(5):
            client.marginal(UNCOVERED)
            client.marginal((0, 1))
        families = parse_prometheus(client.metrics())
        samples = families["serve_request_seconds"]["samples"]
        paths = {
            labels["path"] for name, labels, _ in samples
            if name.endswith("_bucket")
        }
        assert {"covered", "solved"} <= paths
        assert {
            labels["dataset"] for name, labels, _ in samples
            if name.endswith("_bucket")
        } == {"default"}
        scraped = histogram_quantile(samples, 0.95)
        internal = client.stats()["latency"]["p95"]
        assert internal / 2 <= scraped <= internal * 2


class TestTypedErrors:
    @pytest.fixture
    def client(self, chain_synopsis):
        engine = QueryEngine(chain_synopsis, workers=2)
        with MarginalServer(engine, port=0) as server, \
                QueryClient(server.url) as client:
            yield client

    def test_remote_error_carries_structure(self, client):
        with pytest.raises(RemoteQueryError) as excinfo:
            client.marginal((0, 0))
        exc = excinfo.value
        assert exc.status == 400
        assert exc.error_type == "QueryError"
        assert exc.request_id
        assert exc.trace_id
        assert isinstance(exc, QueryError)  # old handlers keep working

    def test_unknown_method_names_the_original_type(self, client):
        with pytest.raises(RemoteQueryError) as excinfo:
            client.marginal((0, 1), method="nope")
        assert excinfo.value.error_type == "QueryError"
        assert "nope" in str(excinfo.value)

    def test_not_found_status(self, client):
        with pytest.raises(RemoteQueryError) as excinfo:
            client._request("/v1/bogus", {})
        assert excinfo.value.status == 404

    def test_timeout_is_both_types(self):
        exc = RemoteQueryTimeoutError("deadline", status=504)
        assert isinstance(exc, QueryTimeoutError)
        assert isinstance(exc, RemoteQueryError)
