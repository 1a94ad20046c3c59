"""End-to-end HTTP tests: server + client over a loopback socket."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.serve.engine as engine_module
from repro.exceptions import QueryError, QueryTimeoutError
from repro.serve import MarginalServer, QueryClient, QueryEngine


@pytest.fixture
def server(chain_synopsis):
    engine = QueryEngine(chain_synopsis, workers=4)
    with MarginalServer(engine, port=0) as srv:
        yield srv


@pytest.fixture
def client(server):
    with QueryClient(server.url, timeout=10.0) as client:
        yield client


class TestEndpoints:
    def test_healthz(self, client, chain_synopsis):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["num_attributes"] == chain_synopsis.num_attributes
        assert payload["views"] == chain_synopsis.num_views
        assert payload["uptime_s"] >= 0

    def test_marginal_roundtrip(self, client, chain_synopsis):
        table = client.marginal_table((0, 1))
        expected = chain_synopsis.marginal((0, 1))
        assert table.attrs == expected.attrs
        np.testing.assert_allclose(table.counts, expected.counts)

    def test_marginal_payload_fields(self, client):
        payload = client.marginal((0, 4))
        assert payload["path"] == "solved"
        assert payload["cached"] is False
        assert payload["k"] == 2
        assert len(payload["counts"]) == 4
        assert payload["elapsed_ms"] >= 0
        # solver telemetry travels with the answer
        assert "maxent" in payload["meta"]
        again = client.marginal((0, 4))
        assert again["cached"] is True

    def test_batch_dedup_and_order(self, client):
        payload = client.batch([(0, 1), (1, 0), (0, 4)])
        assert payload["count"] == 3
        assert payload["distinct"] == 2
        assert [tuple(a["attrs"]) for a in payload["answers"]] == [
            (0, 1), (0, 1), (0, 4),
        ]

    def test_stats_accounts_every_request(self, client):
        for attrs in [(0, 1), (0, 4), (0, 4)]:
            client.marginal(attrs)
        with pytest.raises(QueryError):
            client.marginal((0, 0))
        stats = client.stats()
        assert stats["requests"] == sum(stats["paths"].values())
        assert stats["paths"]["error"] == 1
        assert stats["server"]["port"] == client_port(client)
        assert "cache" in stats and stats["cache"]["capacity"] > 0


@pytest.mark.parametrize("verb", ["GET", "POST"])
def test_per_dataset_stats_answers_get_and_post(tmp_path, chain_synopsis, verb):
    from repro.serve import serve_store
    from repro.store import SynopsisStore

    store = SynopsisStore(tmp_path / "store")
    store.publish("chain", chain_synopsis)
    with serve_store(store, port=0) as srv:
        with QueryClient(srv.url, dataset="chain") as client:
            client.marginal((0, 1))
        request = urllib.request.Request(
            f"{srv.url}/v1/d/chain/stats",
            data=b"{}" if verb == "POST" else None,
            headers={"Content-Type": "application/json"},
            method=verb,
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
    assert payload["requests"] == 1
    assert payload["synopsis"]["num_attributes"] == chain_synopsis.num_attributes


def client_port(client: QueryClient) -> int:
    return int(client.base_url.rsplit(":", 1)[1])


class TestErrors:
    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope", timeout=5)
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/marginal",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        with excinfo.value as error:
            assert error.code == 400
            detail = json.loads(error.read())["error"]
        assert detail["type"] == "QueryError"

    def test_bad_attrs_400(self, client):
        for attrs in [(0, 0), (0, 99)]:
            with pytest.raises(QueryError):
                client.marginal(attrs)

    def test_non_integer_attrs_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/marginal",
            data=json.dumps({"attrs": ["a", 1]}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_timeout_504(self, chain_synopsis, monkeypatch):
        real = engine_module.reconstruct

        def slow(views, target_attrs, **kwargs):
            import time

            time.sleep(0.5)
            return real(views, target_attrs, **kwargs)

        monkeypatch.setattr(engine_module, "reconstruct", slow)
        engine = QueryEngine(chain_synopsis, workers=2)
        with MarginalServer(engine, port=0, request_timeout=0.05) as srv:
            with QueryClient(srv.url, timeout=10.0) as client, \
                    pytest.raises(QueryTimeoutError):
                client.marginal((0, 4))


class TestLifecycle:
    def test_shutdown_refuses_further_connections(self, chain_synopsis):
        engine = QueryEngine(chain_synopsis)
        server = MarginalServer(engine, port=0).start()
        url = server.url
        with QueryClient(url) as client:
            client.healthz()
        server.shutdown()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(f"{url}/healthz", timeout=1)
