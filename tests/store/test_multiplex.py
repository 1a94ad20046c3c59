"""EngineRouter + store-backed MarginalServer: routing, LRU, hot swap."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.exceptions import QueryError
from repro.serve import EngineRouter, MarginalServer, QueryClient, serve_store
from repro.store import SynopsisStore


@pytest.fixture
def populated_store(store, alpha_synopsis, beta_synopsis):
    store.publish("alpha", alpha_synopsis)
    store.publish("msnbc", beta_synopsis)
    return store


class TestRouter:
    def test_lazy_build_and_reuse(self, populated_store):
        with EngineRouter(populated_store) as router:
            assert router.stats()["hosted"] == {}
            with router.lease("alpha") as engine:
                first = engine
            with router.lease("alpha") as engine:
                assert engine is first  # built once, reused
            assert list(router.stats()["hosted"]) == ["alpha"]

    def test_unknown_dataset_is_query_error(self, populated_store):
        with EngineRouter(populated_store) as router:
            with pytest.raises(QueryError, match="unknown dataset"):
                router.lease("nope")

    def test_lru_eviction_closes_drained_engine(self, populated_store):
        with EngineRouter(populated_store, max_engines=1) as router:
            with router.lease("alpha") as alpha_engine:
                pass
            with router.lease("msnbc"):
                pass  # capacity 1: alpha evicted
            assert list(router.stats()["hosted"]) == ["msnbc"]
            # the evicted engine's pool is shut down once idle
            assert alpha_engine._pool._shutdown

    def test_router_accepts_store_path(self, populated_store):
        with EngineRouter(str(populated_store.root)) as router:
            with router.lease("alpha") as engine:
                assert engine.source.num_attributes == 8

    def test_reload_swaps_only_changed(
        self, populated_store, alpha_v2_synopsis
    ):
        with EngineRouter(populated_store) as router:
            with router.lease("alpha"):
                pass
            with router.lease("msnbc"):
                pass
            assert router.reload() == {
                "swapped": [], "unchanged": ["alpha@1", "msnbc@1"],
                "dropped": [],
            }
            populated_store.publish("alpha", alpha_v2_synopsis)
            summary = router.reload()
            assert summary["swapped"] == [{"from": "alpha@1", "to": "alpha@2"}]
            assert summary["unchanged"] == ["msnbc@1"]
            with router.lease("alpha") as engine:
                assert np.array_equal(
                    engine.answer((0, 1)).table.counts,
                    alpha_v2_synopsis.marginal((0, 1)).counts,
                )

    def test_inflight_lease_survives_swap(
        self, populated_store, alpha_v2_synopsis
    ):
        """An engine retired by a hot swap keeps answering the request
        that holds it, and only closes when that lease drains."""
        with EngineRouter(populated_store) as router:
            lease = router.lease("alpha")
            old_engine = lease.engine
            populated_store.publish("alpha", alpha_v2_synopsis)
            router.reload()
            # old engine is retired but still alive for this lease
            assert not old_engine._pool._shutdown
            answer = old_engine.answer((0, 1))
            assert answer.table is not None
            lease.__exit__(None, None, None)
            assert old_engine._pool._shutdown

    def test_watch_auto_reloads(self, populated_store, alpha_v2_synopsis):
        with EngineRouter(populated_store, watch=True) as router:
            with router.lease("alpha"):
                pass
            populated_store.publish("alpha", alpha_v2_synopsis)
            with router.lease("alpha") as engine:
                assert np.array_equal(
                    engine.answer((0, 1)).table.counts,
                    alpha_v2_synopsis.marginal((0, 1)).counts,
                )
            assert router.stats()["swaps"] == 1

    def test_watch_sees_publish_within_one_mtime_tick(
        self, populated_store, alpha_v2_synopsis, monkeypatch
    ):
        """Two manifest writes inside one clock tick share an mtime; the
        watcher must still pick up the second one."""
        import repro.serve.multiplex as multiplex

        monkeypatch.setattr(multiplex, "_MTIME_TICK_S", 3600.0)
        frozen = populated_store.manifest_mtime()
        monkeypatch.setattr(populated_store, "manifest_mtime", lambda: frozen)
        with EngineRouter(populated_store, watch=True) as router:
            with router.lease("alpha"):
                pass
            populated_store.publish("alpha", alpha_v2_synopsis)
            with router.lease("alpha"):
                assert router.stats()["hosted"]["alpha"]["version"] == 2


class TestStoreServer:
    def test_two_datasets_bitwise_identical(
        self, populated_store, alpha_synopsis, beta_synopsis
    ):
        """The acceptance check: a covered marginal for two different
        published datasets, each bitwise equal to its own synopsis."""
        with serve_store(populated_store, port=0) as server, \
                QueryClient(server.url) as client:
            for name, synopsis in (
                ("alpha", alpha_synopsis), ("msnbc", beta_synopsis)
            ):
                payload = client.marginal((0, 1), dataset=name)
                assert payload["path"] == "covered"
                assert np.array_equal(
                    np.asarray(payload["counts"]),
                    synopsis.marginal((0, 1)).counts,
                )

    def test_datasets_listing_and_health(self, populated_store):
        with serve_store(populated_store, port=0) as server, \
                QueryClient(server.url) as client:
            names = [d["name"] for d in client.datasets()]
            assert names == ["alpha", "msnbc"]
            health = client.healthz()
            assert health["mode"] == "store"
            assert health["datasets"] == 2

    def test_unknown_dataset_404(self, populated_store):
        with serve_store(populated_store, port=0) as server, \
                QueryClient(server.url) as client:
            with pytest.raises(QueryError, match="404"):
                client.marginal((0, 1), dataset="nope")

    def test_store_server_rejects_single_paths_and_vice_versa(
        self, populated_store, alpha_synopsis
    ):
        from repro.serve import QueryEngine

        with serve_store(populated_store, port=0) as server, \
                QueryClient(server.url) as client:
            with pytest.raises(QueryError, match="store"):
                client.marginal((0, 1))  # no dataset on a store server
        engine = QueryEngine(alpha_synopsis)
        with MarginalServer(engine, port=0) as server, \
                QueryClient(server.url) as client:
            with pytest.raises(QueryError, match="single source"):
                client.marginal((0, 1), dataset="alpha")
            with pytest.raises(QueryError, match="single source"):
                client.reload()

    def test_client_default_dataset(self, populated_store, alpha_synopsis):
        with serve_store(populated_store, port=0) as server, \
                QueryClient(server.url, dataset="alpha") as client:
            table = client.marginal_table((0, 1))
            assert np.array_equal(
                table.counts, alpha_synopsis.marginal((0, 1)).counts
            )
            batch = client.batch([(0, 1), (1, 0)])
            assert batch["distinct"] == 1

    def test_per_dataset_counters(self, populated_store):
        with obs.session() as sess:
            with serve_store(populated_store, port=0) as server, \
                    QueryClient(server.url) as client:
                client.marginal((0, 1), dataset="alpha")
                client.marginal((0, 1), dataset="alpha")
                client.marginal((0, 1), dataset="msnbc")
            counters = sess.metrics.snapshot()["counters"]
        assert counters.get("serve.dataset.alpha") == 2
        assert counters.get("serve.dataset.msnbc") == 1

    def test_per_dataset_stats_route(self, populated_store):
        import json
        import urllib.request

        with serve_store(populated_store, port=0) as server, \
                QueryClient(server.url) as client:
            client.marginal((0, 1), dataset="alpha")
            request = urllib.request.Request(
                f"{server.url}/v1/d/alpha/stats", data=b"{}",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                payload = json.loads(response.read())
        assert payload["requests"] == 1
        assert payload["synopsis"]["num_attributes"] == 8

    def test_hot_swap_under_load_zero_failures(
        self, populated_store, alpha_synopsis, alpha_v2_synopsis
    ):
        """The acceptance check: hot-swapping a version under
        concurrent load completes with zero failed requests, and every
        answer matches one of the two published generations."""
        expected = {
            alpha_synopsis.marginal((0, 1)).counts.tobytes(),
            alpha_v2_synopsis.marginal((0, 1)).counts.tobytes(),
        }
        with serve_store(populated_store, port=0) as server:
            stop = threading.Event()
            failures: list[str] = []
            served: list[int] = [0] * 4

            def hammer(slot: int) -> None:
                with QueryClient(server.url, dataset="alpha") as client:
                    while not stop.is_set() or served[slot] == 0:
                        try:
                            payload = client.marginal((0, 1))
                        except Exception as exc:  # noqa: BLE001 - the assertion
                            failures.append(f"{type(exc).__name__}: {exc}")
                            return
                        counts = np.asarray(payload["counts"]).tobytes()
                        if counts not in expected:
                            failures.append("answer matches no published version")
                            return
                        served[slot] += 1

            threads = [
                threading.Thread(target=hammer, args=(slot,), daemon=True)
                for slot in range(len(served))
            ]
            for thread in threads:
                thread.start()
            with QueryClient(server.url) as control:
                populated_store.publish("alpha", alpha_v2_synopsis)
                summary = control.reload()
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)

                assert summary["swapped"] == [{"from": "alpha@1", "to": "alpha@2"}]
                assert not failures, failures[:5]
                assert all(count > 0 for count in served), served
                # post-swap answers come from the new version
                post = np.asarray(
                    control.marginal((0, 1), dataset="alpha")["counts"]
                )
            assert np.array_equal(
                post, alpha_v2_synopsis.marginal((0, 1)).counts
            )
