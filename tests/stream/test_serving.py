"""Live serving of stream windows: HTTP routes, watch, publish churn."""

from __future__ import annotations

import math
import threading
import time

import numpy as np
import pytest

from repro.exceptions import RemoteQueryError
from repro.serve.client import QueryClient
from repro.serve.multiplex import EngineRouter
from repro.serve.server import serve_store
from repro.stream import (
    BudgetSchedule,
    CountWindowPolicy,
    WindowScheduler,
)

from .conftest import make_events


def _release(store, rng, n=450, size=150, dataset="clicks"):
    return WindowScheduler(
        store, dataset, 6, BudgetSchedule(math.inf),
        CountWindowPolicy(size), view_width=4,
    ).run(make_events(rng, n))


# ----------------------------------------------------------------------
# HTTP routes
# ----------------------------------------------------------------------
def test_windows_routes_over_http(store, rng):
    _release(store, rng)
    with serve_store(store, port=0) as server, \
            QueryClient(server.url, dataset="clicks") as client:
        windows = client.windows()
        assert [w["index"] for w in windows] == [0, 1, 2]
        payload = client.window_marginal((0, 1), last=2)
        assert payload["union"]["records"] == 300.0
        assert len(payload["windows"]) == 2
        table = client.window_union_table((0, 1), last=2)
        assert table.total() == pytest.approx(300.0)
        explicit = client.window_marginal((0, 1), windows=[0])
        assert [w["window"]["index"] for w in explicit["windows"]] == [0]


def test_windows_routes_error_mapping(store, rng):
    _release(store, rng)
    with serve_store(store, port=0) as server, QueryClient(server.url) as client:
        # Listing an unknown dataset is empty, not an error.
        assert client.windows(dataset="nope") == []
        with pytest.raises(RemoteQueryError) as excinfo:
            client.window_marginal((0, 1), dataset="nope")
        assert excinfo.value.status == 404
        with pytest.raises(RemoteQueryError) as excinfo:
            client.window_marginal((0, 1), windows=[42], dataset="clicks")
        assert excinfo.value.status == 400


def test_single_source_server_rejects_window_routes(tmp_path, store, rng):
    from repro.serve.server import serve_source

    _release(store, rng)
    path = tmp_path / "synopsis.npz"
    from repro.core.serialization import save_synopsis

    save_synopsis(store.load_version(store.resolve("clicks")), path)
    with serve_source(path, port=0) as server, \
            QueryClient(server.url, dataset="clicks") as client:
        with pytest.raises(RemoteQueryError) as excinfo:
            client.windows()
        assert excinfo.value.status == 400


# ----------------------------------------------------------------------
# Watch interval
# ----------------------------------------------------------------------
def test_watch_interval_rate_limits_manifest_polls(store, rng, monkeypatch):
    _release(store, rng, n=150)
    router = EngineRouter(store, watch=True, watch_interval=3600.0)
    calls = {"n": 0}
    real = store.manifest_mtime

    def counting():
        calls["n"] += 1
        return real()

    monkeypatch.setattr(store, "manifest_mtime", counting)
    with router:
        for _ in range(5):
            with router.lease("clicks") as engine:
                engine.answer((0,))
        # First lease polls; the rest are inside the interval.
        assert calls["n"] == 1
        stats = router.stats()
        assert stats["watch_interval"] == 3600.0
        assert stats["last_poll"] is not None
        assert stats["last_swap"] is None


def test_watch_interval_zero_polls_every_lease(store, rng, monkeypatch):
    _release(store, rng, n=150)
    router = EngineRouter(store, watch=True)
    calls = {"n": 0}
    real = store.manifest_mtime

    def counting():
        calls["n"] += 1
        return real()

    monkeypatch.setattr(store, "manifest_mtime", counting)
    with router:
        for _ in range(3):
            with router.lease("clicks"):
                pass
        assert calls["n"] == 3


def test_watch_interval_rejects_negative(store):
    from repro.exceptions import QueryError

    with pytest.raises(QueryError, match="watch_interval"):
        EngineRouter(store, watch=True, watch_interval=-1.0)


def test_watch_picks_up_new_windows_and_stamps_swap(store, rng):
    _release(store, rng, n=150)
    with serve_store(store, port=0, watch=True) as server, \
            QueryClient(server.url, dataset="clicks") as client:
        assert client.stats()["hosted"] == {}
        client.marginal((0,))
        assert client.stats()["hosted"]["clicks"]["version"] == 1
        _release(store, rng, n=150)  # publishes version 2
        client.marginal((0,))
        stats = client.stats()
        assert stats["hosted"]["clicks"]["version"] == 2
        assert stats["swaps"] == 1
        assert stats["last_swap"] is not None


# ----------------------------------------------------------------------
# Publish churn: zero dropped requests under continuous hot swap
# ----------------------------------------------------------------------
def test_rapid_publish_churn_drops_nothing(store, rng):
    """One publisher loops windowed publishes while 8 readers hammer
    the watch-serving router: every request must succeed and every
    reader must eventually observe the newest published version."""
    _release(store, rng, n=150)
    rounds = 6
    readers = 8
    stop = threading.Event()
    failures: list[BaseException] = []
    versions_seen: list[set] = [set() for _ in range(readers)]

    with serve_store(store, port=0, watch=True) as server:
        url = server.url

        def read(slot: int) -> None:
            with QueryClient(url, dataset="clicks") as client:
                while not stop.is_set():
                    try:
                        payload = client.marginal((0, 1))
                        versions_seen[slot].add(payload["total"])
                        stats = client.stats()
                        hosted = stats["hosted"].get("clicks")
                        if hosted:
                            versions_seen[slot].add(hosted["version"])
                    except BaseException as exc:  # noqa: BLE001 - recorded
                        failures.append(exc)
                        return

        threads = [
            threading.Thread(target=read, args=(slot,), daemon=True)
            for slot in range(readers)
        ]
        for thread in threads:
            thread.start()
        publisher_error: list[BaseException] = []

        def publish() -> None:
            try:
                for round_no in range(rounds):
                    _release(store, np.random.default_rng(round_no), n=150)
                    time.sleep(0.02)
            except BaseException as exc:  # noqa: BLE001 - recorded
                publisher_error.append(exc)

        publisher = threading.Thread(target=publish, daemon=True)
        publisher.start()
        publisher.join(timeout=60)
        final_version = store.resolve("clicks").version
        # Let readers observe the final version before stopping them.
        deadline = time.time() + 30
        while time.time() < deadline and not failures:
            if all(final_version in seen for seen in versions_seen):
                break
            time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

    assert not publisher_error, publisher_error
    assert not failures, failures  # zero dropped/failed requests
    assert final_version == 1 + rounds
    for slot, seen in enumerate(versions_seen):
        assert final_version in seen, (
            f"reader {slot} never saw version {final_version}"
        )
