"""Time-sliced window queries: per-window answers and union merges."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import QueryError
from repro.serve.multiplex import EngineRouter
from repro.stream import (
    BudgetSchedule,
    CountWindowPolicy,
    EventBatch,
    WindowScheduler,
    WindowShard,
    answer_windows,
    list_windows,
)

from .conftest import make_events


@pytest.fixture
def released(store, rng):
    """Four noise-free windows of 150 events each, plus the raw events."""
    events = make_events(rng, 600)
    WindowScheduler(
        store, "clicks", 6, BudgetSchedule(math.inf),
        CountWindowPolicy(150), view_width=4,
    ).run(events)
    return events


def _ground_truth(events, lo, hi, attrs):
    shard = WindowShard(6, chunk_records=64)
    shard.add_rows(EventBatch.from_events(events[lo:hi]).rows(6))
    return shard.finish().marginal(attrs).counts


def test_list_windows_orders_and_annotates(store, released):
    rows = list_windows(store, "clicks")
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    assert all(r["records"] == 150 for r in rows)
    assert all(math.isinf(r["epsilon"]) for r in rows)
    assert rows[0]["spec"] == "clicks@1"


def test_list_windows_unknown_dataset_is_empty(store):
    assert list_windows(store, "nope") == []


def test_answer_windows_union_equals_record_weighted_merge(
    store, released
):
    """At epsilon=inf the last-3-window union must EXACTLY equal the
    marginal of the concatenated raw records — the acceptance bound
    with the DP noise term at zero."""
    attrs = (0, 2)
    with EngineRouter(store) as router:
        answer = answer_windows(router, "clicks", attrs, last=3)
    assert [s.index for s in answer.slices] == [1, 2, 3]
    # Union == sum of the per-window tables (record-weighted merge)...
    merged = sum(s.answer.table.counts for s in answer.slices)
    np.testing.assert_allclose(answer.union.counts, merged)
    # ...== ground truth over the union of the raw records.
    np.testing.assert_allclose(
        answer.union.counts,
        _ground_truth(released, 150, 600, attrs),
    )
    # And each slice matches its own window's raw records.
    for s in answer.slices:
        np.testing.assert_allclose(
            s.answer.table.counts,
            _ground_truth(released, 150 * s.index, 150 * (s.index + 1), attrs),
        )


def test_answer_windows_explicit_selection(store, released):
    with EngineRouter(store) as router:
        answer = answer_windows(router, "clicks", (0,), windows=[0, 3])
        assert [s.index for s in answer.slices] == [0, 3]
        with pytest.raises(QueryError, match="unknown window"):
            answer_windows(router, "clicks", (0,), windows=[9])
        with pytest.raises(QueryError, match="last"):
            answer_windows(router, "clicks", (0,), last=0)


def test_answer_windows_default_selects_everything(store, released):
    with EngineRouter(store) as router:
        answer = answer_windows(router, "clicks", (1,))
    assert len(answer.slices) == 4
    assert answer.union.total() == pytest.approx(600.0)
    assert answer.union.meta["windows"] == [0, 1, 2, 3]


def test_answer_windows_unknown_dataset_404s(store):
    with EngineRouter(store) as router:
        with pytest.raises(QueryError, match="unknown dataset"):
            answer_windows(router, "nope", (0,))


def test_answer_windows_survives_pruned_history(store, released):
    """After retention drops old windows, last-k shrinks to what's left."""
    store.prune("clicks", keep_last=2)
    with EngineRouter(store) as router:
        answer = answer_windows(router, "clicks", (0, 1), last=3)
    assert [s.index for s in answer.slices] == [2, 3]
    assert answer.to_json()["union"]["records"] == 300.0


def test_windows_answer_json_shape(store, released):
    with EngineRouter(store) as router:
        payload = answer_windows(router, "clicks", (0, 1), last=2).to_json()
    assert payload["dataset"] == "clicks"
    assert payload["attrs"] == [0, 1]
    assert len(payload["windows"]) == 2
    for blob in payload["windows"]:
        assert set(blob["window"]) == {
            "index", "version", "start", "end", "records", "epsilon",
        }
        assert len(blob["counts"]) == 4
    assert payload["union"]["merged"] == 2
