"""Window policies, incremental packed shards, and the ingest driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.packed import pack_columns
from repro.stream import (
    CountWindowPolicy,
    Event,
    EventBatch,
    StreamError,
    TimeWindowPolicy,
    WindowShard,
    as_event,
    iter_windows,
    read_jsonl_events,
)

from .conftest import make_events


# ----------------------------------------------------------------------
# Event normalisation
# ----------------------------------------------------------------------
def test_as_event_accepts_all_shapes():
    assert as_event([0, 2]).items == (0, 2)
    assert as_event([0, 2]).time is None
    assert as_event(([1], 2.5)) == Event((1,), 2.5)
    assert as_event({"items": [3], "ts": 7}) == Event((3,), 7.0)
    assert as_event({"items": [3], "event_time": 7}) == Event((3,), 7.0)
    assert as_event(Event((1,), 1.0)) == Event((1,), 1.0)


def test_as_event_rejects_garbage():
    with pytest.raises(StreamError):
        as_event({"ts": 1.0})
    with pytest.raises(StreamError):
        as_event(42)


def test_read_jsonl_events(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('[0, 1]\n\n{"items": [2], "ts": 3.5}\n')
    events = list(read_jsonl_events(path))
    assert events == [Event((0, 1)), Event((2,), 3.5)]


def test_read_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("[0]\nnot json\n")
    with pytest.raises(StreamError, match=r":2:"):
        list(read_jsonl_events(path))


# ----------------------------------------------------------------------
# WindowShard: incremental packing must be bitwise-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 200])
def test_shard_matches_bulk_pack(rng, n):
    d = 5
    rows = (rng.random((n, d)) < 0.5).astype(np.uint8)
    shard = WindowShard(d, chunk_records=64)
    # Uneven segments straddle the 64-row chunk boundaries.
    for lo, hi in zip([0, 1, 40, 100], [1, 40, 100, n]):
        shard.add_rows(rows[lo:hi])
    packed = shard.finish()
    assert packed.num_records == n
    expected = pack_columns(rows)
    np.testing.assert_array_equal(packed.words, expected)


def test_shard_ignores_out_of_range_and_duplicates():
    shard = WindowShard(3)
    shard.add_rows(EventBatch.from_events([Event((0, 0, 2, 9, -1))]).rows(3))
    packed = shard.finish()
    table = packed.marginal((0, 1, 2))
    # One record with attributes {0, 2} set: cell index 0b101 = 5.
    assert table.counts[5] == 1.0
    assert table.total() == 1.0


def test_shard_rejects_bad_chunk():
    with pytest.raises(StreamError, match="multiple of 64"):
        WindowShard(4, chunk_records=100)


# ----------------------------------------------------------------------
# Count windows
# ----------------------------------------------------------------------
def test_count_windows_partition_in_order(rng):
    events = make_events(rng, 250, d=4)
    windows = list(iter_windows(events, CountWindowPolicy(100), 4))
    assert [w.index for w in windows] == [0, 1, 2]
    assert [w.num_records for w in windows] == [100, 100, 50]
    assert [(w.start, w.end) for w in windows] == [
        (0.0, 100.0), (100.0, 200.0), (200.0, 300.0),
    ]
    assert all(w.kind == "count" for w in windows)


def test_count_windows_union_is_exact_partition(rng):
    """Summing per-window marginals reproduces the full-data marginal."""
    d = 4
    events = make_events(rng, 230, d=d)
    windows = list(iter_windows(events, CountWindowPolicy(64), d))
    total = sum(w.shard.marginal((0, 1)).counts for w in windows)
    full = WindowShard(d, chunk_records=64)
    full.add_rows(EventBatch.from_events(events).rows(d))
    np.testing.assert_allclose(total, full.finish().marginal((0, 1)).counts)


def test_count_policy_rejects_bad_size():
    with pytest.raises(StreamError):
        CountWindowPolicy(0)


# ----------------------------------------------------------------------
# Time windows: watermark + late events
# ----------------------------------------------------------------------
def test_time_windows_tumble_on_event_time():
    events = [([0], 0.1), ([1], 0.9), ([0], 1.1), ([1], 2.2), ([0], 3.5)]
    policy = TimeWindowPolicy(1.0)
    windows = list(iter_windows(events, policy, 2))
    assert [w.index for w in windows] == [0, 1, 2, 3]
    assert [w.num_records for w in windows] == [2, 1, 1, 1]
    assert windows[0].start == 0.0 and windows[0].end == 1.0
    assert windows[3].start == 3.0 and windows[3].end == 4.0
    assert policy.late_events == 0


def test_time_windows_drop_and_count_late_events():
    # Watermark trails max time by 0.5: by t=2.6 the watermark is 2.1,
    # so window 0 (and 1) are closed; the t=0.3 straggler is late.
    events = [([0], 0.2), ([0], 2.6), ([1], 0.3), ([0], 2.7)]
    policy = TimeWindowPolicy(1.0, lateness=0.5)
    windows = list(iter_windows(events, policy, 2))
    assert policy.late_events == 1
    assert [w.index for w in windows] == [0, 2]
    assert [w.num_records for w in windows] == [1, 2]


def test_time_windows_lateness_keeps_stragglers_in_open_window():
    # With lateness 1.0 the watermark at t=1.4 is only 0.4, so window 0
    # is still open and the t=0.9 straggler lands in it.
    events = [([0], 0.2), ([0], 1.4), ([1], 0.9)]
    policy = TimeWindowPolicy(1.0, lateness=1.0)
    windows = list(iter_windows(events, policy, 2))
    assert policy.late_events == 0
    assert [w.num_records for w in windows] == [2, 1]


def test_time_windows_skip_empty_gaps():
    events = [([0], 0.5), ([1], 5.5)]
    windows = list(iter_windows(events, TimeWindowPolicy(1.0), 2))
    assert [w.index for w in windows] == [0, 5]


def test_time_policy_requires_timestamps():
    with pytest.raises(StreamError, match="timestamp"):
        list(iter_windows([[0, 1]], TimeWindowPolicy(1.0), 2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_time_policy_rejects_non_finite_times(bad):
    events = [([0], 0.5), ([1], bad)]
    with pytest.raises(StreamError):
        list(iter_windows(events, TimeWindowPolicy(1.0), 2))
    with pytest.raises(StreamError):
        list(iter_windows([{"items": [1], "ts": bad}], TimeWindowPolicy(1.0), 2))


def test_time_policy_rejects_window_index_overflow():
    with pytest.raises(StreamError, match="out of range"):
        list(iter_windows([([0], 1e300)], TimeWindowPolicy(1e-10), 2))


def test_time_policy_origin_shifts_grid():
    events = [([0], 10.2), ([1], 10.8)]
    windows = list(iter_windows(events, TimeWindowPolicy(1.0, origin=10.0), 2))
    assert [w.index for w in windows] == [0]
    assert windows[0].start == 10.0 and windows[0].end == 11.0


def test_time_policy_validates_parameters():
    with pytest.raises(StreamError):
        TimeWindowPolicy(0.0)
    with pytest.raises(StreamError):
        TimeWindowPolicy(1.0, lateness=-1.0)
