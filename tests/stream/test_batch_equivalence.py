"""Batched ingestion against a per-event oracle.

The oracle routes and packs one event at a time, the way ingestion
worked before it became columnar.  Batched ingestion must release the
same windows in the same order, with bitwise-equal packed words, the
same window metadata and the same late count, whatever the producer
shapes and wherever the batch cuts fall.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stream.events as events_module
from repro import obs
from repro.kernels.packed import pack_columns
from repro.stream import (
    CountWindowPolicy,
    Event,
    EventBatch,
    StreamError,
    TimeWindowPolicy,
    as_event,
    iter_windows,
)


# ----------------------------------------------------------------------
# The per-event oracle
# ----------------------------------------------------------------------
class _CountOracle:
    def __init__(self, size):
        self.size, self.seen, self.closable = size, 0, []

    def route(self, event):
        index = self.seen // self.size
        if self.seen and self.seen % self.size == 0:
            self.closable.append(index - 1)
        self.seen += 1
        return index


class _TimeOracle:
    def __init__(self, width, lateness, origin):
        self.width, self.lateness, self.origin = width, lateness, origin
        self.max_time = self.close_bound = None
        self.closable, self.late = [], 0

    def route(self, event):
        index = int(np.floor((event.time - self.origin) / self.width))
        if self.close_bound is not None and index < self.close_bound:
            self.late += 1
            return None
        if self.max_time is None or event.time > self.max_time:
            self.max_time = event.time
            watermark = self.max_time - self.lateness
            bound = int(np.floor((watermark - self.origin) / self.width))
            if self.close_bound is None or bound > self.close_bound:
                start = self.close_bound if self.close_bound is not None else bound
                self.closable.extend(range(start, bound))
                self.close_bound = bound
        return index


def oracle(objs, oracle_policy, d):
    """``[(index, records, words, trigger)]`` in close order, plus the
    late count.  ``trigger`` is the position of the event whose routing
    closed the window, None when the stream end flushed it."""
    rows: dict[int, list[np.ndarray]] = {}
    released = []

    def close(index, trigger=None):
        if index in rows:
            block = np.array(rows.pop(index), dtype=np.uint8).reshape(-1, d)
            released.append((index, len(block), pack_columns(block), trigger))

    for position, event in enumerate(map(as_event, objs)):
        index = oracle_policy.route(event)
        if index is not None:
            row = np.zeros(d, dtype=np.uint8)
            for item in event.items:
                if 0 <= item < d:
                    row[item] = 1
            rows.setdefault(index, []).append(row)
        closable, oracle_policy.closable = oracle_policy.closable, []
        for index in closable:
            close(index, position)
    for index in sorted(rows):
        close(index)
    return released, getattr(oracle_policy, "late", 0)


def _flatten(objs):
    """Producer objects with EventBatches expanded into Events, and the
    position of the producer object each event came from."""
    out, source = [], []
    for position, obj in enumerate(objs):
        if isinstance(obj, EventBatch):
            for i in range(len(obj)):
                items = obj.items[obj.offsets[i]:obj.offsets[i + 1]]
                time = obj.times[i]
                out.append(Event(
                    tuple(items.tolist()), None if math.isnan(time) else float(time)
                ))
                source.append(position)
        else:
            out.append(obj)
            source.append(position)
    return out, source


def assert_equivalent(objs, make_policy, make_oracle, d, batch):
    policy = make_policy()
    pulled = []

    def producer():
        for position, obj in enumerate(objs):
            pulled.append(position)
            yield obj

    windows, pulled_at_close = [], []
    with pytest.MonkeyPatch.context() as patch, obs.session(trace=False) as sess:
        patch.setattr(events_module, "BATCH", batch)
        for window in iter_windows(producer(), policy, d, chunk_records=64):
            windows.append(window)
            pulled_at_close.append(len(pulled))
        counters = sess.metrics.snapshot()["counters"]
    flat, source = _flatten(objs)
    expected, late = oracle(flat, make_oracle(), d)

    assert [w.index for w in windows] == [e[0] for e in expected]
    for window, pulled_count, (index, records, words, trigger) in zip(
        windows, pulled_at_close, expected
    ):
        # Released at the first batch cut after the triggering event.
        if trigger is None:
            assert pulled_count == len(objs)
        else:
            assert pulled_count == min(len(objs), (source[trigger] // batch + 1) * batch)
        assert window.num_records == records
        assert window.shard.words.dtype == np.uint64
        np.testing.assert_array_equal(window.shard.words, words)
        start, end = policy.bounds(index)
        assert window.meta() == {
            "index": index, "kind": policy.kind,
            "start": start, "end": end, "records": records,
        }
    num_events = len(flat)
    assert policy.late_events == late
    assert counters.get("stream.events", 0) == num_events
    assert counters.get("stream.late_events", 0) == late
    assert sum(w.num_records for w in windows) == num_events - late


# ----------------------------------------------------------------------
# Strategies: events, then the shape each producer hands them over in
# ----------------------------------------------------------------------
D = 5
_items = st.lists(st.integers(-3, D + 3), max_size=7)  # out of range + dupes
_times = st.integers(-12, 80).map(lambda k: k * 0.25)


def _render(draw, events, timed):
    """Hand ``events`` over as a mix of every accepted producer shape."""
    shapes = ["tuple", "dict", "event", "batch"] + ([] if timed else ["list"])
    out, i = [], 0
    while i < len(events):
        shape = draw(st.sampled_from(shapes))
        if shape == "batch":
            run = events[i:i + draw(st.integers(1, 6))]
            lengths = [len(items) for items, _ in run]
            out.append(EventBatch(
                [x for items, _ in run for x in items],
                np.concatenate([[0], np.cumsum(lengths)]),
                [np.nan if t is None else t for _, t in run],
            ))
            i += len(run)
            continue
        items, time = events[i]
        if shape == "tuple":
            out.append((list(items), time))
        elif shape == "dict":
            out.append({"items": items} if time is None else {"items": items, "ts": time})
        elif shape == "event":
            out.append(Event(tuple(items), time))
        else:
            out.append(list(items))
        i += 1
    return out


@st.composite
def count_streams(draw):
    events = draw(st.lists(
        st.tuples(_items, st.none() | _times), max_size=60,
    ))
    return _render(draw, events, timed=False)


@st.composite
def time_streams(draw):
    events = draw(st.lists(st.tuples(_items, _times), max_size=60))
    return _render(draw, events, timed=True)


_settings = settings(max_examples=120, deadline=None)


@_settings
@given(objs=count_streams(), size=st.integers(1, 7), batch=st.integers(1, 9))
def test_count_windows_match_per_event_oracle(objs, size, batch):
    assert_equivalent(
        objs, lambda: CountWindowPolicy(size), lambda: _CountOracle(size),
        D, batch,
    )


@_settings
@given(
    objs=time_streams(),
    width=st.sampled_from([0.5, 1.0, 2.5, 3.75]),
    lateness=st.sampled_from([0.0, 0.25, 1.0, 4.5]),
    origin=st.sampled_from([0.0, -1.25, 3.0, 0.1]),
    batch=st.integers(1, 9),
)
def test_time_windows_match_per_event_oracle(
    objs, width, lateness, origin, batch
):
    assert_equivalent(
        objs,
        lambda: TimeWindowPolicy(width, lateness=lateness, origin=origin),
        lambda: _TimeOracle(width, lateness, origin),
        D, batch,
    )


# ----------------------------------------------------------------------
# Full-size batches over a realistic disordered stream
# ----------------------------------------------------------------------
def test_default_batches_match_oracle_on_disordered_stream():
    rng = np.random.default_rng(11)
    n, d = 20_000, 12
    times = np.arange(n) * 0.001
    shifted = rng.random(n) < 0.05
    times[shifted] -= rng.uniform(0.0, 0.8, int(shifted.sum()))
    objs = [
        (tuple(np.flatnonzero(rng.random(d) < 0.3).tolist()), float(t))
        for t in times
    ]
    assert_equivalent(
        objs,
        lambda: TimeWindowPolicy(1.7, lateness=0.3, origin=-0.2),
        lambda: _TimeOracle(1.7, 0.3, -0.2),
        d, events_module.BATCH,
    )


def test_large_event_batch_is_split_to_batch_size(monkeypatch):
    monkeypatch.setattr(events_module, "BATCH", 4)
    batch = EventBatch.from_events([([i % 3], None) for i in range(10)])
    assert [len(b) for b in events_module.iter_batches([batch])] == [4, 4, 2]


# ----------------------------------------------------------------------
# Normalisation: the bulk path agrees with as_event or defers to it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("objs", [
    [([1, 2], 0.5), ((3,), 2)],                 # fast path
    [(True, 1.0), ([1], True)],                  # bools
    [([1.0, 2], 0.5)],                           # float items
    [([2**70, 1], 0.5)],                         # item beyond int64
    [((0, 1), 3)],                               # a pair of ints is items
    [(0, 3)],                                    # bare tuple of items
    [([1], 0.5, 9), ([2], 0.5)],                 # not a pair
    [Event((1, 4), 2.0), Event((), None)],
    [{"items": [3], "time": 4}, [0, 0, 2]],
])
def test_from_events_agrees_with_as_event(objs):
    def as_row(event, d=8):
        return [int(i in event.items) for i in range(d)]

    try:
        reference = [as_event(o) for o in objs]
    except StreamError:
        with pytest.raises(StreamError):
            EventBatch.from_events(objs)
        return
    batch = EventBatch.from_events(objs)
    assert batch.rows(8).tolist() == [as_row(e) for e in reference]
    np.testing.assert_array_equal(
        batch.times,
        [np.nan if e.time is None else e.time for e in reference],
    )


def test_event_batch_rejects_bad_offsets():
    with pytest.raises(StreamError, match="offsets"):
        EventBatch([1, 2], [0, 3], [0.0])
