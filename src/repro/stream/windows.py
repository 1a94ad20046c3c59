"""Window policies and per-window bit-packed shards.

The ingestion driver (:func:`iter_windows`) routes a stream of events
into tumbling windows and yields one :class:`ClosedWindow` — carrying
a bit-sliced :class:`~repro.kernels.packed.PackedDataset` shard — per
closed window, in close order.  Two policies:

* :class:`CountWindowPolicy` — every ``size`` accepted events start a
  new window; window bounds are event-sequence numbers.  Count
  windows can never see a late event.
* :class:`TimeWindowPolicy` — event-time tumbling windows of
  ``width`` seconds, closed by a watermark that trails the maximum
  event time seen by ``lateness`` seconds.  Events older than the
  watermark's closed horizon are *late*: they are counted
  (``stream.late_events``, :attr:`TimeWindowPolicy.late_events`) and
  dropped rather than silently mutating an already-released window —
  a released DP synopsis is immutable, so re-opening it would either
  leak budget or corrupt the ledger's parallel-composition audit.

Ingestion is columnar: events arrive as :class:`~repro.stream.events.
EventBatch` runs, a policy routes a whole batch at once
(:meth:`TimeWindowPolicy.route_batch`), and each window's rows are
copied into its shard in one segment.  Closes happen at the batch
position that triggers them, so the windows, their order and their
packed words are the same as routing one event at a time.

Shards are packed **incrementally**: rows accumulate into a small
buffer that is bit-packed (:func:`repro.kernels.packed.
pack_columns`) every ``chunk_records`` rows, so a window of any size
streams through a fixed working set and closes into a ready
:class:`PackedDataset` without ever materialising the `(N, d)` uint8
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.kernels.packed import PackedDataset, pack_columns
from repro.stream.events import StreamError, iter_batches

#: Rows buffered before an incremental pack.  Must be a multiple of 64
#: so every full block packs to whole words and blocks concatenate
#: without bit shifting; 8192 rows x d=64 is a ~512 KiB working set.
DEFAULT_CHUNK_RECORDS = 8192

#: Largest window index a time policy accepts: indices are computed in
#: float64, which holds every integer up to here exactly.
_MAX_INDEX = 2.0**53


class WindowShard:
    """One open window's records, bit-packed incrementally."""

    def __init__(
        self,
        num_attributes: int,
        name: str = "window",
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ):
        if num_attributes < 1:
            raise StreamError(
                f"num_attributes must be >= 1, got {num_attributes}"
            )
        if chunk_records < 64 or chunk_records % 64:
            raise StreamError(
                f"chunk_records must be a positive multiple of 64, "
                f"got {chunk_records}"
            )
        self.num_attributes = int(num_attributes)
        self.name = name
        self._chunk = int(chunk_records)
        self._buffer = np.zeros((self._chunk, num_attributes), dtype=np.uint8)
        self._fill = 0
        self._blocks: list[np.ndarray] = []
        self._records = 0

    @property
    def num_records(self) -> int:
        return self._records

    def add_rows(self, rows: np.ndarray) -> None:
        """Append an ``(n, num_attributes)`` 0/1 matrix of records.

        Rows are copied into the pack buffer in whole segments, split
        at chunk boundaries, so the packed words do not depend on how
        the records were grouped into calls.
        """
        rows = np.asarray(rows, dtype=np.uint8)
        if rows.ndim != 2 or rows.shape[1] != self.num_attributes:
            raise StreamError(
                f"rows must have shape (n, {self.num_attributes}), "
                f"got {rows.shape}"
            )
        done = 0
        while done < len(rows):
            take = min(self._chunk - self._fill, len(rows) - done)
            self._buffer[self._fill:self._fill + take] = rows[done:done + take]
            self._fill += take
            done += take
            if self._fill == self._chunk:
                self._blocks.append(pack_columns(self._buffer))
                self._fill = 0
        self._records += len(rows)

    def finish(self) -> PackedDataset:
        """Close the shard into a :class:`PackedDataset`."""
        blocks = list(self._blocks)
        if self._fill:
            blocks.append(pack_columns(self._buffer[: self._fill]))
        if blocks:
            words = np.concatenate(blocks, axis=1)
        else:
            words = np.zeros((self.num_attributes, 0), dtype=np.uint64)
        return PackedDataset(words, self._records, name=self.name)


class Routing(NamedTuple):
    """Where a policy sends one batch of events.

    ``index[i]`` is event ``i``'s window and ``late[i]`` whether it is
    dropped instead.  Each ``(position, bound)`` in ``cuts`` means:
    once the first ``position`` events are in their shards, every open
    window below ``bound`` closes.
    """

    index: np.ndarray
    late: np.ndarray
    cuts: list[tuple[int, int]]


class CountWindowPolicy:
    """Tumbling windows of ``size`` events each."""

    kind = "count"

    def __init__(self, size: int):
        if size < 1:
            raise StreamError(f"window size must be >= 1, got {size}")
        self.size = int(size)
        self.late_events = 0
        self._seen = 0

    def route_batch(self, times: np.ndarray) -> Routing:
        """Route the next ``len(times)`` events (their times unused).

        Window ``k`` closes once the first event of window ``k + 1``
        is in.
        """
        seq = self._seen + np.arange(len(times), dtype=np.int64)
        index = seq // self.size
        starts = np.flatnonzero((seq % self.size == 0) & (seq > 0))
        self._seen += len(times)
        return Routing(
            index,
            np.zeros(len(times), dtype=bool),
            [(int(p) + 1, int(index[p])) for p in starts],
        )

    def bounds(self, index: int) -> tuple[float, float]:
        """Window bounds in event-sequence coordinates."""
        return float(index * self.size), float((index + 1) * self.size)


class TimeWindowPolicy:
    """Event-time tumbling windows with a trailing watermark.

    Window ``i`` spans ``[origin + i*width, origin + (i+1)*width)`` and
    closes once the watermark — the maximum event time seen minus
    ``lateness`` — passes its end.  Events targeting a closed window
    are dropped and counted in :attr:`late_events`.
    """

    kind = "time"

    def __init__(
        self, width: float, lateness: float = 0.0, origin: float = 0.0
    ):
        if width <= 0:
            raise StreamError(f"window width must be > 0, got {width}")
        if lateness < 0:
            raise StreamError(f"lateness must be >= 0, got {lateness}")
        self.width = float(width)
        self.lateness = float(lateness)
        self.origin = float(origin)
        self.late_events = 0
        self._max_time: float | None = None
        #: Windows strictly below this index are closed.
        self._close_bound: int | None = None

    @property
    def watermark(self) -> float | None:
        if self._max_time is None:
            return None
        return self._max_time - self.lateness

    def route_batch(self, times: np.ndarray) -> Routing:
        """Route the next events by their times (NaN = untimed).

        An event is late when its window lies below the close bound in
        force before it; the bound follows the running maximum time.
        """
        times = np.asarray(times, dtype=np.float64)
        if np.isnan(times).any():
            raise StreamError(
                "time-window policy needs a timestamp on every event "
                "(use dict events with 'ts', or a count policy)"
            )
        if not np.isfinite(times).all():
            raise StreamError(
                f"event times must be finite, got "
                f"{times[~np.isfinite(times)][0]}"
            )
        if not len(times):
            return Routing(np.zeros(0, np.int64), np.zeros(0, bool), [])
        high = np.maximum.accumulate(times)
        if self._max_time is not None:
            np.maximum(high, self._max_time, out=high)
        with np.errstate(over="ignore"):
            index = np.floor((times - self.origin) / self.width)
            bound = np.floor(((high - self.lateness) - self.origin) / self.width)
        if not (
            np.abs(index).max() <= _MAX_INDEX and np.abs(bound).max() <= _MAX_INDEX
        ):
            raise StreamError(
                "event times put window indices out of range for "
                f"width {self.width:g} and origin {self.origin:g}"
            )
        before = np.empty_like(bound)
        before[0] = bound[0] if self._close_bound is None else self._close_bound
        before[1:] = bound[:-1]
        late = index < before
        rises = np.flatnonzero(bound > before)

        num_late = int(late.sum())
        if num_late:
            self.late_events += num_late
            obs.incr("stream.late_events", num_late)
        if self._max_time is None or high[-1] > self._max_time:
            self._max_time = float(high[-1])
            obs.set_gauge("stream.watermark", self.watermark)
        self._close_bound = int(bound[-1])
        return Routing(
            index.astype(np.int64),
            late,
            [(int(p) + 1, int(bound[p])) for p in rises],
        )

    def bounds(self, index: int) -> tuple[float, float]:
        return (
            self.origin + index * self.width,
            self.origin + (index + 1) * self.width,
        )


@dataclass(frozen=True)
class ClosedWindow:
    """One closed window, ready to fit: metadata + bit-packed shard."""

    index: int
    start: float
    end: float
    shard: PackedDataset = None
    kind: str = "count"

    @property
    def num_records(self) -> int:
        return self.shard.num_records

    def meta(self) -> dict:
        """The window block recorded in store manifests."""
        return {
            "index": self.index,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "records": self.num_records,
        }


def iter_windows(
    events,
    policy,
    num_attributes: int,
    name: str = "stream",
    chunk_records: int = DEFAULT_CHUNK_RECORDS,
):
    """Route ``events`` through ``policy``; yield closed windows in order.

    Windows that received no events release nothing (they are skipped,
    not yielded as empty shards).  At stream end every still-open
    window is flushed in index order, so a finite stream always
    releases its tail.
    """
    shards: dict[int, WindowShard] = {}

    def close(index: int) -> ClosedWindow:
        shard = shards.pop(index)
        start, end = policy.bounds(index)
        obs.incr("stream.windows")
        return ClosedWindow(
            index=index,
            start=start,
            end=end,
            shard=shard.finish(),
            kind=policy.kind,
        )

    for batch in iter_batches(events):
        obs.incr("stream.events", len(batch))
        routing = policy.route_batch(batch.times)
        rows = batch.rows(num_attributes)
        start = 0
        for stop, bound in [*routing.cuts, (len(batch), None)]:
            segment, index = rows[start:stop], routing.index[start:stop]
            late = routing.late[start:stop]
            if late.any():
                segment, index = segment[~late], index[~late]
            windows = np.unique(index).tolist()
            for w in windows:
                shard = shards.get(w)
                if shard is None:
                    shard = shards[w] = WindowShard(
                        num_attributes,
                        name=f"{name}[{w}]",
                        chunk_records=chunk_records,
                    )
                shard.add_rows(segment if len(windows) == 1 else segment[index == w])
            start = stop
            if bound is not None:
                for w in sorted(w for w in shards if w < bound):
                    yield close(w)
    for index in sorted(shards):
        yield close(index)
