"""Event normalisation for the streaming ingestion layer.

An *event* is one record of the evolving dataset: the set of binary
attributes ("items", transaction-style — the same shape
:meth:`~repro.marginals.dataset.Dataset.from_transactions`
consumes) plus an optional event time.  Producers hand the ingestor
any of:

* a bare iterable of item ids — ``[0, 3, 5]`` — untimed;
* a ``(items, time)`` pair — ``([0, 3, 5], 17.25)``;
* a mapping — ``{"items": [0, 3, 5], "ts": 17.25}`` (``"time"`` and
  ``"event_time"`` are accepted aliases for ``"ts"``);
* JSON lines of either of the first two shapes via
  :func:`read_jsonl_events`;
* an :class:`EventBatch` — many events at once, in columnar form.

Item ids outside ``range(num_attributes)`` are ignored downstream
(the paper's top-K preprocessing convention), and an item repeated
inside one event still sets a single 1.

Ingestion is columnar: :func:`iter_batches` pulls :data:`BATCH`
objects at a time and normalises each run into one
:class:`EventBatch`.  ``(items, time)`` tuples and :class:`Event`
objects take a bulk path; every other shape, and every run that fails
the bulk path's type checks, goes through :func:`as_event`, which
stays the one definition of what an event is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, groupby, islice

import numpy as np

from repro.exceptions import ReproError

#: Producer objects normalised per :class:`EventBatch`.  A blocking
#: producer sees a closable window released at the next cut of this
#: many events (or at stream end); larger batches are split to it.
BATCH = 4096


class StreamError(ReproError):
    """Malformed events, windows or stream configuration."""


@dataclass(frozen=True)
class Event:
    """One normalised stream record."""

    items: tuple[int, ...]
    time: float | None = None


_TIME_KEYS = ("ts", "time", "event_time")


def as_event(obj) -> Event:
    """Normalise any accepted producer shape into an :class:`Event`."""
    if isinstance(obj, Event):
        return obj
    if isinstance(obj, dict):
        if "items" not in obj:
            raise StreamError(f"event object needs an 'items' key: {obj!r}")
        time = None
        for key in _TIME_KEYS:
            if obj.get(key) is not None:
                time = float(obj[key])
                break
        return Event(_as_items(obj["items"]), time)
    if (
        isinstance(obj, tuple)
        and len(obj) == 2
        and not isinstance(obj[1], (list, tuple, set, frozenset))
        and (obj[1] is None or isinstance(obj[1], (int, float)))
        and isinstance(obj[0], (list, tuple, set, frozenset))
    ):
        items, time = obj
        return Event(_as_items(items), None if time is None else float(time))
    return Event(_as_items(obj), None)


def _as_items(items) -> tuple[int, ...]:
    try:
        return tuple(int(item) for item in items)
    except (TypeError, ValueError) as exc:
        raise StreamError(
            f"event items must be an iterable of integers, got {items!r}"
        ) from exc


@dataclass(frozen=True)
class EventBatch:
    """Many events in columnar (CSR) form.

    The items of event ``i`` are ``items[offsets[i]:offsets[i+1]]``
    and its event time is ``times[i]``, with NaN meaning untimed.
    """

    items: np.ndarray
    offsets: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        items = np.asarray(self.items, dtype=np.int64).reshape(-1)
        offsets = np.asarray(self.offsets, dtype=np.int64).reshape(-1)
        times = np.asarray(self.times, dtype=np.float64).reshape(-1)
        if (
            len(offsets) != len(times) + 1
            or offsets[0] != 0
            or offsets[-1] != len(items)
            or (np.diff(offsets) < 0).any()
        ):
            raise StreamError(
                f"event batch offsets must rise from 0 to {len(items)} "
                f"over {len(times)} events"
            )
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_events(cls, objs) -> EventBatch:
        """Normalise a sequence of producer objects (not batches)."""
        objs = list(objs)
        kinds = set(map(type, objs))
        batch = None
        if kinds == {tuple}:
            batch = _from_pairs(objs)
        elif kinds == {Event}:
            batch = _from_columns(
                [e.items for e in objs], [e.time for e in objs]
            )
        if batch is None:
            batch = _from_checked(list(map(as_event, objs)))
        return batch

    def slice(self, start: int, stop: int) -> EventBatch:
        """Events ``start:stop`` as a batch of their own."""
        offsets = self.offsets[start:stop + 1]
        return EventBatch(
            self.items[offsets[0]:offsets[-1]],
            offsets - offsets[0],
            self.times[start:stop],
        )

    def rows(self, num_attributes: int) -> np.ndarray:
        """The events as an ``(n, num_attributes)`` 0/1 uint8 matrix.

        Out-of-range items are ignored; a repeated item sets one 1.
        """
        out = np.zeros((len(self), num_attributes), dtype=np.uint8)
        event = np.repeat(
            np.arange(len(self), dtype=np.int64), np.diff(self.offsets)
        )
        valid = (self.items >= 0) & (self.items < num_attributes)
        out[event[valid], self.items[valid]] = 1
        return out


_TIME_TYPES = {int, float, type(None)}
_ITEMS_TYPES = {tuple, list}
_INT64 = np.iinfo(np.int64)


def _from_pairs(pairs) -> EventBatch | None:
    """Bulk path for ``(items, time)`` tuples; None when a tuple is
    of another shape (left to :func:`as_event`)."""
    if set(map(len, pairs)) != {2}:
        return None
    items, times = zip(*pairs)
    if not (
        set(map(type, items)) <= _ITEMS_TYPES
        and set(map(type, times)) <= _TIME_TYPES
    ):
        return None
    return _from_columns(items, times)


def _from_columns(items, times) -> EventBatch | None:
    """Bulk CSR build; None when an item is not a plain int64 integer
    or a time does not convert (left to :func:`as_event`)."""
    try:
        lengths = list(map(len, items))
        flat = np.array(list(chain.from_iterable(items)))
        times = np.array(times, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if flat.ndim != 1 or (flat.size and flat.dtype.kind != "i"):
        return None
    return _csr(flat, lengths, times)


def _from_checked(events) -> EventBatch:
    """CSR build from :func:`as_event` output.  Items beyond int64 are
    out of range for any domain, so they become -1 (ignored)."""
    try:
        items = [
            [i if _INT64.min <= i <= _INT64.max else -1 for i in map(int, e.items)]
            for e in events
        ]
        times = np.array(
            [np.nan if e.time is None else e.time for e in events],
            dtype=np.float64,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise StreamError(f"malformed event in batch: {exc}") from exc
    flat = np.fromiter(chain.from_iterable(items), dtype=np.int64)
    return _csr(flat, list(map(len, items)), times)


def _csr(flat, lengths, times) -> EventBatch:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return EventBatch(flat, offsets, times)


def iter_batches(source):
    """Yield :class:`EventBatch` runs of at most :data:`BATCH` events.

    ``source`` may mix every producer shape, :class:`EventBatch`
    objects included; event order is kept.
    """
    it = iter(source)
    while chunk := list(islice(it, BATCH)):
        if EventBatch not in set(map(type, chunk)):
            yield EventBatch.from_events(chunk)
            continue
        for is_batch, run in groupby(chunk, lambda o: type(o) is EventBatch):
            if not is_batch:
                yield EventBatch.from_events(run)
                continue
            for batch in run:
                for start in range(0, len(batch), BATCH):
                    yield batch.slice(start, min(start + BATCH, len(batch)))


def read_jsonl_events(path):
    """Yield events from a JSON-lines file, one event per line.

    Each line is a JSON array of item ids or an object with ``items``
    (+ optional ``ts``/``time``/``event_time``).  Blank lines are
    skipped; malformed lines raise :class:`StreamError` with the line
    number, since silently dropping records would bias every window.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                blob = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamError(
                    f"{path}:{lineno}: invalid JSON event: {exc}"
                ) from exc
            yield as_event(blob)
