"""Bounded LRU answer cache with single-flight computation.

The serving engine keys this cache by ``(attrs, method)``.  Two
properties matter under concurrency:

* **LRU bound** — the cache never holds more than ``capacity``
  entries; the least recently *used* (read or written) entry is
  evicted first, so a hot working set of marginals stays resident
  while one-off queries age out.
* **single-flight** — when N threads ask for the same missing key at
  once, exactly one (the *leader*) runs the factory; the rest block on
  an event and share the leader's result (or its exception).  A
  reconstruction is never run twice concurrently for the same key.

The implementation is stdlib-only (``OrderedDict`` + ``threading``)
and value-agnostic; hit/miss/coalesced/eviction tallies are kept for
``/stats``.

A cache built with a :class:`SupersetIndex` also answers "the smallest
cached entry whose attribute set contains this one" (the serving
engine's *derived* path) without scanning its entries: the index maps
each ``(tag, attribute)`` to the keys that contain it and moves with
every insert, eviction and :meth:`SingleFlightLRU.clear` under the
cache's own lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.exceptions import QueryTimeoutError


class _InFlight:
    """One in-progress computation: waiters park on ``event``."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


def _drop(postings: dict, index_key, key) -> None:
    """Remove ``key`` from one posting set, deleting the set once empty."""
    keys = postings.get(index_key)
    if keys is not None:
        keys.discard(key)
        if not keys:
            del postings[index_key]


class SupersetIndex:
    """Attribute → keys index over ``(attrs, tag)`` cache keys.

    ``attrs`` is a sorted tuple of attribute ids and ``tag`` groups
    keys that may stand in for one another (the engine uses the
    reconstruction method).  :meth:`supersets` intersects the posting
    sets of the query's attributes, smallest first, so its cost follows
    the rarest attribute's posting set, not the number of keys.  Not
    thread-safe on its own: the owning :class:`SingleFlightLRU` calls
    it under its lock.
    """

    __slots__ = ("_postings", "_tagged")

    def __init__(self):
        self._postings: dict[tuple, set] = {}
        # every key per tag: the empty attribute set's supersets
        self._tagged: dict = {}

    def add(self, key) -> None:
        attrs, tag = key
        self._tagged.setdefault(tag, set()).add(key)
        for a in attrs:
            self._postings.setdefault((tag, a), set()).add(key)

    def discard(self, key) -> None:
        attrs, tag = key
        _drop(self._tagged, tag, key)
        for a in attrs:
            _drop(self._postings, (tag, a), key)

    def clear(self) -> None:
        self._postings.clear()
        self._tagged.clear()

    def supersets(self, attrs, tag) -> set:
        """The indexed ``tag`` keys whose attrs contain ``attrs``
        (``attrs``'s own key included, when indexed)."""
        if not attrs:
            return set(self._tagged.get(tag, ()))
        postings = []
        for a in attrs:
            keys = self._postings.get((tag, a))
            if keys is None:
                return set()
            postings.append(keys)
        postings.sort(key=len)
        return postings[0].intersection(*postings[1:])


class SingleFlightLRU:
    """Thread-safe bounded LRU with request coalescing.

    With ``index`` (a :class:`SupersetIndex`; keys must then be
    ``(attrs, tag)`` pairs) the cache keeps it in step with its
    entries and serves :meth:`smallest_superset`.
    """

    def __init__(self, capacity: int = 1024,
                 index: SupersetIndex | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._index = index
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()
        self._inflight: dict = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key):
        """The cached value, or None (also refreshes recency)."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
            return None

    def items(self) -> list:
        """Snapshot of ``(key, value)`` pairs (no recency effect)."""
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            if self._index is not None:
                self._index.clear()

    def smallest_superset(self, attrs, tag):
        """``(key, value)`` of the cached ``tag`` entry with the fewest
        attributes containing ``attrs``, or None.

        Ties go to the least recently used entry — the first one
        :meth:`items` lists — and only a tie walks the recency order.
        ``attrs``'s own entry, when cached, is the unique smallest.
        No recency effect.  Needs the cache to have been built with an
        ``index``.
        """
        with self._lock:
            keys = self._index.supersets(attrs, tag)
            if not keys:
                return None
            size = min(len(key[0]) for key in keys)
            tied = [key for key in keys if len(key[0]) == size]
            if len(tied) == 1:
                (key,) = tied
            else:
                tied = set(tied)
                key = next(k for k in self._data if k in tied)
            return key, self._data[key]

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------
    def get_or_compute(self, key, factory, wait_timeout: float | None = None):
        """Return ``(value, from_cache)``, computing at most once per key.

        The leader thread runs ``factory()`` (outside the lock) and
        publishes the result; concurrent callers for the same key wait
        up to ``wait_timeout`` seconds (None = forever) and report
        ``from_cache=True``.  A factory exception is propagated to the
        leader *and* every waiter, and nothing is cached, so the next
        request retries.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key], True
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = _InFlight()
                leader = True
                self.misses += 1
            else:
                leader = False
                self.coalesced += 1

        if not leader:
            if not flight.event.wait(wait_timeout):
                raise QueryTimeoutError(
                    f"timed out after {wait_timeout}s waiting for the "
                    f"in-flight computation of {key!r}"
                )
            if flight.error is not None:
                raise flight.error
            return flight.value, True

        try:
            value = factory()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        flight.value = value
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if self._index is not None:
                self._index.add(key)
            while len(self._data) > self.capacity:
                evicted, _ = self._data.popitem(last=False)
                self.evictions += 1
                if self._index is not None:
                    self._index.discard(evicted)
            self._inflight.pop(key, None)
        flight.event.set()
        return value, False
