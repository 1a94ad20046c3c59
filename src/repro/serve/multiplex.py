"""Routing one server across a whole synopsis store.

:class:`EngineRouter` maps dataset names to per-entry
:class:`~repro.serve.engine.QueryEngine` instances backed by a
:class:`~repro.store.SynopsisStore`:

* engines are built **lazily** on first request (loading the resolved
  version, integrity-checked) and evicted LRU beyond ``max_engines``;
* requests take a *lease* on an engine
  (``with router.lease(name) as engine``), which refcounts in-flight
  work — a hot swap retires the old engine but only shuts its thread
  pool down once the last lease is released, so **no in-flight request
  is ever dropped** by a reload;
* :meth:`reload` re-resolves every hosted dataset against the store
  and swaps engines whose published version changed; with ``watch``
  the router stats the manifest mtime on each lease (at most once per
  ``watch_interval`` seconds) and reloads automatically, so
  ``repro store publish`` becomes visible to a running server without
  any endpoint call.

Concurrent lazy builds of the same dataset are single-flighted by a
per-name build lock; distinct datasets build in parallel.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import monotonic, time

from repro import obs
from repro.exceptions import QueryError, StoreError
from repro.obs.log import get_logger
from repro.serve.engine import QueryEngine

log = get_logger("serve")

DEFAULT_MAX_ENGINES = 8

#: File mtimes come from the kernel's coarse clock, so two manifest
#: writes less than one tick apart (up to 10 ms at HZ=100) can share an
#: mtime.  A recorded mtime younger than this is not trusted to mean
#: "unchanged": watch polls reload until it has aged past it.
_MTIME_TICK_S = 0.05


class _Hosted:
    """One resolved dataset version and its live engine."""

    __slots__ = ("name", "info", "engine", "inflight", "retired")

    def __init__(self, name, info, engine):
        self.name = name
        self.info = info
        self.engine = engine
        self.inflight = 0
        self.retired = False


class _Lease:
    """Context manager pinning one hosted engine for one request."""

    __slots__ = ("_router", "_hosted")

    def __init__(self, router: "EngineRouter", hosted: _Hosted):
        self._router = router
        self._hosted = hosted

    @property
    def engine(self) -> QueryEngine:
        return self._hosted.engine

    @property
    def version(self):
        return self._hosted.info

    def __enter__(self) -> QueryEngine:
        return self._hosted.engine

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._router._release(self._hosted)
        return False


class EngineRouter:
    """name → lazily built, hot-swappable :class:`QueryEngine`."""

    def __init__(
        self,
        store,
        max_engines: int = DEFAULT_MAX_ENGINES,
        watch: bool = False,
        watch_interval: float = 0.0,
        **engine_kwargs,
    ):
        from repro.store import SynopsisStore

        if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
            store = SynopsisStore(store, create=False)
        if watch_interval < 0:
            raise QueryError(
                f"watch_interval must be >= 0, got {watch_interval}"
            )
        self.store = store
        self.max_engines = max(1, int(max_engines))
        self.watch = watch
        #: Minimum seconds between manifest polls under ``watch``.  0
        #: (the default) stats the manifest on every lease — maximal
        #: freshness; raise it to bound stat() traffic on hot serving
        #: paths at the cost of that much publish-visibility latency.
        self.watch_interval = float(watch_interval)
        self._engine_kwargs = dict(engine_kwargs)
        self._lock = threading.Lock()
        self._hosted: OrderedDict[str, _Hosted] = OrderedDict()
        self._building: dict[str, threading.Lock] = {}
        self._closed = False
        self._manifest_mtime = store.manifest_mtime()
        self._mtime_settled = time() - self._manifest_mtime >= _MTIME_TICK_S
        self._swaps = 0
        self._reloads = 0
        self._last_poll_mono: float | None = None
        self._last_poll_ts: float | None = None
        self._last_swap_ts: float | None = None

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    def lease(self, name: str) -> _Lease:
        """Pin (building if needed) the engine for ``name``.

        Raises :class:`~repro.exceptions.QueryError` for datasets the
        store does not know, so the server can answer 404.
        """
        if self.watch:
            self._watch_poll()
        while True:
            with self._lock:
                if self._closed:
                    raise QueryError("router is closed")
                hosted = self._hosted.get(name)
                if hosted is not None:
                    hosted.inflight += 1
                    self._hosted.move_to_end(name)
                    return _Lease(self, hosted)
                build_lock = self._building.get(name)
                if build_lock is None:
                    build_lock = self._building[name] = threading.Lock()
                    build_lock.acquire()
                    leader = True
                else:
                    leader = False
            if not leader:
                # Wait for the in-flight build, then retry the fast path.
                with build_lock:
                    pass
                continue
            try:
                hosted = self._build(name)
                with self._lock:
                    self._hosted[name] = hosted
                    self._hosted.move_to_end(name)
                    hosted.inflight += 1
                    evicted = self._evict_over_capacity()
                return_lease = _Lease(self, hosted)
            finally:
                with self._lock:
                    self._building.pop(name, None)
                build_lock.release()
            self._close_retired(evicted)
            return return_lease

    def _build(self, name: str) -> _Hosted:
        try:
            info = self.store.resolve(name)
        except StoreError as exc:
            raise QueryError(str(exc)) from exc
        synopsis = self.store.load_version(info)
        engine = QueryEngine(synopsis, dataset=name, **self._engine_kwargs)
        obs.incr("serve.router.build")
        log.info("hosting %s (sha256 %s…)", info.spec, info.sha256[:12])
        return _Hosted(name, info, engine)

    def _release(self, hosted: _Hosted) -> None:
        close_now = False
        with self._lock:
            hosted.inflight -= 1
            close_now = hosted.retired and hosted.inflight == 0
        if close_now:
            hosted.engine.close()

    def _evict_over_capacity(self) -> list[_Hosted]:
        """(lock held) Retire least-recently-used idle-or-not engines
        beyond capacity; actual close happens when leases drain."""
        evicted = []
        while len(self._hosted) > self.max_engines:
            name, hosted = self._hosted.popitem(last=False)
            hosted.retired = True
            evicted.append(hosted)
            obs.incr("serve.router.evict")
            log.info("evicting engine for %s (LRU)", hosted.info.spec)
        return evicted

    def _close_retired(self, retired: list[_Hosted]) -> None:
        for hosted in retired:
            with self._lock:
                close_now = hosted.inflight == 0
            if close_now:
                hosted.engine.close()

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def _watch_poll(self) -> None:
        """(watch mode) Poll the manifest, rate-limited by the interval."""
        now = monotonic()
        with self._lock:
            if (
                self.watch_interval > 0.0
                and self._last_poll_mono is not None
                and now - self._last_poll_mono < self.watch_interval
            ):
                return
        self.maybe_reload()

    def maybe_reload(self) -> dict | None:
        """Reload iff the store manifest changed since last look."""
        mtime = self.store.manifest_mtime()
        with self._lock:
            self._last_poll_mono = monotonic()
            self._last_poll_ts = time()
            if mtime == self._manifest_mtime and self._mtime_settled:
                return None
        return self._reload(mtime)

    def reload(self) -> dict:
        """Re-resolve every hosted dataset; swap the changed ones.

        New engines are built *before* the swap, outside the router
        lock, so concurrent requests keep being served by the old
        version until the replacement is ready; retired engines close
        once their last in-flight lease drains.  Returns a summary.
        """
        return self._reload(self.store.manifest_mtime())

    def _reload(self, mtime: float) -> dict:
        with self._lock:
            hosted_now = list(self._hosted.items())
            self._manifest_mtime = mtime
            self._mtime_settled = time() - mtime >= _MTIME_TICK_S
            self._reloads += 1
        swapped, unchanged, dropped = [], [], []
        retired: list[_Hosted] = []
        for name, hosted in hosted_now:
            try:
                info = self.store.resolve(name)
            except StoreError:
                # Dataset vanished (pruned away): stop hosting it.
                with self._lock:
                    if self._hosted.get(name) is hosted:
                        del self._hosted[name]
                    hosted.retired = True
                retired.append(hosted)
                dropped.append(name)
                continue
            if info.sha256 == hosted.info.sha256 and (
                info.version == hosted.info.version
            ):
                unchanged.append(hosted.info.spec)
                continue
            replacement = _Hosted(
                name, info, QueryEngine(
                    self.store.load_version(info),
                    dataset=name,
                    **self._engine_kwargs,
                )
            )
            with self._lock:
                current = self._hosted.get(name)
                if current is not hosted:
                    # Lost a race with another reload; discard ours.
                    replacement.retired = True
                    retired.append(replacement)
                    continue
                self._hosted[name] = replacement
                hosted.retired = True
            retired.append(hosted)
            swapped.append({"from": hosted.info.spec, "to": info.spec})
            with self._lock:
                self._swaps += 1
                self._last_swap_ts = time()
            obs.incr("serve.router.swap")
            log.info("hot-swapped %s -> %s", hosted.info.spec, info.spec)
        self._close_retired(retired)
        return {
            "swapped": swapped,
            "unchanged": unchanged,
            "dropped": dropped,
        }

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def datasets(self) -> list[dict]:
        """Every published dataset, flagged with its hosted state."""
        with self._lock:
            hosted = {
                name: h.info.version for name, h in self._hosted.items()
            }
        out = []
        for entry in self.store.entries():
            default = entry.default
            out.append({
                "name": entry.name,
                "versions": [v.version for v in entry.versions],
                "pinned": entry.pinned,
                "serving": default.version,
                "hosted": hosted.get(entry.name),
                "epsilon": default.epsilon,
                "num_attributes": default.num_attributes,
                "design": default.design,
            })
        return out

    def stats(self) -> dict:
        with self._lock:
            hosted = {
                name: {
                    "version": h.info.version,
                    "sha256": h.info.sha256,
                    "inflight": h.inflight,
                }
                for name, h in self._hosted.items()
            }
            swaps, reloads = self._swaps, self._reloads
            last_poll, last_swap = self._last_poll_ts, self._last_swap_ts
        obs.set_gauge("serve.router.engines", len(hosted))
        return {
            "store": self.store.stats(),
            "hosted": hosted,
            "max_engines": self.max_engines,
            "watch": self.watch,
            "watch_interval": self.watch_interval,
            "swaps": swaps,
            "reloads": reloads,
            "last_poll": last_poll,
            "last_swap": last_swap,
        }

    def engine_stats(self, name: str) -> dict:
        """The per-engine ``/stats`` payload for one hosted dataset."""
        with self.lease(name) as engine:
            return engine.stats()

    def close(self) -> None:
        """Retire and close every engine (idempotent)."""
        with self._lock:
            self._closed = True
            hosted_all = list(self._hosted.values())
            self._hosted.clear()
            for hosted in hosted_all:
                hosted.retired = True
        for hosted in hosted_all:
            with self._lock:
                close_now = hosted.inflight == 0
            if close_now:
                hosted.engine.close()

    def __enter__(self) -> "EngineRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
