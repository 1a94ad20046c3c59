"""Counters, gauges and value distributions for pipeline telemetry.

Counters accumulate (ripple passes, IPF sweeps, cells clipped);
gauges hold the last observed value (design size ``w``, final
residuals); observations summarise a stream of values (per-request
latencies in the serving layer).  Each observation series is one
:class:`Histogram` — fixed log-spaced buckets from which
p50/p90/p95/p99 are estimated, plus the exact count/sum/min/max the
summary (with its mean) is read from.  Histograms merge exactly
across label sets, threads and processes (bucket counts add).

Observations may carry **labels** (``{"path": "solved", "dataset":
"adult"}``); each distinct label set is its own series, and lookups
without labels merge every series of that name, so pre-label callers
see the same totals as before.  The registry is a plain dict behind a
lock — metric updates happen at stage/request granularity, not per
cell, so contention is negligible.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

#: Log-spaced (factor 2) latency buckets: 1µs .. ~67s, then +Inf.
#: Quantile estimates are therefore exact to within one factor-2
#: bucket; linear interpolation inside the bucket does much better in
#: practice.  28 buckets keep snapshots and the Prometheus exposition
#: small enough to ship on every scrape.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(1e-6 * 2.0 ** i for i in range(27))

#: Quantiles included in every histogram snapshot.
SNAPSHOT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)


def _normalize_labels(labels) -> tuple:
    """Canonical hashable form: sorted ``(key, value)`` string pairs."""
    if not labels:
        return ()
    if isinstance(labels, tuple):
        return labels  # pre-sorted by the caller (hot-path fast lane)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_series(name: str, labels: tuple) -> str:
    """``name{k=v,...}`` — the flat key used in snapshots."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Histogram:
    """A fixed-bucket histogram of observed values.

    ``bounds`` are inclusive upper bucket edges (Prometheus ``le``
    semantics); one implicit ``+Inf`` bucket catches the overflow.
    Counts are stored per bucket (not cumulative); two histograms over
    the same bounds merge by adding counts, so snapshots taken on
    different threads, label sets or processes combine losslessly.
    """

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # [+Inf] is last
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Fold one value in (O(log buckets))."""
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other`` into self (bounds must match); returns self."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} buckets)"
            )
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def copy(self) -> "Histogram":
        out = Histogram(self.bounds)
        out.merge(self)
        return out

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (0 < q <= 1) from the buckets.

        Finds the bucket holding the target rank and interpolates
        linearly inside it; the overflow bucket answers with the
        observed max.  Exact to within one bucket width by
        construction.  None when empty.
        """
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            below = cumulative
            cumulative += n
            if cumulative >= target:
                if i >= len(self.bounds):  # +Inf bucket
                    return self.max
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                estimate = lower + (target - below) / n * (upper - lower)
                # The true extremes are known exactly; never estimate
                # outside them.
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - count>0 always lands above

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` for every bound plus ``+Inf``."""
        out = []
        cumulative = 0
        for bound, n in zip(self.bounds, self.buckets):
            cumulative += n
            out.append((bound, cumulative))
        out.append((math.inf, cumulative + self.buckets[-1]))
        return out

    def summary(self) -> dict:
        """``count``/``sum``/``min``/``max``/``mean`` (count > 0)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count,
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (mergeable via :meth:`from_dict`).

        ``buckets`` lists only non-empty buckets as ``[le, count]``
        pairs (``le`` null for the overflow bucket) so idle series stay
        one line in JSON exports.
        """
        buckets = []
        for i, n in enumerate(self.buckets):
            if n:
                le = self.bounds[i] if i < len(self.bounds) else None
                buckets.append([le, n])
        out: dict = {
            "count": self.count,
            "sum": self.sum,
            "buckets": buckets,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            out["mean"] = self.sum / self.count
            for q in SNAPSHOT_QUANTILES:
                out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    @classmethod
    def from_dict(
        cls, data: dict, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(bounds)
        index = {bound: i for i, bound in enumerate(hist.bounds)}
        for le, n in data.get("buckets", ()):
            if le is None:
                hist.buckets[-1] += int(n)
            elif le in index:
                hist.buckets[index[le]] += int(n)
            else:
                raise ValueError(f"bucket bound {le!r} not in bounds")
        hist.count = int(data.get("count", sum(b for b in hist.buckets)))
        hist.sum = float(data.get("sum", 0.0))
        hist.min = float(data.get("min", math.inf))
        hist.max = float(data.get("max", -math.inf))
        return hist

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.sum:.6g})"


class MetricsRegistry:
    """Thread-safe counter/gauge/observation store for one session."""

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self._lock = threading.Lock()
        self._buckets = tuple(buckets)
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        #: (name, labels) -> Histogram, the one store per series
        self._histograms: dict[tuple[str, tuple], Histogram] = {}

    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def incr_each(self, names, value: float = 1) -> None:
        """Add ``value`` to several counters under one lock acquisition.

        The serving hot path bumps four counters per request; taking
        the lock once instead of four times keeps the warm-cache path
        inside its latency budget.
        """
        counters = self._counters
        with self._lock:
            for name in names:
                counters[name] = counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        with self._lock:
            self._gauges[name] = value

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        """Last value of gauge ``name`` (None if never set)."""
        with self._lock:
            return self._gauges.get(name)

    def observe(self, name: str, value: float, labels=None) -> None:
        """Fold ``value`` into the histogram for ``name``.

        ``labels`` (dict, or a pre-sorted tuple of pairs for hot
        paths) selects the series; omitted means the unlabeled series.
        """
        value = float(value)
        key = (name, _normalize_labels(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(self._buckets)
            hist.record(value)

    # ------------------------------------------------------------------
    def _merged(self, name: str, labels) -> Histogram | None:
        """(lock held) A merged copy of the series matching ``name``.

        With ``labels`` only series carrying *at least* those labels
        contribute; None when nothing matches.
        """
        wanted = None if labels is None else set(_normalize_labels(labels))
        merged = None
        for (series, series_labels), hist in self._histograms.items():
            if series != name:
                continue
            if wanted is not None and not wanted <= set(series_labels):
                continue
            if merged is None:
                merged = Histogram(self._buckets)
            merged.merge(hist)
        return merged

    def observation(self, name: str, labels=None) -> dict | None:
        """Summary for ``name`` incl. ``mean`` (None if never seen).

        Without ``labels`` every series of that name is merged, so
        callers from before labels existed keep seeing process totals.
        With ``labels`` only series carrying *at least* those labels
        contribute.
        """
        with self._lock:
            merged = self._merged(name, labels)
        return None if merged is None else merged.summary()

    def histogram(self, name: str, labels=None) -> Histogram | None:
        """A merged *copy* of the histogram(s) for ``name``.

        Same matching rules as :meth:`observation`; mutating the
        returned histogram never touches the registry.
        """
        with self._lock:
            return self._merged(name, labels)

    def series(self) -> list[dict]:
        """Structured view of every observation series (for exposition).

        Each entry: ``{"name", "labels", "summary", "histogram"}``
        where histogram is a :class:`Histogram` *copy*.
        """
        with self._lock:
            return [
                {
                    "name": name,
                    "labels": dict(labels),
                    "summary": self._histograms[name, labels].summary(),
                    "histogram": self._histograms[name, labels].copy(),
                }
                for name, labels in sorted(self._histograms)
            ]

    def snapshot(self) -> dict:
        """A JSON-serialisable copy of all metrics.

        Observation and histogram entries are keyed by their rendered
        series name (``name`` or ``name{k=v,...}``); labeled entries
        carry ``metric``/``labels`` fields so exporters can rebuild
        the structure.
        """
        with self._lock:
            out: dict = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }
            if self._histograms:
                observations = {}
                histograms = {}
                for key in sorted(self._histograms):
                    name, labels = key
                    rendered = render_series(name, labels)
                    hist = self._histograms[key]
                    entry = hist.summary()
                    hist_entry = hist.to_dict()
                    if labels:
                        meta = {"metric": name, "labels": dict(labels)}
                        entry.update(meta)
                        hist_entry.update(meta)
                    observations[rendered] = entry
                    histograms[rendered] = hist_entry
                out["observations"] = observations
                out["histograms"] = histograms
            return out
