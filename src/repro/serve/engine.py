"""The query-serving engine: planner + single-flight cache + pool.

One :class:`QueryEngine` wraps one marginal source — typically a
fitted (or loaded) synopsis, but any
:class:`~repro.baselines.base.MarginalSource` works — and answers
marginal queries concurrently:

* each request is planned (covered / derived / solved), executed, and
  cached under ``(attrs, method)``;
* concurrent requests for the same marginal are coalesced — exactly
  one reconstruction runs (see :mod:`repro.serve.cache`);
* batch requests are de-duplicated and fanned out over a thread pool;
* every request is counted by planner path, both in the engine's own
  always-on stats (served at ``/stats``) and through ``repro.obs``
  counters/spans when a session is active.

Answers hand out *copies* of the cached tables, so callers may mutate
what they receive without corrupting the cache.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.reconstruction import (
    RECONSTRUCTION_METHODS,
    ResidualIndex,
    reconstruct_batch,
)
from repro.core.synopsis import PriViewSynopsis
from repro.exceptions import (
    QueryError,
    QueryTimeoutError,
    ReconstructionError,
    ReproError,
)
from repro.kernels import indexcache
from repro.marginals.table import MarginalTable
from repro.obs import propagation
from repro.serve.planner import (
    PATH_COVERED,
    PATH_DERIVED,
    PATH_ERROR,
    PATH_SOLVED,
    QueryPlanner,
)
from repro.serve.cache import SingleFlightLRU, SupersetIndex

DEFAULT_CACHE_SIZE = 1024
DEFAULT_WORKERS = 8

#: Per-request ceiling for the record-sampling route; one JSON
#: response of this many records is already a few MB.
MAX_SAMPLE_RECORDS = 100_000

#: Default seed for the lazily built synthetic population, so two
#: servers (or a restart) hosting the same synopsis sample from the
#: same population.
DEFAULT_SYNTH_SEED = 20140622

#: Solver failures the engine absorbs by retrying with maxent when the
#: requested method was ``residual`` (singular systems, NaN noise).
#: Anything else — validation errors, planner errors — still surfaces.
_SOLVE_FALLBACK_ERRORS = (
    ReconstructionError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


@dataclass(frozen=True)
class _CacheEntry:
    """What the cache stores: the master table plus its provenance."""

    table: MarginalTable
    path: str
    source: tuple[int, ...] | None


@dataclass(frozen=True)
class QueryAnswer:
    """One answered marginal query.

    ``table`` is a private copy; ``path`` is the planner path that
    *originally* produced the table (a cache hit keeps the original
    path and sets ``cached``); ``source`` names the view or cached
    marginal projected from, when any.
    """

    attrs: tuple[int, ...]
    method: str
    table: MarginalTable = field(repr=False)
    path: str
    cached: bool
    elapsed_s: float
    source: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SampleAnswer:
    """One answered record-sampling request.

    ``records`` is a ``(n, d)`` matrix of integer codes over
    ``domain``; ``population`` is the size of the synthesised record
    population the rows were drawn from; ``cold`` marks the request
    that paid for building it.
    """

    n: int
    records: np.ndarray = field(repr=False)
    domain: object
    population: int
    epsilon: float | None
    elapsed_s: float
    cold: bool


def design_notation(source) -> str | None:
    """The covering design's ``C_t(l, w)`` name when ``source`` is a
    synopsis whose views one chose, else ``None``."""
    if isinstance(source, PriViewSynopsis) and source.design is not None:
        return source.design.notation
    return None


class QueryEngine:
    """Concurrent marginal answering on top of one marginal source.

    Parameters
    ----------
    source:
        Any :class:`~repro.baselines.base.MarginalSource` exposing
        ``marginal(attrs)`` and ``num_attributes``.  A
        :class:`~repro.core.synopsis.PriViewSynopsis` of either domain
        kind (fitted or loaded via
        :func:`~repro.core.serialization.load_synopsis`) additionally
        exposes ``views`` and gets the full planner —
        covered / derived / solved.  A viewless source (a fitted
        baseline mechanism, say) answers every cache miss through its
        own ``marginal``; planning degenerates to *solved* but the
        single-flight cache, batching and stats still apply.
    cache_size / workers:
        Answer-cache capacity and thread-pool width.
    default_method:
        Solver for requests that don't name one.
    derive_from_cache:
        Disable to force uncovered queries through the solver even
        when a cached superset could be projected.
    attach:
        When True, register this engine on the source (if it supports
        ``attach_engine``, as the synopsis does) so that
        ``synopsis.marginal(...)`` / ``marginals(...)`` route through
        it (and therefore through the cache).
    dataset:
        Label attached to this engine's latency histograms
        (``serve.request_seconds{dataset=...,path=...}``) so a
        store-backed server's ``/metrics`` splits per dataset.
        Defaults to the source's ``name``, else ``"default"``.
    """

    def __init__(
        self,
        source,
        cache_size: int = DEFAULT_CACHE_SIZE,
        workers: int = DEFAULT_WORKERS,
        default_method: str = "maxent",
        derive_from_cache: bool = True,
        attach: bool = False,
        dataset: str | None = None,
    ):
        if default_method not in RECONSTRUCTION_METHODS:
            raise QueryError(
                f"unknown reconstruction method {default_method!r}; "
                f"choose from {RECONSTRUCTION_METHODS}"
            )
        self.source = source
        self.default_method = default_method
        self.derive_from_cache = derive_from_cache
        self._views: list[MarginalTable] = list(getattr(source, "views", ()) or ())
        self._planner = QueryPlanner(self._views, source.num_attributes)
        # The index answers the derived path's "smallest cached
        # superset" without a scan; it holds keys only, never the
        # engine, so a swapped-out engine is freed by refcount alone.
        self._cache = SingleFlightLRU(cache_size, index=SupersetIndex())
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        total_count = getattr(source, "total_count", None)
        self._total = float(total_count()) if callable(total_count) else None
        # First view wins on (hypothetical) duplicate blocks, matching
        # covering_view's first-match rule so plans resolve bitwise
        # identically to reconstruct()'s own covered path.
        self._view_by_attrs: dict[tuple[int, ...], MarginalTable] = {}
        for view in self._views:
            self._view_by_attrs.setdefault(view.attrs, view)
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._paths = {p: 0 for p in (PATH_COVERED, PATH_DERIVED, PATH_SOLVED, PATH_ERROR)}
        self.dataset = dataset or getattr(source, "name", None) or "default"
        # Pre-sorted label tuples so the hot path never builds or sorts
        # a dict per request (see _normalize_labels' fast lane).
        self._dataset_counter = f"serve.dataset.{self.dataset}"
        self._request_labels = {
            p: (("dataset", self.dataset), ("path", p))
            for p in (PATH_COVERED, PATH_DERIVED, PATH_SOLVED, PATH_ERROR)
        }
        self._lookup_labels = {
            outcome: (("dataset", self.dataset), ("outcome", outcome))
            for outcome in ("hit", "miss")
        }
        # serve.solve_seconds{dataset,method,mode}: label tuples stay
        # alphabetically pre-sorted for _normalize_labels' fast lane;
        # lookups by {method=...} merge the single/batch modes.
        self._solve_labels = {
            (m, mode): (("dataset", self.dataset), ("method", m), ("mode", mode))
            for m in RECONSTRUCTION_METHODS
            for mode in ("single", "batch")
        }
        self._fallbacks = 0
        # Lazily-built per-synopsis residual coefficient index: the
        # first residual solve pays the one-time view transforms, every
        # later solve is O(2**k) lookups (see ResidualIndex).
        self._residual_index: ResidualIndex | None = None
        self._residual_lock = threading.Lock()
        # Lazily-synthesised record population for the /sample route:
        # the first sample request pays the gradual-update fit, every
        # later one is a row-indexing draw.
        self._sampler = None
        self._sampler_lock = threading.Lock()
        self._synth_seed = DEFAULT_SYNTH_SEED
        # Counter-name tuples per (path, hit) so each request is one
        # batched incr_each (one lock, one span lookup) instead of four
        # separate incrs.
        self._counter_names = {
            (p, hit): (
                "serve.request",
                f"serve.path.{p}",
                self._dataset_counter,
                "serve.cache.hit" if hit else "serve.cache.miss",
            )
            for p in (PATH_COVERED, PATH_DERIVED, PATH_SOLVED)
            for hit in (True, False)
        }
        self._error_counters = (
            "serve.request",
            f"serve.path.{PATH_ERROR}",
            self._dataset_counter,
        )
        if attach:
            attach_engine = getattr(source, "attach_engine", None)
            if callable(attach_engine):
                attach_engine(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer(self, attrs, method: str | None = None,
               timeout: float | None = None) -> QueryAnswer:
        """Answer one marginal query.

        With ``timeout`` the work runs on the engine pool and a
        :class:`QueryTimeoutError` is raised if no answer arrives in
        time — the computation keeps running and still populates the
        cache, so a retry usually hits.
        """
        method = self._method(method)
        if timeout is None:
            return self._answer(attrs, method, None)
        future = self._submit_answer(attrs, method, timeout)
        try:
            return future.result(timeout)
        except _FuturesTimeout:
            self._record(PATH_ERROR)
            obs.incr("serve.timeout")
            raise QueryTimeoutError(
                f"query {tuple(attrs)!r} missed its {timeout}s deadline"
            ) from None

    def answer_batch(self, queries, method: str | None = None,
                     timeout: float | None = None) -> list[QueryAnswer]:
        """Answer a workload of queries, de-duplicated, in parallel.

        ``queries`` holds attribute sets (or ``(attrs, method)`` pairs
        to override the batch-level method per query).  Results align
        with the input order; repeated/equivalent sets are computed
        once and each slot receives its own table copy.

        Uncovered (solved-path) misses are pre-solved in one
        reconstruction per method (:func:`reconstruct_batch`) before
        the per-key fan-out; the per-key futures then just install the
        pre-solved tables through the single-flight cache, keeping the
        path/hit accounting identical to the one-at-a-time route.
        Every pre-solved table equals the one :meth:`answer` computes
        for its key, bit for bit, so the cache holds the same answer
        whichever route ran first.
        """
        batch_method = self._method(method)
        keys: list[tuple[tuple[int, ...], str]] = []
        for query in queries:
            if (
                isinstance(query, tuple)
                and len(query) == 2
                and isinstance(query[1], str)
            ):
                attrs, query_method = query
            else:
                attrs, query_method = query, None
            keys.append(
                (self._planner.validate(attrs), self._method(query_method or batch_method))
            )
        distinct = list(dict.fromkeys(keys))
        presolved = self._batch_solve(distinct) if len(distinct) > 1 else {}
        futures = {}
        for key in keys:
            if key not in futures:
                futures[key] = self._submit_answer(
                    key[0], key[1], timeout, presolved.get(key)
                )
        results = {key: future.result(timeout) for key, future in futures.items()}
        out = []
        seen: set = set()
        for key in keys:
            answer = results[key]
            if key in seen:
                # duplicate slot: re-copy so slots never share arrays
                answer = QueryAnswer(
                    attrs=answer.attrs, method=answer.method,
                    table=answer.table.copy(), path=answer.path,
                    cached=True, elapsed_s=answer.elapsed_s,
                    source=answer.source,
                )
            seen.add(key)
            out.append(answer)
        return out

    # ------------------------------------------------------------------
    def _method(self, method: str | None) -> str:
        if method is None:
            return self.default_method
        if method not in RECONSTRUCTION_METHODS:
            raise QueryError(
                f"unknown reconstruction method {method!r}; "
                f"choose from {RECONSTRUCTION_METHODS}"
            )
        return method

    def _plan(self, target: tuple[int, ...], method: str):
        """Plan one uncached key; the cache's superset index is asked
        only when no view covers ``target``."""
        if not self.derive_from_cache:
            return self._planner.plan(target, method)
        return self._planner.plan(
            target, method,
            find_superset=lambda attrs: self._cached_parent(attrs, method),
        )

    def _cached_parent(self, target: tuple[int, ...], method: str):
        """The smallest completed same-method superset of ``target``
        as ``(attrs, table)``, ties to the least recently used."""
        found = self._cache.smallest_superset(target, method)
        if found is None:
            return None
        (attrs, _), entry = found
        return attrs, entry.table

    def _submit_answer(self, attrs, method: str, wait_timeout,
                       presolved: MarginalTable | None = None):
        """Submit ``_answer`` to the pool, carrying the caller's trace
        context onto the worker thread (thread-locals don't cross
        executor boundaries on their own)."""
        context = propagation.current_context()
        if context is None:
            return self._pool.submit(
                self._answer, attrs, method, wait_timeout, presolved
            )
        return self._pool.submit(
            self._run_traced, context, attrs, method, wait_timeout, presolved
        )

    def _run_traced(self, context, attrs, method: str, wait_timeout,
                    presolved: MarginalTable | None = None):
        with propagation.trace_scope(context):
            return self._answer(attrs, method, wait_timeout, presolved)

    def _answer(self, attrs, method: str,
                wait_timeout: float | None,
                presolved: MarginalTable | None = None) -> QueryAnswer:
        # Labelled as an error until the lookup returns, so any raise
        # lands in serve.request_seconds{path=error}.
        with obs.span(
            "serve.request", "serve.request_seconds",
            self._request_labels[PATH_ERROR],
        ) as request:
            try:
                target = self._planner.validate(attrs)
                with obs.span(
                    "serve.cache.lookup", "serve.cache.lookup_seconds",
                    self._lookup_labels["miss"],
                ) as lookup:
                    entry, hit = self._cache.get_or_compute(
                        (target, method),
                        lambda: self._compute(target, method, presolved),
                        wait_timeout,
                    )
                    if hit:
                        # Hit-side lookup timing only for trace-sampled
                        # requests: the warm path is ~20µs end to end
                        # and an extra labeled observe per hit would
                        # show up in BENCH_serve.
                        context = propagation.current_context()
                        if context is not None and context.sampled:
                            lookup.labels = self._lookup_labels["hit"]
                        else:
                            lookup.histogram = None
            except ReproError:
                self._record(PATH_ERROR)
                obs.incr_each(self._error_counters)
                raise
            request.labels = self._request_labels[entry.path]
            self._record(entry.path)
            obs.incr_each(self._counter_names[entry.path, hit])
            if not hit:
                # The cache only changes size on a miss, so the gauge
                # stays off the warm path.
                obs.set_gauge("serve.cache.size", len(self._cache))
        return QueryAnswer(
            attrs=target,
            method=method,
            table=entry.table.copy(),
            path=entry.path,
            cached=hit,
            elapsed_s=request.duration,
            source=entry.source,
        )

    def _compute(self, target: tuple[int, ...], method: str,
                 presolved: MarginalTable | None = None) -> _CacheEntry:
        """Execute the plan for one cache miss (single-flight leader)."""
        plan = self._plan(target, method)
        with obs.span(f"serve.compute.{plan.path}"):
            if plan.path == PATH_COVERED:
                table = self._view_by_attrs[plan.source].project(target)
            elif plan.path == PATH_DERIVED:
                table = plan.parent.project(target)
            elif self._views:
                # A stacked batch solve may have produced this table
                # already; otherwise solve it as a batch of one.
                table = presolved
                if table is None:
                    table = self._solve(method, [target], "single")[0]
            else:
                # Viewless source: the mechanism answers directly.
                table = self.source.marginal(target)
        return _CacheEntry(table=table, path=plan.path, source=plan.source)

    def _residual_solver(self) -> ResidualIndex:
        """The per-synopsis coefficient index, built on first use."""
        index = self._residual_index
        if index is None:
            with self._residual_lock:
                index = self._residual_index
                if index is None:
                    index = ResidualIndex(self._views, self._total)
                    self._residual_index = index
        return index

    def _solve(self, method: str, targets, mode: str) -> list[MarginalTable]:
        """Solved-path reconstruction of ``targets``, with the residual
        safety net; ``mode`` (``single``/``batch``) labels the timing.

        Residual solves run against the precomputed coefficient index;
        one that blows up (singular system, NaN noise in a view) falls
        back to ``maxent`` — the answers are cached under the
        *requested* method's key, and each fallback target is counted
        in ``serve.solve.fallback`` and the engine stats.  A solve that
        raises is not timed.  Answers that are not exact solves are
        counted too: ``serve.solve.unconverged`` per maxent table that
        hit its sweep cap, ``serve.solve.projected`` per residual table
        the simplex projection moved.
        """
        with obs.span(
            "serve.solve", "serve.solve_seconds",
            self._solve_labels[method, mode],
        ) as solve:
            try:
                tables = None
                if method == "residual":
                    try:
                        tables = self._residual_solver().solve_batch(targets)
                    except _SOLVE_FALLBACK_ERRORS:
                        self._count_fallback(len(targets))
                        method = "maxent"
                if tables is None:
                    tables = reconstruct_batch(
                        self._views, targets, method=method,
                        use_covering_view=False, total=self._total,
                    )
            except Exception:
                solve.histogram = None
                raise
            unconverged = projected = 0
            for table in tables:
                meta = table.meta
                if "residual" in meta:
                    projected += meta["residual"]["projected"]
                elif "maxent" in meta:
                    unconverged += not meta["maxent"]["converged"]
            if unconverged:
                obs.incr("serve.solve.unconverged", unconverged)
            if projected:
                obs.incr("serve.solve.projected", projected)
        return tables

    def _batch_solve(self, keys) -> dict:
        """Pre-solve a batch's uncovered misses, one solve per method.

        Plans every distinct uncached key; keys landing on the solved
        path are grouped by method and each group of two or more runs
        one :meth:`_solve`.  Returns ``{key: table}`` for the
        pre-solved keys — everything else (covered, derived, already
        cached, singleton groups) flows through the ordinary per-key
        route.  A group whose solve raises is skipped, so the per-key
        route surfaces each key's own error (e.g. a categorical target
        over an attribute no view holds).
        """
        if not self._views:
            return {}
        groups: dict[str, list[tuple[tuple[int, ...], str]]] = {}
        for key in keys:
            if self._cache.get(key) is not None:
                continue
            target, method = key
            if self._plan(target, method).path == PATH_SOLVED:
                groups.setdefault(method, []).append(key)
        presolved: dict[tuple[tuple[int, ...], str], MarginalTable] = {}
        for method, group in groups.items():
            if len(group) < 2:
                continue
            try:
                tables = self._solve(method, [key[0] for key in group], "batch")
            except (ReproError, *_SOLVE_FALLBACK_ERRORS):
                continue
            obs.incr("serve.solve.batched", len(group))
            presolved.update(zip(group, tables))
        return presolved

    # ------------------------------------------------------------------
    # Record sampling
    # ------------------------------------------------------------------
    def sampler(self):
        """The lazily built :class:`~repro.synth.RecordSampler`.

        The first call synthesises the record population from the
        hosted synopsis (gradual update, fixed seed — two engines over
        the same synopsis build the same population); later calls
        return the cached sampler.  Raises :class:`QueryError` for
        sources without views.
        """
        sampler = self._sampler
        if sampler is None:
            with self._sampler_lock:
                sampler = self._sampler
                if sampler is None:
                    if not getattr(self.source, "views", None):
                        raise QueryError(
                            "record sampling needs a synopsis with views; "
                            f"{type(self.source).__name__} has none"
                        )
                    from repro.synth import RecordSampler, synthesize

                    with obs.span("serve.synth_population"):
                        records = synthesize(
                            self.source, seed=self._synth_seed
                        )
                    sampler = RecordSampler(records, seed=self._synth_seed)
                    obs.set_gauge(
                        "serve.synth_population", records.num_records
                    )
                    self._sampler = sampler
        return sampler

    def sample(self, n: int, seed: int | None = None) -> SampleAnswer:
        """Draw ``n`` synthetic records (codes over the source domain).

        Pure post-processing of the published views — no additional
        privacy budget is spent, however many records are drawn.
        ``seed`` makes the draw reproducible; without it consecutive
        calls return fresh batches.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise QueryError(f"sample size must be a positive int, got {n!r}")
        if n > MAX_SAMPLE_RECORDS:
            raise QueryError(
                f"sample size {n} exceeds the per-request limit "
                f"{MAX_SAMPLE_RECORDS}"
            )
        with obs.span(
            "serve.sample", "serve.sample_seconds", (("dataset", self.dataset),)
        ) as span:
            cold = self._sampler is None
            sampler = self.sampler()
            rows = sampler.sample(n, seed=seed)
        obs.incr("serve.sample.request")
        return SampleAnswer(
            n=n,
            records=rows,
            domain=sampler.domain,
            population=sampler.population,
            epsilon=getattr(self.source, "epsilon", None),
            elapsed_s=span.duration,
            cold=cold,
        )

    def _count_fallback(self, n: int) -> None:
        with self._stats_lock:
            self._fallbacks += n
        obs.incr("serve.solve.fallback", n)

    def _record(self, path: str) -> None:
        with self._stats_lock:
            self._requests += 1
            self._paths[path] += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-serialisable serving statistics (the ``/stats`` body).

        ``requests`` always equals the sum of the ``paths`` values: a
        cache hit counts under the path that originally produced the
        entry, so every request is accounted for by planner path.
        """
        with self._stats_lock:
            requests = self._requests
            paths = dict(self._paths)
            fallbacks = self._fallbacks
        latency = None
        sess = obs.current()
        if sess is not None and sess.metrics is not None:
            hist = sess.metrics.histogram(
                "serve.request_seconds", {"dataset": self.dataset}
            )
            if hist is not None and hist.count:
                latency = {
                    "count": hist.count,
                    "mean": hist.sum / hist.count,
                    "p50": hist.quantile(0.5),
                    "p90": hist.quantile(0.9),
                    "p95": hist.quantile(0.95),
                    "p99": hist.quantile(0.99),
                }
        return {
            "requests": requests,
            "paths": paths,
            "latency": latency,
            "cache": self._cache.stats(),
            "solve": {"fallbacks": fallbacks},
            "default_method": self.default_method,
            "dataset": self.dataset,
            "synopsis": {
                "name": getattr(self.source, "name", type(self.source).__name__),
                "design": design_notation(self.source),
                "epsilon": getattr(self.source, "epsilon", None),
                "num_attributes": self.source.num_attributes,
                "views": len(self._views),
                "total_count": self._total,
            },
            "kernels": {"index_cache": indexcache.stats()},
        }
