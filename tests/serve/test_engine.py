"""Engine behaviour: caching, batching, stats accounting, routing."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.serve.engine as engine_module
from repro import obs
from repro.exceptions import QueryError, QueryTimeoutError
from repro.serve import PATH_SOLVED, QueryEngine


@pytest.fixture
def engine(chain_synopsis):
    with QueryEngine(chain_synopsis, workers=4) as eng:
        yield eng


class _CountingReconstruct:
    """Thread-safe counter over ``reconstruct_batch``, the one
    reconstruction entry point: a batch counts each target once, so
    "computed exactly once" holds whether a query was solved alone (a
    batch of one) or in a stacked batch."""

    def __init__(self, module=engine_module):
        self._lock = threading.Lock()
        self.calls: dict[tuple, int] = {}
        self._real_batch = module.reconstruct_batch

    def __call__(self, views, target_attrs_list, **kwargs):
        targets = list(target_attrs_list)
        with self._lock:
            for target_attrs in targets:
                key = tuple(sorted(target_attrs))
                self.calls[key] = self.calls.get(key, 0) + 1
        return self._real_batch(views, targets, **kwargs)

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self.calls.values())


@pytest.fixture
def counting(monkeypatch):
    counter = _CountingReconstruct()
    monkeypatch.setattr(engine_module, "reconstruct_batch", counter)
    return counter


class TestAnswer:
    def test_second_request_hits_cache(self, engine, counting):
        first = engine.answer((0, 4))
        second = engine.answer((0, 4))
        assert not first.cached and second.cached
        assert first.path == second.path == PATH_SOLVED
        assert np.array_equal(first.table.counts, second.table.counts)
        assert counting.total == 1

    def test_answers_are_private_copies(self, engine):
        first = engine.answer((0, 1))
        first.table.counts[:] = -1.0
        second = engine.answer((0, 1))
        assert second.table.counts.min() >= 0.0

    def test_methods_cached_separately(self, engine):
        a = engine.answer((0, 4), method="maxent")
        b = engine.answer((0, 4), method="lsq")
        assert not b.cached
        assert a.method == "maxent" and b.method == "lsq"

    def test_unknown_method_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.answer((0, 1), method="magic")
        with pytest.raises(QueryError):
            QueryEngine(engine.source, default_method="magic")

    def test_timeout_raises_504_semantics(self, chain_synopsis, monkeypatch):
        real = engine_module.reconstruct_batch

        def slow(views, targets, **kwargs):
            import time

            time.sleep(0.5)
            return real(views, targets, **kwargs)

        monkeypatch.setattr(engine_module, "reconstruct_batch", slow)
        with QueryEngine(chain_synopsis, workers=2) as engine:
            with pytest.raises(QueryTimeoutError):
                engine.answer((0, 4), timeout=0.05)
            stats = engine.stats()
            assert stats["paths"]["error"] >= 1


class TestBatch:
    def test_dedupes_equivalent_sets(self, engine, counting):
        answers = engine.answer_batch([(0, 4), [4, 0], (0, 4), (1, 6)])
        assert [a.attrs for a in answers] == [(0, 4), (0, 4), (0, 4), (1, 6)]
        assert counting.calls == {(0, 4): 1, (1, 6): 1}

    def test_slots_never_share_arrays(self, engine):
        answers = engine.answer_batch([(0, 1), (1, 0)])
        answers[0].table.counts[:] = -5.0
        assert answers[1].table.counts.min() >= 0.0

    @pytest.mark.parametrize("method", ["maxent", "residual"])
    def test_matches_per_key_answers(self, chain_synopsis, method):
        """Uncovered targets, each alone in its shape: the batch route
        returns the per-key route's tables bit for bit."""
        workload = [(0, 4), (1, 4, 6), (0, 2, 5, 7)]
        with QueryEngine(chain_synopsis) as batch, \
                QueryEngine(chain_synopsis) as per_key:
            batched = batch.answer_batch(workload, method=method)
            for attrs, answer in zip(workload, batched):
                single = per_key.answer(attrs, method=method)
                assert answer.path == single.path == PATH_SOLVED
                assert (
                    answer.table.counts.tobytes()
                    == single.table.counts.tobytes()
                )

    def test_per_query_method_override(self, engine):
        answers = engine.answer_batch([((0, 4), "lsq"), (0, 4)], method="maxent")
        assert answers[0].method == "lsq"
        assert answers[1].method == "maxent"

    def test_invalid_query_fails_fast(self, engine):
        with pytest.raises(QueryError):
            engine.answer_batch([(0, 1), (0, 0)])


class TestStatsAccounting:
    def test_every_request_lands_in_exactly_one_path(self, engine):
        queries = [(0, 1), (0, 4), (0, 4), (2, 3), (1, 6)]
        for attrs in queries:
            engine.answer(attrs)
        try:
            engine.answer((0, 0))
        except QueryError:
            pass
        stats = engine.stats()
        assert stats["requests"] == len(queries) + 1
        assert sum(stats["paths"].values()) == stats["requests"]
        assert stats["paths"]["error"] == 1
        cache = stats["cache"]
        assert cache["hits"] + cache["misses"] == len(queries)

    def test_obs_counters_match_engine_stats(self, chain_synopsis):
        with obs.session() as sess:
            with QueryEngine(chain_synopsis) as engine:
                for attrs in [(0, 1), (0, 4), (0, 4), (6, 7)]:
                    engine.answer(attrs)
                stats = engine.stats()
            counters = sess.metrics.snapshot()["counters"]
        assert counters["serve.request"] == stats["requests"]
        for path, count in stats["paths"].items():
            assert counters.get(f"serve.path.{path}", 0) == count
        assert counters["serve.cache.hit"] == stats["cache"]["hits"]
        assert counters["serve.cache.miss"] == stats["cache"]["misses"]
        assert sess.metrics.gauge("serve.cache.size") == stats["cache"]["size"]
        latency = sess.metrics.observation("serve.request_seconds")
        assert latency["count"] == stats["requests"]

    def test_request_spans_feed_histograms_without_tracing(self, chain_synopsis):
        """In an untraced session the request span still times every
        answer into its path series; the lookup histogram takes every
        miss but a hit only when the request is trace-sampled."""
        with obs.session(trace=False) as sess:
            with QueryEngine(chain_synopsis) as engine:
                first = engine.answer((0, 4))
                engine.answer((0, 4))
                with obs.trace_scope(obs.new_context(sampled=True)):
                    engine.answer((0, 4))
                with pytest.raises(QueryError):
                    engine.answer((0, 99))
            metrics = sess.metrics
            lookup = {
                outcome: metrics.observation(
                    "serve.cache.lookup_seconds", {"outcome": outcome}
                )
                for outcome in ("hit", "miss")
            }
            solved = metrics.observation(
                "serve.request_seconds", {"path": first.path}
            )
            errors = metrics.observation(
                "serve.request_seconds", {"path": "error"}
            )
        assert lookup["miss"]["count"] == 1
        assert lookup["hit"]["count"] == 1
        assert solved["count"] == 3
        assert solved["min"] <= first.elapsed_s <= solved["max"]
        assert errors["count"] == 1


class TestSynopsisRouting:
    def test_attached_engine_serves_marginal(self, chain_synopsis, counting):
        with QueryEngine(chain_synopsis, attach=True) as engine:
            assert chain_synopsis.engine is engine
            chain_synopsis.marginal((0, 4))
            chain_synopsis.marginal((0, 4))
            assert counting.total == 1
            assert engine.stats()["requests"] == 2
        chain_synopsis.attach_engine(None)
        assert chain_synopsis.engine is None

    def test_marginals_dedupes_without_engine(self, chain_synopsis, monkeypatch):
        import repro.core.synopsis as synopsis_module

        counter = _CountingReconstruct(synopsis_module)
        monkeypatch.setattr(synopsis_module, "reconstruct_batch", counter)
        tables = chain_synopsis.marginals([(0, 4), [4, 0], (0, 4), (1, 6)])
        assert counter.calls == {(0, 4): 1, (1, 6): 1}
        assert [t.attrs for t in tables] == [(0, 4), (0, 4), (0, 4), (1, 6)]
        # repeated slots are equal but independent
        assert np.array_equal(tables[0].counts, tables[1].counts)
        tables[0].counts[:] = -1
        assert tables[1].counts.min() >= 0

    def test_marginals_routes_through_attached_engine(self, chain_synopsis):
        with QueryEngine(chain_synopsis, attach=True) as engine:
            tables = chain_synopsis.marginals([(0, 1), (1, 0), (0, 4)])
            assert len(tables) == 3
            assert engine.stats()["cache"]["size"] == 2
        chain_synopsis.attach_engine(None)
