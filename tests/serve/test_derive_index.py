"""The derived path's superset lookup against a brute-force scan.

The engine finds a derived-path parent through the answer cache's
attribute index (:class:`repro.serve.cache.SupersetIndex`) instead of
scanning every cached entry.  These tests pin the plan it picks to the
scan it replaced: covered beats derived beats solved, the smallest
same-method superset wins, ties go to the least recently used entry,
and a cached entry equal to the target is still solved.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

from repro.core.priview import PriView
from repro.covering.design import CoveringDesign
from repro.serve import (
    PATH_COVERED,
    PATH_DERIVED,
    PATH_SOLVED,
    QueryEngine,
)
from repro.serve.cache import SingleFlightLRU, SupersetIndex

D = 10
METHODS = ("maxent", "residual")


@pytest.fixture
def synopsis10(small_dataset):
    """A fitted d=10 synopsis over three overlapping 4-blocks."""
    design = CoveringDesign(
        D, 4, 1, ((0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9))
    )
    return PriView(2.0, design=design, seed=5).fit(small_dataset)


def brute_plan(engine, target, method):
    """(path, source, parent) by scanning views, then the cache in
    LRU order — the rule the index must reproduce."""
    for view in engine.source.views:
        if set(target) <= set(view.attrs):
            return PATH_COVERED, view.attrs, None
    best = None
    for (attrs, key_method), entry in engine._cache.items():
        if key_method != method or not set(target) <= set(attrs):
            continue
        if best is None or len(attrs) < len(best[0]):
            best = (attrs, entry.table)
    if best is not None and best[0] != target:
        return PATH_DERIVED, best[0], best[1]
    return PATH_SOLVED, None, None


def _random_target(rng: random.Random, engine) -> tuple[tuple[int, ...], str]:
    """Mostly subsets of cached entries (derived candidates), of the
    overlap of two equal-size ones (parent ties) and siblings of cached
    entries (one attribute swapped: equal-size parents for a later
    subset), sometimes a cached key itself, else fresh."""
    cached = [key for key, _ in engine._cache.items()]
    roll = rng.random()
    if cached and roll < 0.2:
        attrs, method = rng.choice(cached)
        twins = [
            other for other, m in cached
            if m == method and other != attrs and len(other) == len(attrs)
        ]
        overlap = sorted(set(attrs) & set(rng.choice(twins))) if twins else []
        if overlap:
            k = rng.randint(1, len(overlap))
            return tuple(sorted(rng.sample(overlap, k))), method
    if cached and roll < 0.45:
        attrs, method = rng.choice(cached)
        k = rng.randint(1, len(attrs))
        return tuple(sorted(rng.sample(attrs, k))), method
    if cached and roll < 0.6:
        attrs, method = rng.choice(cached)
        kept = rng.sample(attrs, len(attrs) - 1)
        swapped = rng.choice([a for a in range(D) if a not in attrs])
        return tuple(sorted(kept + [swapped])), method
    if cached and roll < 0.65:
        return rng.choice(cached)
    k = rng.randint(2, 5)
    return tuple(sorted(rng.sample(range(D), k))), rng.choice(METHODS)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_answer_hit_evict_clear(self, synopsis10, seed):
        rng = random.Random(seed)
        paths = {PATH_COVERED: 0, PATH_DERIVED: 0, PATH_SOLVED: 0}
        ties = 0
        with QueryEngine(synopsis10, cache_size=8, workers=1) as engine:
            for _ in range(250):
                if rng.random() < 0.03:
                    engine._cache.clear()
                    continue
                target, method = _random_target(rng, engine)
                # planning alone (no recency effect) must match the scan
                expected = brute_plan(engine, target, method)
                plan = engine._plan(target, method)
                assert (plan.path, plan.source) == expected[:2]
                if expected[0] == PATH_DERIVED:
                    same_size = [
                        attrs for (attrs, m), _ in engine._cache.items()
                        if m == method and set(target) <= set(attrs)
                        and len(attrs) == len(expected[1])
                    ]
                    ties += len(same_size) > 1
                was_cached = engine._cache.get((target, method)) is not None
                answer = engine.answer(target, method=method)
                assert answer.cached == was_cached
                if was_cached:
                    continue
                paths[answer.path] += 1
                assert (answer.path, answer.source) == expected[:2]
                if answer.path == PATH_DERIVED:
                    assert np.array_equal(
                        answer.table.counts,
                        expected[2].project(target).counts,
                    )
            assert len(engine._cache) <= 8
        # the walk exercised every path and equal-size parent ties
        assert all(paths.values()), paths
        assert ties > 0

    def test_equal_size_tie_goes_to_least_recently_used(self, synopsis10):
        with QueryEngine(synopsis10, cache_size=8, workers=1) as engine:
            first = engine.answer((0, 4, 7, 9)).table
            engine.answer((0, 4, 8, 9))
            plan = engine._plan((0, 4, 9), "maxent")
            assert (plan.path, plan.source) == (PATH_DERIVED, (0, 4, 7, 9))
            assert plan.parent is not None
            # refreshing the older entry makes the other one the LRU
            assert engine._cache.get(((0, 4, 7, 9), "maxent")) is not None
            plan = engine._plan((0, 4, 9), "maxent")
            assert plan.source == (0, 4, 8, 9)
            derived = engine.answer((0, 4, 9))
            assert derived.source == (0, 4, 8, 9)
            assert not np.array_equal(first.counts, derived.table.counts)

    def test_other_method_and_self_are_not_parents(self, synopsis10):
        with QueryEngine(synopsis10, cache_size=8, workers=1) as engine:
            engine.answer((0, 4, 7, 9), method="residual")
            assert engine._plan((0, 4, 9), "maxent").path == PATH_SOLVED
            assert engine._plan((0, 4, 9), "residual").path == PATH_DERIVED
            # a cached entry equal to the target is not its own parent
            assert engine._plan((0, 4, 7, 9), "residual").path == PATH_SOLVED


class TestIndexFollowsCache:
    def test_insert_evict_clear(self):
        cache = SingleFlightLRU(2, index=SupersetIndex())
        cache.get_or_compute(((0, 1, 2), "m"), lambda: "a")
        cache.get_or_compute(((0, 1, 3), "m"), lambda: "b")
        assert cache.smallest_superset((0, 1), "m") == (((0, 1, 2), "m"), "a")
        assert cache.smallest_superset((0, 1), "other") is None
        cache.get_or_compute(((5,), "m"), lambda: "c")  # evicts (0, 1, 2)
        assert cache.smallest_superset((0, 1), "m") == (((0, 1, 3), "m"), "b")
        assert cache.smallest_superset((2,), "m") is None
        assert cache.smallest_superset((), "m") == (((5,), "m"), "c")
        cache.clear()
        assert cache.smallest_superset((5,), "m") is None
        assert cache.smallest_superset((), "m") is None


class TestLookupOnlyWhenUncovered:
    def test_covered_miss_never_reaches_the_lookup(
        self, synopsis10, monkeypatch
    ):
        with QueryEngine(synopsis10, cache_size=64, workers=2) as engine:
            # cached supersets of the covered targets below
            engine.answer((0, 1, 2, 4))
            engine.answer((3, 4, 5, 7), method="residual")

            def boom(*args, **kwargs):
                raise AssertionError("superset lookup on a covered miss")

            monkeypatch.setattr(SingleFlightLRU, "smallest_superset", boom)
            assert engine.answer((0, 1)).path == PATH_COVERED
            assert engine.answer((4, 5), method="residual").path == PATH_COVERED
            answers = engine.answer_batch([(1, 2), (3, 5), (7, 8)])
            assert {a.path for a in answers} == {PATH_COVERED}


class TestNoReferenceCycle:
    def test_closed_engine_is_freed_without_the_cyclic_gc(self, synopsis10):
        gc.collect()
        gc.disable()
        try:
            engine = QueryEngine(synopsis10, cache_size=8, workers=2)
            engine.answer((0, 4, 7, 9))
            engine.answer((0, 4, 9))
            engine.answer((1, 5, 8), method="residual")
            engine.answer_batch(
                [(0, 5, 8), (2, 5, 9), (1, 4, 7)], method="residual"
            )
            engine.close()
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()
