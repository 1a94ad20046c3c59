"""Concurrency smoke test: 32 threads hammer one engine.

Asserts the single-flight guarantee (exactly one solver invocation per
distinct uncovered attribute set, no matter how many threads race) and
that answers never cross-talk between threads.
"""

from __future__ import annotations

import random
import threading

import numpy as np

import repro.serve.engine as engine_module
from repro.serve import PATH_COVERED, PATH_SOLVED, QueryEngine

THREADS = 32
COVERED = [(0, 1), (2, 3), (6, 7)]
# pairwise non-nested, so the derived path can never shortcut them
UNCOVERED = [(0, 4), (1, 6), (2, 7)]


def test_single_flight_under_hammering(chain_synopsis, monkeypatch):
    real = engine_module.reconstruct_batch
    lock = threading.Lock()
    solver_calls: dict[tuple, int] = {}

    def counting(views, targets, **kwargs):
        with lock:
            for target_attrs in targets:
                key = tuple(sorted(target_attrs))
                solver_calls[key] = solver_calls.get(key, 0) + 1
        return real(views, targets, **kwargs)

    monkeypatch.setattr(engine_module, "reconstruct_batch", counting)

    with QueryEngine(chain_synopsis, workers=8) as engine:
        # reference answers, computed through the same plumbing
        reference = {
            attrs: engine.answer(attrs).table.counts.copy()
            for attrs in COVERED + UNCOVERED
        }
        # reset to an empty cache so all 32 threads genuinely race
        engine._cache.clear()
        solver_calls.clear()

        barrier = threading.Barrier(THREADS)
        failures: list[str] = []

        def worker(thread_index: int) -> None:
            queries = COVERED + UNCOVERED
            random.Random(thread_index).shuffle(queries)
            barrier.wait(timeout=10)
            for attrs in queries:
                answer = engine.answer(attrs)
                if answer.attrs != attrs:
                    failures.append(f"{attrs}: got attrs {answer.attrs}")
                elif not np.array_equal(answer.table.counts, reference[attrs]):
                    failures.append(f"{attrs}: cross-talk in counts")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        assert not failures, failures[:5]
        # single-flight: one solver run per distinct uncovered set
        assert solver_calls == {attrs: 1 for attrs in UNCOVERED}

        stats = engine.stats()
        total = THREADS * len(COVERED + UNCOVERED)
        assert stats["requests"] == total + len(reference)
        assert sum(stats["paths"].values()) == stats["requests"]
        assert stats["paths"]["error"] == 0
        assert stats["paths"]["derived"] == 0
        # hits keep the original path, so every request for an
        # uncovered set is accounted under 'solved' and every request
        # for a covered set under 'covered'
        per_set = THREADS + 1  # the hammering threads + the reference pass
        assert stats["paths"][PATH_SOLVED] == per_set * len(UNCOVERED)
        assert stats["paths"][PATH_COVERED] == per_set * len(COVERED)
