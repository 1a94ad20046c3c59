"""Tests for the deterministic ParallelExecutor and seed spawning."""

import os
import threading

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.kernels.executor import (
    BACKENDS,
    ParallelExecutor,
    resolve_workers,
    spawn_seed_sequences,
)


class TestResolveWorkers:
    @pytest.mark.parametrize("workers,expected", [(None, 1), (0, 1), (1, 1), (5, 5)])
    def test_explicit(self, workers, expected):
        assert resolve_workers(workers) == expected

    def test_negative_means_cpu_count(self):
        assert resolve_workers(-1) == max(os.cpu_count() or 1, 1)


class TestSeedSpawning:
    def test_deterministic_per_index(self):
        a = spawn_seed_sequences(123, 4)
        b = spawn_seed_sequences(123, 4)
        for sa, sb in zip(a, b):
            ga, gb = np.random.default_rng(sa), np.random.default_rng(sb)
            assert np.array_equal(ga.random(8), gb.random(8))

    def test_children_independent(self):
        seqs = spawn_seed_sequences(123, 3)
        draws = [np.random.default_rng(seq).random(8) for seq in seqs]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_accepts_seed_sequence(self):
        root = np.random.SeedSequence(7)
        seqs = spawn_seed_sequences(root, 2)
        assert len(seqs) == 2

    def test_prefix_stability(self):
        """The first k children don't depend on how many are spawned."""
        a = spawn_seed_sequences(9, 3)
        b = spawn_seed_sequences(9, 10)
        for sa, sb in zip(a, b):
            assert sa.generate_state(4).tolist() == sb.generate_state(4).tolist()


class TestParallelExecutor:
    def test_unknown_backend(self):
        for backend in ("gpu", "process"):
            with pytest.raises(ReproError):
                ParallelExecutor(2, backend=backend)

    def test_auto_resolution(self):
        assert ParallelExecutor(1).backend == "serial"
        assert ParallelExecutor(4).backend == "thread"
        assert "auto" in BACKENDS

    def test_serial_runs_in_caller_thread(self):
        seen = []
        with ParallelExecutor(1) as pool:
            pool.map(lambda _: seen.append(threading.current_thread()), range(3))
        assert all(t is threading.main_thread() for t in seen)

    def test_map_preserves_order(self):
        with ParallelExecutor(4, backend="thread") as pool:
            out = pool.map(lambda x: x * x, range(50))
        assert out == [x * x for x in range(50)]

    def test_close_idempotent(self):
        pool = ParallelExecutor(2, backend="thread")
        pool.map(lambda x: x, range(4))
        pool.close()
        pool.close()

    def test_single_item_skips_pool(self):
        pool = ParallelExecutor(4, backend="thread")
        assert pool.map(lambda x: x + 1, [41]) == [42]
        assert pool._pool is None
        pool.close()
