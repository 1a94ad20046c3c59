"""Deterministic fan-out for the fit hot loop.

:class:`ParallelExecutor` maps a function over an item list serially
or on a thread pool (numpy releases the GIL inside the marginal
kernels).  Determinism is owned by the *caller*, not the pool: work
item ``i`` carries its own pre-assigned RNG stream (see
:func:`spawn_seed_sequences`), so the result list is bit-identical for
any worker count and any scheduling order — the contract
``tests/kernels/test_parallel_fit.py`` locks in.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.exceptions import ReproError

#: Recognised backends; ``auto`` resolves to serial for <= 1 worker
#: and threads otherwise.
BACKENDS = ("auto", "serial", "thread")


def spawn_seed_sequences(root: np.random.SeedSequence | int | None, n: int):
    """``n`` independent child seed sequences of ``root``.

    Children are assigned to work items by *index*, never by worker,
    which is what makes a parallel fit reproducible across pool sizes.
    """
    if not isinstance(root, np.random.SeedSequence):
        root = np.random.SeedSequence(root)
    return root.spawn(n)


def resolve_workers(workers: int | None) -> int:
    """Effective pool width: ``None``/0 → 1, negative → cpu count."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return int(workers)


class ParallelExecutor:
    """Ordered, deterministic ``map`` over a worker pool.

    Parameters
    ----------
    workers:
        Pool width; ``None``, 0 or 1 run serially in the caller's
        thread, negative means "one per CPU".
    backend:
        ``auto`` (default), ``serial`` or ``thread``.  ``auto`` picks
        serial for an effective width of 1 and threads otherwise.
    """

    def __init__(self, workers: int | None = None, backend: str = "auto"):
        if backend not in BACKENDS:
            raise ReproError(
                f"unknown executor backend {backend!r}; choose from {BACKENDS}"
            )
        self.workers = resolve_workers(workers)
        if backend == "auto":
            backend = "serial" if self.workers <= 1 else "thread"
        self.backend = backend
        self._pool = None

    # ------------------------------------------------------------------
    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]`` with the configured pool.

        Results keep the input order regardless of completion order.
        """
        items = list(items)
        if self.backend == "serial" or len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-fit"
            )
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        """Shut the pool down (idempotent; serial backend is a no-op)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers}, backend={self.backend!r})"
