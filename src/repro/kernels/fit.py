"""The parallel noisy-view fan-out used by ``PriView.fit``.

:func:`generate_noisy_views` extracts one marginal per design block
from a (packed or raw) dataset and adds the per-view Laplace noise,
fanning the blocks out over a :class:`ParallelExecutor`.

Determinism contract
--------------------
The root seed is spawned into one independent
``np.random.SeedSequence`` child per view, assigned by *view index*.
Worker count, backend and completion order therefore never change the
released synopsis: a fit with 1, 2 or 8 workers (threads or
processes) is bit-identical.  The streams differ from the legacy
sequential path (one generator drawn view after view), which
``PriView`` keeps as the default for backwards compatibility.

Budget accounting happens in the caller's process *after* the fan-out
(one ledger record per view), so audits hold even under the process
backend, where worker-side ``repro.obs`` calls would be invisible.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.kernels.executor import (
    ParallelExecutor,
    resolve_workers,
    spawn_seed_sequences,
)
from repro.marginals.table import MarginalTable

# Module global installed in pool workers (process backend only; the
# thread/serial paths close over the source directly).  Set once per
# worker by the pool initializer, read-only afterwards.
_WORKER_SOURCE = None


def _install_source(source) -> None:
    global _WORKER_SOURCE
    _WORKER_SOURCE = source


def _noisy_view(source, item) -> MarginalTable:
    """One view: exact marginal + per-view Laplace stream.

    Binary and categorical sources flow through the same fan-out: the
    rebuilt table keeps the marginal's attribute set, arities and all.
    """
    block, scale, seed_seq = item
    table = source.marginal(block)
    if scale > 0.0:
        rng = np.random.default_rng(seed_seq)
        table = MarginalTable(
            table.attrs,
            table.counts + rng.laplace(loc=0.0, scale=scale, size=table.counts.shape),
        )
    return table


def _noisy_view_global(item) -> MarginalTable:
    """Picklable task for the process backend (source via initializer)."""
    return _noisy_view(_WORKER_SOURCE, item)


def generate_noisy_views(
    source,
    blocks,
    epsilon: float,
    sensitivity: float,
    root_seed,
    workers: int | None = None,
    backend: str = "auto",
) -> list[MarginalTable]:
    """Noisy marginal per block, deterministically, in parallel.

    Parameters
    ----------
    source:
        Anything exposing ``marginal(attrs) -> MarginalTable`` —
        a :class:`~repro.marginals.dataset.Dataset` or the
        bit-sliced :class:`~repro.kernels.packed.PackedDataset`.
    blocks:
        The design's view attribute sets.
    epsilon / sensitivity:
        Laplace noise of scale ``sensitivity / epsilon`` per cell;
        ``epsilon = inf`` releases exact views.
    root_seed:
        Seed material (int, ``SeedSequence`` or None) spawned into one
        child stream per view.
    workers / backend:
        Pool configuration, see :class:`ParallelExecutor`.
    """
    blocks = list(blocks)
    num_views = len(blocks)
    scale = 0.0 if np.isinf(epsilon) else sensitivity / epsilon
    seqs = spawn_seed_sequences(root_seed, num_views)
    items = [(block, scale, seq) for block, seq in zip(blocks, seqs)]

    effective = resolve_workers(workers)
    resolved = backend
    if resolved == "auto":
        resolved = "serial" if effective <= 1 else "thread"
    if resolved == "process":
        executor = ParallelExecutor(
            workers, resolved, initializer=_install_source, initargs=(source,)
        )
        task = _noisy_view_global
    else:
        executor = ParallelExecutor(workers, resolved)

        def task(item):
            return _noisy_view(source, item)

    with executor:
        obs.set_gauge("fit.workers", executor.workers)
        views = executor.map(task, items)

    if scale > 0.0:
        for view in views:
            obs.record_draw(
                "laplace",
                epsilon=epsilon,
                sensitivity=sensitivity,
                scale=scale,
                draws=int(view.counts.size),
            )
    return views
