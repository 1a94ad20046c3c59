"""The noisy-view fan-out of ``PriView.fit``.

:func:`generate_noisy_views` extracts one marginal per design block
and adds the per-view Laplace noise, fanning the blocks out over a
:class:`ParallelExecutor`.

Determinism contract
--------------------
The root seed is spawned into one independent
``np.random.SeedSequence`` child per view, assigned by *view index*.
Worker count, backend and completion order therefore never change the
released synopsis: a fit with 1, 2 or 8 workers is bit-identical.
Each call spawns fresh children, so two fits from one root seed
sequence draw different noise.

Budget accounting happens in the caller's thread *after* the fan-out
(one ledger record per view).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.kernels.executor import ParallelExecutor, spawn_seed_sequences
from repro.marginals.table import MarginalTable


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
    scale = 0.0 if np.isinf(epsilon) else sensitivity / epsilon
    seqs = spawn_seed_sequences(root_seed, len(blocks))
    items = [(block, scale, seq) for block, seq in zip(blocks, seqs)]

    with ParallelExecutor(workers, backend) as executor:
        obs.set_gauge("fit.workers", executor.workers)
        views = executor.map(lambda item: _noisy_view(source, item), items)

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
