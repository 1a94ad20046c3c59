"""``repro.kernels`` — the fit hot path, made fast.

Three ingredients (see ``docs/PERFORMANCE.md`` for the full story):

* :class:`PackedDataset` — bit-plane dataset (one uint64 word per 64
  records per bit-plane; a binary attribute is one plane, an attribute
  of arity ``b`` is ``ceil(log2 b)``) with a transpose-histogram
  marginal kernel that is bitwise identical to ``Dataset.marginal``
  for both domain kinds and roughly an order of magnitude faster,
  streaming over chunks of records.
* :class:`ParallelExecutor` + :func:`generate_noisy_views` — fans the
  per-view work of ``PriView.fit`` out over threads with per-view
  ``SeedSequence.spawn`` child streams, so the synopsis is
  bit-identical for any worker count.
* :mod:`repro.kernels.indexcache` — introspection over the shared
  subset→index-map caches every projection, consistency pass and
  constraint builder draws from.
"""

from repro.kernels.executor import (
    BACKENDS,
    ParallelExecutor,
    resolve_workers,
    spawn_seed_sequences,
)
from repro.kernels.fit import generate_noisy_views
from repro.kernels.packed import (
    DEFAULT_CHUNK_WORDS,
    PackedDataset,
    as_packed,
    bit_histogram,
    pack_columns,
    plane_count,
    popcount_words,
    unpack_columns,
)
from repro.kernels import indexcache

__all__ = [
    "BACKENDS",
    "DEFAULT_CHUNK_WORDS",
    "PackedDataset",
    "ParallelExecutor",
    "as_packed",
    "bit_histogram",
    "plane_count",
    "generate_noisy_views",
    "indexcache",
    "pack_columns",
    "popcount_words",
    "resolve_workers",
    "spawn_seed_sequences",
    "unpack_columns",
]
