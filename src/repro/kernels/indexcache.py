"""The shared projection-index cache, with introspection.

All subset→index arithmetic used across the pipeline — projections,
consistency updates, Ripple neighbour tables, reconstruction
constraint matrices — is memoised at the source in
:mod:`repro.marginals.projection`.  Consistency passes, the Ripple
loop, the maxent/lsq constraint builders and the serving engine all
hit the *same* process-wide caches, so identical index arrays are
built exactly once.

This module is the operational face of that cache: aggregate hit/miss
statistics (surfaced by ``QueryEngine.stats()`` and useful in traces)
and a reset hook for benchmarks that want cold-cache numbers.
"""

from __future__ import annotations

from repro.marginals import projection

#: name -> the memoised callable (all ``functools.lru_cache`` wrapped)
CACHED_KERNELS = {
    "projection_map": projection.projection_map,
    "subset_positions": projection.subset_positions,
    "projection_index": projection._projection_index,
    "constraint_matrix": projection.constraint_matrix,
    "cell_neighbours": projection.cell_neighbours,
}


def stats() -> dict:
    """Per-kernel cache counters plus aggregate hit/miss totals."""
    out: dict = {}
    hits = misses = entries = 0
    for name, fn in CACHED_KERNELS.items():
        info = fn.cache_info()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "entries": info.currsize,
            "maxsize": info.maxsize,
        }
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    out["total"] = {"hits": hits, "misses": misses, "entries": entries}
    return out


def clear() -> None:
    """Drop every cached index array (for cold-cache benchmarking)."""
    for fn in CACHED_KERNELS.values():
        fn.cache_clear()
