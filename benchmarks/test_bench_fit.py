"""Benchmark the fit hot path: bit-sliced kernels vs. the seed path.

Emits ``BENCH_fit.json`` — end-to-end ``PriView.fit`` wall time on a
d=64, N=1M dataset for the legacy (uint8 bincount, sequential) path
and the packed (bit-sliced popcount, worker-pool) path — the
machine-readable trajectory later performance PRs diff against.  The
acceptance bar: the packed + 8-worker fit is at least **5x** faster
end-to-end, and both paths fit to synopses with identical view
attribute sets and consistent totals (the noise streams legitimately
differ — see the determinism contract in ``docs/PERFORMANCE.md``).

d=64 ships no bundled covering design and greedy construction at that
dimension costs more than the fits being measured, so the benchmark
pins the algebraic t=2 grid/MOLS construction (w=72, instant).
"""

import json
import os
import pathlib
from time import perf_counter

import numpy as np

from repro import obs
from repro.core.priview import PriView
from repro.covering.repository import construct_design
from repro.marginals.dataset import Dataset

N = 1_000_000
D = 64
EPSILON = 1.0
REPEATS = 3
MIN_SPEEDUP = 5.0


def _dataset() -> Dataset:
    """Correlated N=1M, d=64 dataset, built in row chunks to keep the
    float temporaries small."""
    rng = np.random.default_rng(20140622)
    profiles = rng.random((4, D)) * 0.6
    rows = []
    chunk = 100_000
    for start in range(0, N, chunk):
        stop = min(start + chunk, N)
        types = rng.integers(0, 4, stop - start)
        rows.append(
            (rng.random((stop - start, D)) < profiles[types]).astype(np.uint8)
        )
    return Dataset(np.concatenate(rows), name="bench-fit")


def _time_fits(make_mechanism, dataset, repeats=REPEATS):
    times, synopsis = [], None
    for seed in range(repeats):
        start = perf_counter()
        synopsis = make_mechanism(seed).fit(dataset)
        times.append(perf_counter() - start)
    return times, synopsis


def test_bench_fit_packed_speedup():
    dataset = _dataset()
    design = construct_design(D, 8, 2)

    # Warm everything amortised across fits out of the measurement:
    # projection/constraint caches (both paths) and the cached packed
    # form (packed path pays the one-off pack cost here).
    PriView(EPSILON, design=design, seed=0).fit(dataset)
    pack_start = perf_counter()
    dataset.packed()
    pack_seconds = perf_counter() - pack_start
    PriView(EPSILON, design=design, seed=0, packed=True, workers=8).fit(dataset)

    legacy_times, legacy_synopsis = _time_fits(
        lambda seed: PriView(EPSILON, design=design, seed=seed), dataset
    )
    with obs.session() as sess:
        packed_times, packed_synopsis = _time_fits(
            lambda seed: PriView(
                EPSILON, design=design, seed=seed, packed=True, workers=8
            ),
            dataset,
        )
        sess.ledger.check()
        snapshot = sess.metrics.snapshot()

    legacy = float(np.median(legacy_times))
    packed = float(np.median(packed_times))
    speedup = legacy / packed

    # Same release surface: identical blocks, near-identical totals
    # (different noise streams over the same exact counts).
    assert [v.attrs for v in packed_synopsis.views] == [
        v.attrs for v in legacy_synopsis.views
    ]
    total = float(dataset.num_records)
    assert abs(packed_synopsis.total_count() - total) / total < 0.01
    assert snapshot["gauges"]["fit.workers"] == 8
    assert snapshot["counters"]["kernel.packed_marginals"] >= REPEATS * design.num_blocks

    assert speedup >= MIN_SPEEDUP, (
        f"packed fit {packed:.3f}s vs legacy {legacy:.3f}s — "
        f"only {speedup:.2f}x, need {MIN_SPEEDUP}x"
    )

    payload = {
        "benchmark": f"fit_d{D}_n{N}_{design.notation}",
        "n": N,
        "d": D,
        "epsilon": EPSILON,
        "design": design.notation,
        "views": design.num_blocks,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "workers": 8,
        "pack_seconds": pack_seconds,
        "legacy_fit_seconds": legacy_times,
        "packed_fit_seconds": packed_times,
        "legacy_median_s": legacy,
        "packed_median_s": packed,
        "legacy_ms_per_view": 1e3 * legacy / design.num_blocks,
        "packed_ms_per_view": 1e3 * packed / design.num_blocks,
        "speedup_packed_vs_legacy": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fit.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
