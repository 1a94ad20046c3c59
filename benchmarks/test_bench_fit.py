"""Benchmark the fit hot path: bit-sliced kernels vs. unpacked extraction.

Emits ``BENCH_fit.json`` — end-to-end ``PriView.fit`` wall time on a
d=64, N=1M dataset, serially and at every worker count up to
``os.cpu_count()``, against the same fit with its marginals counted by
``Dataset.marginal`` (uint8 gather + bincount; the ``legacy`` keys) —
the machine-readable trajectory later performance PRs diff against.
The acceptance bar: the default (serial) fit is at least **5x** faster
end-to-end than the unpacked reference, and every worker count
releases bit-identical views (the determinism contract in
``docs/PERFORMANCE.md``).

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
from repro.kernels.fit import generate_noisy_views
from repro.marginals.dataset import Dataset

N = 1_000_000
D = 64
EPSILON = 1.0
REPEATS = 3
MIN_SPEEDUP = 5.0
#: pool widths timed besides the default serial fit; none above the CPUs
WORKER_COUNTS = [w for w in (2, 4, 8) if w <= (os.cpu_count() or 1)]


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


def _unpacked_fit(seed, dataset, design):
    """The views of a seeded fit, every marginal counted by ``Dataset.marginal``."""
    views = generate_noisy_views(
        dataset, design.blocks, EPSILON, design.num_blocks,
        root_seed=np.random.SeedSequence(seed),
    )
    return PriView(EPSILON, design=design, seed=seed).post_process(views)


def _time_fits(fit, repeats=REPEATS):
    times, views = [], None
    for seed in range(repeats):
        start = perf_counter()
        views = fit(seed)
        times.append(perf_counter() - start)
    return times, views


def test_bench_fit_packed_speedup():
    dataset = _dataset()
    design = construct_design(D, 8, 2)

    # Warm everything amortised across fits out of the measurement:
    # projection/constraint caches and the cached packed form (the
    # first packed fit would pay the one-off pack cost).
    _unpacked_fit(0, dataset, design)
    pack_start = perf_counter()
    dataset.packed()
    pack_seconds = perf_counter() - pack_start
    PriView(EPSILON, design=design, seed=0).fit(dataset)

    legacy_times, legacy_views = _time_fits(
        lambda seed: _unpacked_fit(seed, dataset, design)
    )
    packed_times, by_workers = {}, {}
    with obs.session() as sess:
        for workers in [None] + WORKER_COUNTS:
            packed_times[str(workers or 1)], by_workers[workers] = _time_fits(
                lambda seed: PriView(
                    EPSILON, design=design, seed=seed, workers=workers
                ).fit(dataset).views
            )
        sess.ledger.check()
        snapshot = sess.metrics.snapshot()

    legacy = float(np.median(legacy_times))
    packed = float(np.median(packed_times["1"]))
    speedup = legacy / packed

    # One release whatever the pool width or the extraction kernel.
    for views in list(by_workers.values()) + [legacy_views]:
        for a, b in zip(views, by_workers[None]):
            assert a.attrs == b.attrs and np.array_equal(a.counts, b.counts)
    total = float(dataset.num_records)
    released = float(by_workers[None][0].counts.sum())
    assert abs(released - total) / total < 0.01
    assert snapshot["counters"]["kernel.packed_marginals"] >= REPEATS * design.num_blocks

    assert speedup >= MIN_SPEEDUP, (
        f"packed fit {packed:.3f}s vs unpacked {legacy:.3f}s — "
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
        "workers": [1] + WORKER_COUNTS,
        "pack_seconds": pack_seconds,
        "legacy_fit_seconds": legacy_times,
        "packed_fit_seconds": packed_times["1"],
        "packed_fit_seconds_by_workers": packed_times,
        "legacy_median_s": legacy,
        "packed_median_s": packed,
        "packed_median_s_by_workers": {
            w: float(np.median(t)) for w, t in packed_times.items()
        },
        "legacy_ms_per_view": 1e3 * legacy / design.num_blocks,
        "packed_ms_per_view": 1e3 * packed / design.num_blocks,
        "speedup_packed_vs_legacy": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fit.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
