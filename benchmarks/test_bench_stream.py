"""Benchmark the streaming vertical: ingest → fit → publish → query.

Emits ``BENCH_stream.json`` — sustained window throughput (events
ingested per second and windows released per minute at d=32 with
N=200k records per window, the acceptance configuration) plus the
latency of last-k window-union queries served through the router.
The same records are ingested twice: once handed over one
:class:`~repro.stream.Event` at a time (``ingest``, the gated figure)
and once as columnar :class:`~repro.stream.EventBatch` runs
(``ingest_batched``).  ``stages`` splits the per-Event run into
ingest, fit and publish time from the ``stream.*`` spans, and ``env``
records the machine.
The acceptance bar: every window publishes as its own store version
with window metadata, the parallel-composition audit balances
exactly, and the union of the released windows accounts for every
ingested record.
"""

import json
import os
import pathlib
import platform
from time import perf_counter

import numpy as np

from repro import obs
from repro.serve import EngineRouter
from repro.store import SynopsisStore
from repro.stream import (
    BATCH,
    BudgetSchedule,
    CountWindowPolicy,
    Event,
    EventBatch,
    WindowScheduler,
    answer_windows,
)

D = 32
WINDOW_RECORDS = 200_000
WINDOWS = 3
UNION_QUERIES = 30


def _rows(n: int) -> np.ndarray:
    return np.random.default_rng(0).random((n, D)) < 0.3


def _events(rows):
    """One Event per record."""
    for row in rows:
        yield Event(tuple(int(x) for x in np.nonzero(row)[0]))


def _batches(rows):
    """The same records as untimed EventBatch runs of BATCH events."""
    for lo in range(0, len(rows), BATCH):
        block = rows[lo:lo + BATCH]
        offsets = np.concatenate([[0], np.cumsum(block.sum(axis=1))])
        yield EventBatch(
            np.nonzero(block)[1], offsets, np.full(len(block), np.nan)
        )


def _ingest(store, dataset, events, total):
    """Run the scheduler over ``events``; returns the released window
    records, the throughput figures and the stage split."""
    with obs.session() as sess:
        scheduler = WindowScheduler(
            store, dataset, D, BudgetSchedule(1.0),
            CountWindowPolicy(WINDOW_RECORDS),
        )
        start = perf_counter()
        released = scheduler.run(events)
        elapsed = perf_counter() - start
        sess.ledger.check()
        assert sess.ledger.total_spent() == 1.0  # parallel, not 3.0
        spans = [s for root in sess.tracer.roots for s in root.walk()]

    assert [r.version for r in released] == list(range(1, WINDOWS + 1))
    assert sum(r.records for r in released) == total
    release_s = sum(s.duration for s in spans if s.name == "stream.release")
    stages = {
        "ingest_s": elapsed - release_s,
        "fit_s": sum(r.fit_seconds for r in released),
        "publish_s": sum(s.duration for s in spans if s.name == "store.publish"),
    }
    figures = {"events": total, "events_per_s": total / elapsed, "wall_s": elapsed}
    return released, figures, stages


def test_bench_stream_export(scale, tmp_path):
    store = SynopsisStore(tmp_path / "registry")
    total = WINDOWS * WINDOW_RECORDS
    rows = _rows(total)

    released, ingest, stages = _ingest(store, "stream32", _events(rows), total)
    batched, ingest_batched, _ = _ingest(
        store, "stream32b", _batches(rows), total
    )
    assert [r.records for r in batched] == [r.records for r in released]
    elapsed = ingest["wall_s"]
    fit_s = [r.fit_seconds for r in released]

    with EngineRouter(store) as router:
        cold_start = perf_counter()
        answer = answer_windows(router, "stream32", (0, 5, 9), last=WINDOWS)
        cold_s = perf_counter() - cold_start
        assert answer.union.total() == sum(
            s.answer.table.total() for s in answer.slices
        )
        warm = []
        for i in range(UNION_QUERIES):
            attrs = (i % D, (i + 7) % D)
            t0 = perf_counter()
            answer_windows(router, "stream32", attrs, last=WINDOWS)
            warm.append(perf_counter() - t0)

    warm_ms = sorted(1e3 * s for s in warm)
    payload = {
        "benchmark": f"stream_d{D}_n{WINDOW_RECORDS}x{WINDOWS}",
        "scale": scale.name,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "ingest": ingest,
        "ingest_batched": ingest_batched,
        "stages": stages,
        "windows": {
            "released": len(released),
            "per_minute": 60.0 * len(released) / elapsed,
            "fit_mean_s": sum(fit_s) / len(fit_s),
            "fit_max_s": max(fit_s),
        },
        "union_query": {
            "cold_ms": 1e3 * cold_s,
            "warm_mean_ms": sum(warm_ms) / len(warm_ms),
            "warm_p95_ms": warm_ms[int(0.95 * (len(warm_ms) - 1))],
            "slices": WINDOWS,
        },
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_stream.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
