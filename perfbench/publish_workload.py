"""publish: the write path, in-process and without a server.

One pass runs, under one ``repro.obs`` session:

(a) a time-stamped binary event stream through
    ``repro.stream.WindowScheduler`` with event-time windows: every
    closed window is fitted (``repro.core`` on ``repro.kernels``) and
    published to a ``repro.store`` store under the strict
    parallel-composition ledger;
(b) a mixed-domain dataset fitted with ``CategoricalPriView``, then
    ``repro.synth.Synthesizer.fit``.

End to end: ``latency_p50_ms`` is the median event freshness, from
the moment an event was handed to the scheduler to the moment its
window's version was readable from the store; ``throughput_per_s``
counts the records the whole write path turned out per second (events
released plus synthetic rows).  Both take the fastest of the run's
windows and passes (see ``write_path``): the work is the same in every
window and pass, and the machine's speed is not.  Passes repeat while
another one fits in the run's seconds.

The fit and synthesis noise is fixed (``NOISE_SEED``), so every run
does the same privacy and synthesis work; ``--seed`` draws the order
and disorder of the events only.
"""

from __future__ import annotations

import itertools
import shutil
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from repro import obs
from repro.categorical.priview import CategoricalPriView
from repro.kernels.packed import PackedDataset
from repro.store import SynopsisStore
from repro.stream import BudgetSchedule, TimeWindowPolicy, WindowScheduler
from repro.synth import Synthesizer

import checks
import inputs
from common import ROOT, WORK, median, own_peak_rss_mb, quantile, server_env

EPSILON = 1.0
DATASET = "events"
#: Events handed over between two send-time marks.
CHUNK = 512
#: Synthetic 2-way L1 error may be at most this multiple of the
#: synopsis's own (PrivSyn-style synthesis only adds approximation).
L1_RATIO_BAR = 1.5
#: Checks per pass: the three of ``checks.stream_problems``, the stream
#: ledger scope, synthesis spending zero epsilon, synthesis L1.
CHECKS_PER_PASS = 6
#: Freshness charged to an event whose window never became readable.
FAILED_LATENCY_MS = 60_000.0
#: Noise seed of every fit and of synthesis.  How many Ripple passes,
#: consistency updates and accepted synthesis rounds a fit takes depends
#: on its noise, so a per-run noise seed would change the work measured.
NOISE_SEED = inputs.DATA_SEED

#: What set-up costs a fresh process: imports of the write path, store
#: creation, the window policy and the scheduler (its design lookup).
SETUP_SCRIPT = """
import sys
from repro.categorical.priview import CategoricalPriView
from repro.store import SynopsisStore
from repro.stream import BudgetSchedule, TimeWindowPolicy, WindowScheduler
from repro.synth import Synthesizer
store = SynopsisStore(sys.argv[1])
policy = TimeWindowPolicy(float(sys.argv[2]), lateness=float(sys.argv[3]))
WindowScheduler(store, "events", 32, BudgetSchedule(1.0), policy)
"""


@dataclass(frozen=True)
class PublishSize:
    events: int
    windows: int
    lateness_events: int
    synth_records: int
    spawns: int           # fresh processes timed for setup_s


FULL = PublishSize(600_000, 10, 2000, 200_000, 3)
TINY = PublishSize(20_000, 4, 200, 5_000, 2)
WARMUP = PublishSize(10_000, 2, 100, 2_000, 0)


def time_setup(work, stream, spawns: int) -> list[float]:
    times = []
    for spawn in range(spawns):
        store_dir = work / f"setup-store-{spawn}"
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(store_dir),
             repr(stream.width), repr(stream.lateness)],
            env=server_env(), cwd=ROOT, check=True, timeout=120,
        )
        times.append(perf_counter() - start)
    return times


def _spans(sess) -> list[tuple[str, str | None, object]]:
    """(name, parent name, span) for every span the program recorded."""
    out = []

    def walk(span, parent):
        out.append((span.name, parent, span))
        for child in span.children:
            walk(child, span.name)

    for root in sess.tracer.roots:
        walk(root, None)
    return out


def l1_ratio(dataset, synopsis, records) -> float:
    """Synthetic vs synopsis mean L1 error over the covered 2-way
    marginals, both against the true data."""
    pairs = sorted({
        pair for view in synopsis.views
        for pair in itertools.combinations(sorted(view.attrs), 2)
    })
    n = dataset.num_records
    synopsis_err, synthetic_err = [], []
    for pair in pairs:
        truth = dataset.marginal(pair).counts / n
        noisy = synopsis.marginal(pair).counts
        synth = records.marginal(pair).counts
        synopsis_err.append(np.abs(noisy / noisy.sum() - truth).sum())
        synthetic_err.append(np.abs(synth / synth.sum() - truth).sum())
    return float(np.mean(synthetic_err) / max(np.mean(synopsis_err), 1e-12))


def time_generator(stream) -> float:
    """Seconds the benchmark's own event producer takes over the whole
    stream, without the scheduler.  It runs inside the timed stream
    (the scheduler pulls events from it), so this much of the stream's
    time is benchmark code, not ingest."""
    start = perf_counter()
    for _ in stream.chunks(CHUNK):
        pass
    return perf_counter() - start


def one_pass(stream, cat_data, work, traced: bool) -> dict:
    """One run of the write path; returns its figures and problems."""
    store = SynopsisStore(work / "store")
    policy = TimeWindowPolicy(stream.width, lateness=stream.lateness)
    scheduler = WindowScheduler(
        store, DATASET, inputs.BINARY_D, BudgetSchedule(EPSILON), policy, seed=NOISE_SEED,
    )
    marks: list[float] = []

    def events():
        for chunk in stream.chunks(CHUNK):
            marks.append(perf_counter())
            yield from chunk
        marks.append(perf_counter())

    readable: dict[int, float] = {}
    released: dict[int, int] = {}
    sizes: list[int] = []

    def on_release(record):
        info = store.resolve(f"{DATASET}@{record.version}")
        readable[record.index] = perf_counter()
        released[record.index] = record.records
        sizes.append(info.size_bytes)

    problems: list[str] = []
    with obs.session(trace=traced, metrics=traced, ledger=True) as sess:
        start = perf_counter()
        scheduler.run(events(), on_release=on_release)
        stream_s = max(readable.values()) - start
        stream_counters = dict(sess.metrics.snapshot()["counters"]) if traced else {}

        fit_start = perf_counter()
        synopsis = CategoricalPriView(EPSILON, seed=NOISE_SEED).fit(cat_data)
        synth_start = perf_counter()
        records = Synthesizer(seed=NOISE_SEED).fit(synopsis)
        synth_end = perf_counter()

        try:
            sess.ledger.check()
        except Exception as exc:  # LedgerError: a strict scope is off
            problems.append(f"ledger: {exc}")
        audit = {row.name: row for row in sess.ledger.audit()}
        stream_row = audit.get(scheduler.scope_name)
        if stream_row is None or stream_row.status != "exact" or stream_row.spent_max != EPSILON:
            problems.append(f"stream scope did not spend exactly {EPSILON}: {stream_row}")
        synth_row = audit.get("Synthesizer.fit")
        if synth_row is None or synth_row.spent_max != 0.0 or synth_row.status != "exact":
            problems.append(f"synthesis spent privacy budget: {synth_row}")

    problems += checks.stream_problems(
        stream.num_events, released, policy.late_events, stream
    )
    ratio = l1_ratio(cat_data, synopsis, records)
    if not ratio <= L1_RATIO_BAR:
        problems.append(f"synthetic 2-way L1 is {ratio:.3f}x the synopsis L1")

    # Freshness: send time interpolated inside its chunk of events.
    index = np.arange(stream.num_events)
    chunk = index // CHUNK
    mark = np.asarray(marks)
    chunk_len = np.minimum(CHUNK, stream.num_events - chunk * CHUNK)
    sent = mark[chunk] + (index % CHUNK) / chunk_len * (mark[chunk + 1] - mark[chunk])
    windows = stream.window_of()
    kept = ~stream.late
    lookup = np.full(windows.max() + 1, np.nan)
    lookup[list(readable)] = list(readable.values())
    freshness_ms = 1e3 * (lookup[windows[kept]] - sent[kept])
    if np.isnan(freshness_ms).any():
        problems.append("events of a window that was never released")
        freshness_ms = np.nan_to_num(freshness_ms, nan=FAILED_LATENCY_MS)
    window_p50_ms = [
        quantile(freshness_ms[windows[kept] == w], 0.5)
        for w in np.unique(windows[kept])
    ]
    released_at = sorted(readable.values())
    window_s = np.diff([start] + released_at).tolist()

    synthetic_rows = records.num_records
    out = {
        "window_p50_ms": window_p50_ms,
        "window_s": window_s,
        "fit_s": synth_start - fit_start,
        "synth_s": synth_end - synth_start,
        "stream_s": stream_s,
        "synthetic_rows": synthetic_rows,
        "latency_p90_ms": quantile(freshness_ms, 0.9),
        "latency_p99_ms": quantile(freshness_ms, 0.99),
        "events_per_s": stream.num_events / stream_s,
        "synth_rows_per_s": synthetic_rows / (synth_end - synth_start),
        "windows": len(released),
        "late_events": policy.late_events,
        "l1_ratio": ratio,
        "problems": problems,
        "version_bytes": median(sizes),
    }
    if traced:
        out["layers"] = _layers(sess, stream, readable, start, stream_counters,
                                records, synth_end - synth_start)
        out["layers"]["stream.late_events"] = float(policy.late_events)
    shutil.rmtree(work / "store", ignore_errors=True)
    return out


def _layers(sess, stream, readable, start, counters, records, synth_s) -> dict:
    spans = _spans(sess)
    releases = sorted(
        (span for name, _, span in spans if name == "stream.release"),
        key=lambda s: s.start,
    )
    ends = [start] + [s.start + s.duration for s in releases[:-1]]
    ingest = [s.start - e for s, e in zip(releases, ends)]
    release_ms = [
        1e3 * (when - s.start)
        for s, when in zip(releases, sorted(readable.values()))
    ]

    def mean_span_ms(name, parent):
        values = [s.duration for n, p, s in spans if n == name and p == parent]
        return 1e3 * sum(values) / len(values) if values else 0.0

    design = inputs.binary_design()
    windows = stream.window_of()
    kernel_ms = []
    for index in sorted(readable):
        packed = PackedDataset.from_array(stream.rows((windows == index) & ~stream.late))
        t0 = perf_counter()
        packed.marginals(design.blocks)
        kernel_ms.append(1e3 * (perf_counter() - t0))
    metrics = sess.metrics
    rounds = metrics.counter("synth.rounds")
    reverted = metrics.counter("synth.rounds_reverted")
    update = metrics.observation("synth.update_seconds")
    return {
        "stream.ingest_ms": 1e3 * sum(ingest) / len(ingest),
        "stream.window_release_ms": median(release_ms),
        "kernels.marginals_ms": sum(kernel_ms) / len(kernel_ms),
        "priview.noisy_views_ms": mean_span_ms("noisy_views", "priview.fit"),
        "priview.post_process_ms": mean_span_ms("post_process", "priview.fit"),
        "consistency.table_updates": counters.get("consistency.table_updates", 0.0),
        "ripple.passes": counters.get("ripple.passes", 0.0),
        "store.publish_ms": mean_span_ms("store.publish", "stream.release"),
        "synth.init_ms": mean_span_ms("synth.init", "synth.fit"),
        "synth.round_ms": 1e3 * update["mean"] if update else 0.0,
        "synth.accept_ratio": rounds / (rounds + reverted) if rounds + reverted else 0.0,
        "synth.records_moved": float(records.meta["records_moved"]),
        "synth.rows_per_s": records.num_records / synth_s,
    }


def write_path(passes, num_events: int) -> dict:
    """``latency_p50_ms`` and ``throughput_per_s`` from ``passes``.

    Every window of a pass does the same work (equal event counts, fixed
    noise), and so does every pass, but on a shared virtual machine the
    CPU ran the same Python code at speeds up to 1.8x apart, in phases
    of seconds that show as no steal.  So both figures come from the
    fastest samples: the latency is the lowest window median freshness,
    and the write path's time is the window count times the shortest
    time between two window releases plus the shortest fit and
    synthesis times.  The last window of a pass is left out: it is
    released when the stream ends, without waiting for the watermark.
    """
    windows = len(passes[0]["window_s"])
    stream_s = windows * min(x for p in passes for x in p["window_s"][:-1])
    write_s = (stream_s + min(p["fit_s"] for p in passes)
               + min(p["synth_s"] for p in passes))
    return {
        "latency_p50_ms": min(x for p in passes for x in p["window_p50_ms"][:-1]),
        "throughput_per_s": (num_events + passes[0]["synthetic_rows"]) / write_s,
    }


def run(seed: int, seconds: float, traced: bool, size: PublishSize) -> dict:
    work = WORK / f"publish-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stream = inputs.event_stream(
            inputs.rng_for(seed, 6), size.events, windows=size.windows,
            lateness_events=size.lateness_events,
        )
        cat_data = inputs.categorical_dataset(
            inputs.rng_for(inputs.DATA_SEED, 7), size.synth_records, inputs.SYNTH_ARITIES
        )
        setup_times = time_setup(work, stream, size.spawns)
        generator_s = time_generator(stream)
        # Warm-up on small inputs: first-use costs are not per-pass costs.
        one_pass(inputs.event_stream(inputs.rng_for(seed, 8), WARMUP.events,
                                     windows=WARMUP.windows,
                                     lateness_events=WARMUP.lateness_events),
                 inputs.categorical_dataset(inputs.rng_for(inputs.DATA_SEED, 9),
                                            WARMUP.synth_records, inputs.SYNTH_ARITIES),
                 work, traced=False)
        passes = []
        if traced:
            for tracing in (False, True):
                passes.append((tracing, one_pass(stream, cat_data, work, tracing)))
        else:
            # Another pass only while it fits in the run's seconds.
            began = perf_counter()
            while True:
                started = perf_counter()
                passes.append((False, one_pass(stream, cat_data, work, False)))
                now = perf_counter()
                if now - began + (now - started) > seconds:
                    break
        untraced = [p for tracing, p in passes if not tracing]
        e2e = write_path(untraced, stream.num_events)
        e2e["setup_s"] = median(setup_times)
        e2e["peak_rss_mb"] = own_peak_rss_mb()
        problems = [msg for _, p in passes for msg in p["problems"]]
        attempted = CHECKS_PER_PASS * len(passes)
        stream_s = median([p["stream_s"] for p in untraced])
        summary = {
            **e2e,
            "latency_p90_ms": median([p["latency_p90_ms"] for p in untraced]),
            "latency_p99_ms": median([p["latency_p99_ms"] for p in untraced]),
            "error_rate": len(problems) / attempted,
            "passes": len(passes),
            "setup_s_samples": setup_times,
            "stream_s_samples": [p["stream_s"] for p in untraced],
            "fit_s_samples": [p["fit_s"] for p in untraced],
            "synth_s_samples": [p["synth_s"] for p in untraced],
            "generator_s": generator_s,
            "generator_share": generator_s / stream_s,
            "events": stream.num_events,
            "late_events_expected": stream.num_late,
            "ingest_events_per_s": median([p["events_per_s"] for p in untraced]),
            "synth_rows_per_s": median([p["synth_rows_per_s"] for p in untraced]),
            "windows": untraced[0]["windows"],
            "synthetic_l1_ratio": untraced[0]["l1_ratio"],
            "freshness_samples": stream.num_events - stream.num_late,
        }
        out = {
            "e2e": e2e, "summary": summary, "attempted": attempted,
            "failed": len(problems), "problems": problems,
        }
        if traced:
            traced_pass = passes[-1][1]
            plain = write_path(untraced, stream.num_events)
            with_trace = write_path([traced_pass], stream.num_events)
            layers = dict(traced_pass["layers"])
            layers["stream.events_per_s"] = traced_pass["events_per_s"]
            layers["store.version_bytes"] = traced_pass["version_bytes"]
            layers["trace.overhead.latency_p50"] = (
                with_trace["latency_p50_ms"] / plain["latency_p50_ms"] - 1.0
            )
            layers["trace.overhead.throughput"] = (
                with_trace["throughput_per_s"] / plain["throughput_per_s"] - 1.0
            )
            out["layers"] = layers
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)
