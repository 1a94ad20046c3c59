"""Benchmark the synthesis vertical: fit → synthesize → sample.

Emits ``BENCH_synth.json`` — the acceptance configuration is a mixed
domain of 8 attributes with arities 2–8 at N=200k.  The bars:

* accuracy — the synthetic population's mean L1 error over every
  covered 2-way marginal (against the true data) stays within 1.5x of
  the synopsis's own noise error at the same epsilon.  Synthesis is
  post-processing, so it can only add approximation error on top of
  the noise; this bounds how much.
* throughput — record sampling from the synthesized population
  sustains at least 100k records/s.
* privacy — the ledger audit shows synthesis spent exactly zero
  additional epsilon.

``stages`` splits the synthesis from the obs session the benchmark
opens: ``synth.init`` span time, the mean ``synth.update_seconds``
per round, and the accepted and reverted rounds.  ``env`` records the
machine.
"""

import itertools
import json
import os
import pathlib
import platform
from time import perf_counter

import numpy as np

from repro import obs
from repro.core.priview import PriView
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Domain
from repro.synth import RecordSampler, Synthesizer

ARITIES = (2, 3, 4, 5, 6, 7, 8, 2)
N = 200_000
EPSILON = 1.0
SAMPLE_BATCH = 100_000
SAMPLE_ROUNDS = 10
L1_RATIO_BAR = 1.5
THROUGHPUT_BAR = 100_000.0


def _mean_l1_over_pairs(pairs, dataset, lookup, n):
    """Mean normalized L1 between true pair marginals and ``lookup``'s."""
    errors = []
    for pair in pairs:
        truth = dataset.marginal(pair).counts / dataset.num_records
        approx = lookup(pair)
        errors.append(np.abs(approx / n - truth).sum())
    return float(np.mean(errors))


def test_bench_synth_export(scale, bench_rng):
    domain = Domain.from_arities(ARITIES)
    dataset = Dataset.random(N, domain, rng=bench_rng)

    with obs.session() as sess:
        fit_start = perf_counter()
        synopsis = PriView(epsilon=EPSILON, seed=20140622).fit(
            dataset
        )
        fit_s = perf_counter() - fit_start

        synth_start = perf_counter()
        records = Synthesizer(seed=20140622).fit(synopsis)
        synth_s = perf_counter() - synth_start

        audit = {row.name: row for row in sess.ledger.audit()}
        spans = [span for root in sess.tracer.roots for span in root.walk()]
        update = sess.metrics.observation("synth.update_seconds")
        stages = {
            "synth.init_s": sum(
                span.duration for span in spans if span.name == "synth.init"
            ),
            "synth.update_mean_s": update["mean"],
            "synth.rounds": sess.metrics.counter("synth.rounds"),
            "synth.rounds_reverted": sess.metrics.counter(
                "synth.rounds_reverted"
            ),
        }
    fit_row = audit["PriView.fit"]
    synth_row = audit["Synthesizer.fit"]
    assert fit_row.spent_max == EPSILON
    # the acceptance bar: synthesis spends exactly zero epsilon
    assert synth_row.configured == 0.0
    assert synth_row.spent_max == 0.0
    assert synth_row.status == "exact"

    covered = sorted({
        pair
        for view in synopsis.views
        for pair in itertools.combinations(sorted(view.attrs), 2)
    })
    synopsis_l1 = _mean_l1_over_pairs(
        covered, dataset,
        lambda pair: synopsis.marginal(pair).counts
        / synopsis.total_count() * N,
        N,
    )
    synthetic_l1 = _mean_l1_over_pairs(
        covered, dataset,
        lambda pair: records.marginal(pair).counts
        / records.num_records * N,
        N,
    )
    ratio = synthetic_l1 / max(synopsis_l1, 1e-12)
    assert ratio <= L1_RATIO_BAR, (
        f"synthetic mean L1 {synthetic_l1:.5f} is {ratio:.2f}x the "
        f"synopsis noise error {synopsis_l1:.5f} (bar: {L1_RATIO_BAR}x)"
    )

    sampler = RecordSampler(records, seed=0)
    sampler.sample(SAMPLE_BATCH)  # warm
    sample_start = perf_counter()
    for _ in range(SAMPLE_ROUNDS):
        sampler.sample(SAMPLE_BATCH)
    sample_s = perf_counter() - sample_start
    records_per_s = SAMPLE_ROUNDS * SAMPLE_BATCH / sample_s
    assert records_per_s >= THROUGHPUT_BAR, (
        f"sampling sustained {records_per_s:,.0f} records/s "
        f"(bar: {THROUGHPUT_BAR:,.0f})"
    )

    payload = {
        "benchmark": f"synth_d{len(ARITIES)}_n{N}",
        "scale": scale.name,
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "stages": stages,
        "accuracy": {
            "covered_pairs": len(covered),
            "synopsis_l1": synopsis_l1,
            "synthetic_l1": synthetic_l1,
            "l1_ratio": ratio,
            "bar": L1_RATIO_BAR,
        },
        "synthesis": {
            "fit_s": synth_s,
            "rounds": records.meta["rounds"],
            "records": records.num_records,
            "records_per_s": records.num_records / synth_s,
            "final_l1": records.meta["final_l1"],
        },
        "priview_fit_s": fit_s,
        "sampling": {
            "batch": SAMPLE_BATCH,
            "records_per_s": records_per_s,
            "bar": THROUGHPUT_BAR,
        },
        "privacy": {
            "fit_epsilon_spent": fit_row.spent_max,
            "synth_epsilon_spent": synth_row.spent_max,
        },
    }
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCH_synth.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
