"""Instrumentation overhead guardrails.

The statistical comparison is marked ``bench`` (excluded from tier-1
by the default ``-m "not bench"``); run it with::

    pytest tests/obs/test_overhead.py -m bench
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro import obs
from repro.core.priview import PriView
from repro.covering.repository import best_design
from repro.marginals.dataset import Dataset


def _fit_times(dataset, design, repeats):
    times = []
    for seed in range(repeats):
        start = time.perf_counter()
        PriView(1.0, design=design, seed=seed).fit(dataset)
        times.append(time.perf_counter() - start)
    return times


@pytest.mark.bench
def test_enabled_instrumentation_overhead_is_small():
    rng = np.random.default_rng(0)
    data = (rng.random((20_000, 16)) < 0.3).astype(np.uint8)
    dataset = Dataset(data, name="overhead")
    design = best_design(16, 8, 2)
    PriView(1.0, design=design, seed=0).fit(dataset)  # warm caches

    with obs.session(trace=False, metrics=False, ledger=False):
        disabled = _fit_times(dataset, design, 7)
    with obs.session():
        enabled = _fit_times(dataset, design, 7)

    ratio = statistics.median(enabled) / statistics.median(disabled)
    assert ratio < 1.25, f"instrumented fit {ratio:.2f}x slower than disabled"
