"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.covering.design import CoveringDesign
from repro.marginals.dataset import Dataset


@pytest.fixture(scope="session", autouse=True)
def _default_obs_session():
    """Run the whole suite under an observability session.

    Instrumentation (spans, counters, the budget ledger) is exercised
    by default so regressions in the instrumented hot paths surface in
    tier-1; tests needing an isolated session open a nested
    ``obs.session()``, which shadows this one for its duration.
    """
    with obs.session() as sess:
        yield sess


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset(rng) -> Dataset:
    """Correlated N=4000, d=10 dataset (mixture of three profiles)."""
    n, d = 4000, 10
    types = rng.integers(0, 3, n)
    profiles = rng.random((3, d)) * 0.7
    data = (rng.random((n, d)) < profiles[types]).astype(np.uint8)
    return Dataset(data, name="small")


@pytest.fixture
def tiny_dataset(rng) -> Dataset:
    """N=500, d=6 — cheap enough for exhaustive checks."""
    return Dataset.random(500, 6, density=0.4, rng=rng, name="tiny")


@pytest.fixture
def chain_design() -> CoveringDesign:
    """Three overlapping 4-blocks covering d=8 with a chain structure."""
    return CoveringDesign(
        8, 4, 1, ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7))
    )
