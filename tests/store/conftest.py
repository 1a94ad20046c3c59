"""Shared fixtures for the synopsis-store tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.priview import PriView
from repro.covering.repository import best_design
from repro.marginals.dataset import Dataset
from repro.store import SynopsisStore


def fit_synopsis(d: int = 8, seed: int = 1, epsilon: float = 2.0):
    """A small fitted synopsis; distinct seeds give distinct payloads."""
    rng = np.random.default_rng(1000 + seed)
    data = (rng.random((600, d)) < 0.35).astype(np.uint8)
    dataset = Dataset(data, name=f"fixture-d{d}-s{seed}")
    return PriView(epsilon, design=best_design(d, 4, 2), seed=seed).fit(dataset)


@pytest.fixture(scope="session")
def alpha_synopsis():
    return fit_synopsis(d=8, seed=1, epsilon=1.0)


@pytest.fixture(scope="session")
def beta_synopsis():
    return fit_synopsis(d=10, seed=2, epsilon=2.0)


@pytest.fixture(scope="session")
def alpha_v2_synopsis():
    """Same shape as ``alpha`` but a different noise stream — what a
    re-publish of the dataset would look like."""
    return fit_synopsis(d=8, seed=7, epsilon=1.0)


@pytest.fixture
def store(tmp_path) -> SynopsisStore:
    return SynopsisStore(tmp_path / "store")
