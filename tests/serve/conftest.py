"""Shared fixtures for the serving-subsystem tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.priview import PriView
from repro.marginals.dataset import Dataset


@pytest.fixture
def chain_synopsis(rng, chain_design):
    """A fitted d=8 synopsis over the chain design (fast, correlated)."""
    n, d = 3000, 8
    types = rng.integers(0, 3, n)
    profiles = rng.random((3, d)) * 0.8
    data = (rng.random((n, d)) < profiles[types]).astype(np.uint8)
    dataset = Dataset(data, name="chain")
    return PriView(2.0, design=chain_design, seed=11).fit(dataset)
