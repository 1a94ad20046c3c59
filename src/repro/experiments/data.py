"""Shared dataset acquisition for the experiment drivers.

Caches per (name, scale) so a figure sweeping k and epsilon pays the
generation cost once.  Real files are used when ``REPRO_DATA_DIR`` is
set (see :mod:`repro.datasets.loaders`); otherwise the synthetic
stand-ins are generated with a fixed seed so figures are reproducible.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.datasets.loaders import load_or_synthesize
from repro.datasets.mchain import markov_chain_dataset
from repro.experiments.config import ExperimentScale
from repro.marginals.dataset import Dataset

#: Fixed generation seed: experiments vary mechanism noise, not data.
DATA_SEED = 20140622


@functools.lru_cache(maxsize=16)
def _cached_clickstream(name: str, max_records: int | None) -> Dataset:
    rng = np.random.default_rng(DATA_SEED)
    return load_or_synthesize(name, num_records=max_records, rng=rng)


@functools.lru_cache(maxsize=16)
def _cached_mchain(order: int, max_records: int | None) -> Dataset:
    rng = np.random.default_rng(DATA_SEED + order)
    num_records = max_records or 1_000_000
    return markov_chain_dataset(order, num_records, rng=rng)


def experiment_dataset(name: str, scale: ExperimentScale) -> Dataset:
    """``"kosarak"`` / ``"aol"`` / ``"msnbc"`` / ``"mchain_<order>"``."""
    if name.startswith("mchain_"):
        order = int(name.split("_", 1)[1])
        return _cached_mchain(order, scale.max_records)
    return _cached_clickstream(name, scale.max_records)
