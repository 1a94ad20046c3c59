"""Baselines for the categorical extension experiments.

The binary baselines of Section 3 transfer directly: Direct adds
per-marginal Laplace noise with the budget split over all C(d, k)
marginals, and Uniform returns the uniform table.  Both return the shared
:class:`~repro.marginals.table.MarginalTable`, with arities.
"""

from __future__ import annotations

import math

import numpy as np

from repro.marginals.dataset import Dataset
from repro.exceptions import PrivacyBudgetError
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable
from repro.mechanisms.laplace import noisy_counts


class CategoricalDirect:
    """The Direct method for k-way categorical marginals."""

    def __init__(self, epsilon: float, k: int, seed: int | None = None):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self.k = int(k)
        self._rng = np.random.default_rng(seed)

    def fit(self, dataset: Dataset) -> "CategoricalDirect":
        self._dataset = dataset
        self._num_marginals = math.comb(dataset.num_attributes, self.k)
        return self

    def marginal(self, attrs) -> MarginalTable:
        attrs = AttrSet(attrs)
        if len(attrs) != self.k:
            raise ValueError(
                f"Direct released {self.k}-way marginals; "
                f"asked for {len(attrs)}-way"
            )
        table = self._dataset.marginal(attrs)
        table.counts = noisy_counts(
            table.counts, self.epsilon, self._num_marginals, self._rng
        )
        np.maximum(table.counts, 0.0, out=table.counts)
        return table


class CategoricalUniform:
    """Uniform tables scaled to a noisy total — the floor baseline."""

    def __init__(self, epsilon: float, seed: int | None = None):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self._rng = np.random.default_rng(seed)

    def fit(self, dataset: Dataset) -> "CategoricalUniform":
        self._arities = dataset.arities
        noisy = noisy_counts(
            np.array([float(dataset.num_records)]),
            self.epsilon,
            1.0,
            self._rng,
        )
        self._total = max(float(noisy[0]), 0.0)
        return self

    def marginal(self, attrs) -> MarginalTable:
        attrs = AttrSet(attrs)
        return MarginalTable.uniform(
            attrs.with_arities(self._arities[a] for a in attrs), self._total
        )
