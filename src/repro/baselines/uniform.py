"""The Uniform baseline (Section 5, Evaluation Methodology).

Always answers with the uniform marginal scaled to a (noisy) total
count.  A method that does not beat Uniform carries no information
about the data — the paper plots it as the floor of meaningfulness.
"""

from __future__ import annotations

from repro.baselines.base import MarginalReleaseMechanism
from repro.marginals.attrs import AttrSet
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable
from repro.mechanisms.laplace import noisy_counts


class UniformMethod(MarginalReleaseMechanism):
    """Returns uniformly distributed marginals with the dataset's total,
    over the fitted dataset's domain (binary or categorical)."""

    name = "Uniform"

    def _fit(self, dataset: Dataset) -> None:
        import numpy as np

        self._arities = dataset.arities
        # Spend the budget on the one number we use: the total count.
        self._total = float(
            noisy_counts(
                np.array([float(dataset.num_records)]), self.epsilon, 1.0, self._rng
            )[0]
        )
        self._total = max(self._total, 0.0)

    def _marginal(self, attrs: AttrSet) -> MarginalTable:
        if self._arities is not None:
            attrs = attrs.with_arities(self._arities[a] for a in attrs)
        return MarginalTable.uniform(attrs, self._total)
