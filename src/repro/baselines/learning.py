"""Learning-based marginal release — paper Section 3.7.

The line of work of Gupta et al. (STOC 2011) and Thaler, Ullman &
Vadhan (ICALP 2012) answers conjunction/marginal queries by learning a
low-degree polynomial approximation of the query function: every k-way
marginal cell is approximated by its degree-``t`` truncated Fourier
(parity) expansion, with ``t ~ C sqrt(k) log(1/gamma)`` chosen from the
accuracy parameter ``gamma``.  Only the ``m_t = sum_{j<=t} C(d, j)``
parities of weight at most ``t`` are released (with Laplace noise),
so the release trades an *approximation error* that shrinks with
``t`` against a *noise error* that grows with ``m_t`` — exactly the
tension Figure 1 probes with gamma in {1/2, 1/4, 1/8} (Learning1..3)
and a noise-free variant showing the pure approximation error.

Implementation note: our degree rule is ``t = max(1, min(k, round(
sqrt(k) * log2(1/gamma))))`` with the paper's constant C = 1; the
qualitative behaviour (approximation error dominating, noise taking
over as gamma shrinks) is what the paper's figure demonstrates.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.baselines.base import MarginalReleaseMechanism
from repro.baselines.fourier import fourier_coefficient_count
from repro.core.reconstruction.residual import fwht
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable


def degree_for_gamma(k: int, gamma: float, constant: float = 1.0) -> int:
    """The theory's degree rule ``t = C sqrt(k) log2(1/gamma)``, clamped."""
    raw = constant * math.sqrt(k) * math.log2(1.0 / gamma)
    return max(1, min(k, round(raw)))


class LearningMethod(MarginalReleaseMechanism):
    """Degree-``t`` truncated-parity approximation of k-way marginals.

    Parameters
    ----------
    epsilon:
        Budget for the released parities (``inf`` = approximation-only,
        the paper's green-star variant).
    k:
        Arity of the target marginals.
    gamma:
        Accuracy parameter; smaller gamma = higher degree = less
        approximation error but more noise.
    """

    name = "Learning"

    def __init__(
        self,
        epsilon: float,
        k: int,
        gamma: float = 0.5,
        constant: float = 1.0,
        seed: int | None = None,
    ):
        super().__init__(epsilon, seed)
        self.k = int(k)
        self.gamma = float(gamma)
        self.degree = degree_for_gamma(self.k, self.gamma, constant)

    def _fit(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self._m = fourier_coefficient_count(dataset.num_attributes, self.degree)
        self._cache: dict[tuple[int, ...], MarginalTable] = {}

    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        if attrs not in self._cache:
            true = self._dataset.marginal(attrs)
            theta = fwht(true.counts)
            weights = np.bitwise_count(
                np.arange(true.size, dtype=np.uint64)
            ).astype(np.int64)
            # Truncate: parities above the learned degree are unknown
            # to the mechanism and estimated as zero.
            theta[weights > self.degree] = 0.0
            kept = weights <= self.degree
            if not np.isinf(self.epsilon):
                # Lazily sampled release: attribute the query-time draw
                # to a named (non-strict) scope, like Direct/Fourier.
                with obs.budget_scope(
                    f"{self.name}.lazy_release", self.epsilon, strict=False
                ):
                    theta[kept] += self._rng.laplace(
                        scale=self._m / self.epsilon, size=int(kept.sum())
                    )
                    obs.record_draw(
                        "laplace",
                        epsilon=self.epsilon,
                        sensitivity=self._m,
                        scale=self._m / self.epsilon,
                        draws=int(kept.sum()),
                        label="learning_coefficients",
                    )
            counts = fwht(theta) / true.size
            self._cache[attrs] = MarginalTable(attrs, counts)
        return self._cache[attrs].copy()
