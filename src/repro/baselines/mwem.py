"""MWEM — multiplicative weights + exponential mechanism (Section 3.6).

The non-interactive variant of Hardt, Ligett & McSherry (NIPS 2012)
specialised to k-way marginal queries, maintaining an explicit
distribution over the full ``2**d`` domain (feasible for small ``d``
only, as the paper notes — their largest experiment used d=16).

Per round (of ``T`` rounds, each with budget ``eps/T``):

1. exponential mechanism (half the round's budget) selects the
   marginal whose current answer is worst (L1 score);
2. Laplace mechanism (the other half) measures the selected marginal;
3. multiplicative-weights updates fold the measurement into the
   distribution.

The paper evaluates the *enhanced* variant from [16]: every round
replays all past measurements 100 times, and queries are answered from
the final distribution rather than the running average.  Both variants
are implemented (``enhanced=False`` gives the basic one with
averaging).
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.baselines.base import MarginalReleaseMechanism
from repro.marginals.contingency import FullContingencyTable
from repro.marginals.dataset import Dataset
from repro.marginals.projection import projection_map
from repro.marginals.queries import all_attribute_subsets
from repro.marginals.table import MarginalTable
from repro.mechanisms.exponential import exponential_mechanism


def default_rounds(num_attributes: int) -> int:
    """The paper's choice: ``T = ceil(4 log d) + 2`` (15 for d = 9..12)."""
    return math.ceil(4 * math.log(num_attributes)) + 2


class MWEMMethod(MarginalReleaseMechanism):
    """MWEM over the query class of all ``k``-way marginals.

    Parameters
    ----------
    epsilon:
        Total budget, split evenly over ``rounds``.
    k:
        Arity of the marginal query class.
    rounds:
        ``T``; defaults to the paper's ``ceil(4 log d) + 2``.
    enhanced:
        Replay past measurements ``replays`` times per round and answer
        from the final distribution (the configuration the paper
        evaluates).
    replays:
        Replay sweeps per round in enhanced mode (paper: 100).
    """

    name = "MWEM"

    def __init__(
        self,
        epsilon: float,
        k: int,
        rounds: int | None = None,
        enhanced: bool = True,
        replays: int = 100,
        seed: int | None = None,
    ):
        super().__init__(epsilon, seed)
        self.k = int(k)
        self.rounds = rounds
        self.enhanced = enhanced
        self.replays = replays

    # ------------------------------------------------------------------
    def _fit(self, dataset: Dataset) -> None:
        d = dataset.num_attributes
        n = max(float(dataset.num_records), 1.0)
        rounds = self.rounds or default_rounds(d)
        queries = all_attribute_subsets(d, self.k)
        true = FullContingencyTable.from_dataset(dataset)
        true_marginals = [true.marginal(attrs).counts for attrs in queries]
        pmaps = [projection_map((2,) * d, attrs) for attrs in queries]

        # Distribution over the domain, scaled to total mass n.
        synthetic = np.full(1 << d, n / (1 << d))
        average = np.zeros_like(synthetic)
        measurements: list[tuple[int, np.ndarray]] = []
        eps_round = self.epsilon / rounds

        for _ in range(rounds):
            scores = np.array(
                [
                    np.abs(
                        np.bincount(pm, weights=synthetic, minlength=tm.size) - tm
                    ).sum()
                    for pm, tm in zip(pmaps, true_marginals)
                ]
            )
            chosen = exponential_mechanism(
                scores, eps_round / 2.0, sensitivity=1.0, rng=self._rng
            )
            if np.isinf(self.epsilon):
                noisy = true_marginals[chosen].copy()
            else:
                noisy = true_marginals[chosen] + self._rng.laplace(
                    scale=2.0 / eps_round, size=true_marginals[chosen].size
                )
                # The measurement takes the other half of the round's
                # budget (the selection above recorded the first half).
                obs.record_draw(
                    "laplace",
                    epsilon=eps_round / 2.0,
                    sensitivity=1.0,
                    scale=2.0 / eps_round,
                    draws=int(true_marginals[chosen].size),
                    label="mwem_measurement",
                )
            measurements.append((chosen, noisy))
            sweeps = self.replays if self.enhanced else 1
            for _ in range(sweeps):
                for qi, measured in measurements:
                    synthetic = self._mw_update(
                        synthetic, pmaps[qi], measured, n
                    )
            average += synthetic

        self._queries = {attrs: i for i, attrs in enumerate(queries)}
        self._pmaps = pmaps
        final = synthetic if self.enhanced else average / rounds
        self._table = FullContingencyTable(d, final)

    @staticmethod
    def _mw_update(
        synthetic: np.ndarray,
        pmap: np.ndarray,
        measured: np.ndarray,
        total: float,
    ) -> np.ndarray:
        """One multiplicative-weights step for a full marginal measurement."""
        current = np.bincount(pmap, weights=synthetic, minlength=measured.size)
        # Per-cell queries of the marginal: error distributed via exp().
        adjustment = (measured - current) / (2.0 * total)
        synthetic = synthetic * np.exp(adjustment[pmap])
        synthetic *= total / synthetic.sum()
        return synthetic

    # ------------------------------------------------------------------
    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        return self._table.marginal(attrs)
