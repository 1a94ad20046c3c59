"""The Direct method (paper Section 3.2).

Release every k-way marginal with independent Laplace noise of scale
``m/epsilon`` where ``m = C(d, k)``, by sequential composition.  The
per-marginal ESE is ``2**k * m**2 * V_u`` (Equation 4).

For large ``d`` the full release cannot be materialised; the noisy
table for a queried marginal is sampled lazily (see the package
docstring), which is distributionally identical.
"""

from __future__ import annotations

import math

from repro import obs
from repro.baselines.base import MarginalReleaseMechanism
from repro.core.nonnegativity import apply_nonnegativity
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable
from repro.mechanisms.laplace import laplace_variance, noisy_marginal


class DirectMethod(MarginalReleaseMechanism):
    """Per-marginal Laplace noise for a fixed target arity ``k``.

    Parameters
    ----------
    epsilon:
        Total budget across all ``C(d, k)`` marginals.
    k:
        The marginal arity the release commits to.
    nonnegativity:
        Post-processing; the paper's Section 5.2 runs Direct with
        ``"global"`` (remove negatives, redistribute the difference).
    """

    name = "Direct"

    def __init__(
        self,
        epsilon: float,
        k: int,
        nonnegativity: str = "global",
        seed: int | None = None,
    ):
        super().__init__(epsilon, seed)
        self.k = int(k)
        self.nonnegativity = nonnegativity

    def _fit(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self._num_marginals = math.comb(dataset.num_attributes, self.k)
        self._cache: dict[tuple[int, ...], MarginalTable] = {}

    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        if len(attrs) != self.k:
            raise ValueError(
                f"Direct released {self.k}-way marginals; asked for {len(attrs)}-way"
            )
        if attrs not in self._cache:
            # The release is sampled lazily, so the draw happens outside
            # fit(); attribute it to a named (non-strict) scope so ledger
            # audits explain why Direct.fit itself spends nothing.
            with obs.budget_scope(
                f"{self.name}.lazy_release", self.epsilon, strict=False
            ):
                table = noisy_marginal(
                    self._dataset.marginal(attrs),
                    self.epsilon,
                    sensitivity=self._num_marginals,
                    rng=self._rng,
                )
            apply_nonnegativity(table, self.nonnegativity)
            self._cache[attrs] = table
        return self._cache[attrs].copy()


def direct_expected_squared_error(
    num_attributes: int, k: int, epsilon: float
) -> float:
    """Equation 4: ESE of the Direct method, ``2**k C(d,k)**2 V_u``."""
    m = math.comb(num_attributes, k)
    return (2.0**k) * (m**2) * laplace_variance(1.0 / epsilon)
