"""The Flat method (paper Section 3.1).

Add ``Lap(1/epsilon)`` to every cell of the full contingency table and
answer marginals by summation.  ESE is ``2**d * V_u`` (Equation 3) —
excellent for small ``d``, hopeless beyond a couple dozen dimensions,
where only the analytic expected error is computable (the paper plots
exactly that for d=32/45, capped at 1 to credit non-negativity
correction, Section 5.2).
"""

from __future__ import annotations

import math

from repro.baselines.base import MarginalReleaseMechanism
from repro.core.nonnegativity import apply_nonnegativity
from repro.marginals.contingency import FullContingencyTable
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable
from repro.mechanisms.laplace import laplace_variance, noisy_counts


class FlatMethod(MarginalReleaseMechanism):
    """Noisy full contingency table; feasible for d <= 24 only.

    Parameters
    ----------
    epsilon:
        Privacy budget.
    nonnegativity:
        Optional post-processing of reconstructed marginals
        (``"none"`` | ``"simple"`` | ``"global"`` | ``"ripple"``); the
        paper's large-d estimate caps the expected error at 1 to
        account for such corrections.
    """

    name = "Flat"

    def __init__(
        self, epsilon: float, nonnegativity: str = "none", seed: int | None = None
    ):
        super().__init__(epsilon, seed)
        self.nonnegativity = nonnegativity

    def _fit(self, dataset: Dataset) -> None:
        table = FullContingencyTable.from_dataset(dataset)
        table.counts = noisy_counts(table.counts, self.epsilon, 1.0, self._rng)
        self._table = table

    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        result = self._table.marginal(attrs)
        apply_nonnegativity(result, self.nonnegativity)
        return result


def flat_expected_squared_error(num_attributes: int, epsilon: float) -> float:
    """Equation 3: ESE of any marginal under Flat is ``2**d * V_u``."""
    return (2.0**num_attributes) * laplace_variance(1.0 / epsilon)


def flat_expected_normalized_l2(
    num_attributes: int,
    epsilon: float,
    num_records: float,
    cap: float | None = 1.0,
) -> float:
    """Expected normalised L2 error of Flat, capped like the paper.

    ``sqrt(ESE) / N``; Section 5.2 caps the plotted value at 1 because
    errors beyond the table's own mass would largely be removed by
    non-negativity correction.
    """
    value = math.sqrt(flat_expected_squared_error(num_attributes, epsilon))
    value /= float(num_records)
    if cap is not None:
        value = min(value, cap)
    return value
