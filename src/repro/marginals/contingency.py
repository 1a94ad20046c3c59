"""The full contingency table — feasible only for small ``d``.

Several baselines (Flat, MWEM, FourierLP, DataCube, the matrix
mechanism) operate on the full ``2**d`` table.  This module provides it
with the same cell-index convention as :class:`MarginalTable`, plus the
marginal-extraction primitive those methods rely on.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.marginals.dataset import Dataset
from repro.marginals.projection import projection_map
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable

#: Refuse to materialise tables beyond this many dimensions.  2**24
#: doubles is 128 MiB; anything larger defeats the point of PriView.
MAX_FULL_DIMENSIONS = 24


class FullContingencyTable:
    """A dense table with one cell per point of ``{0,1}**d``."""

    def __init__(self, num_attributes: int, counts):
        if num_attributes > MAX_FULL_DIMENSIONS:
            raise DimensionError(
                f"refusing a full contingency table for d={num_attributes} "
                f"(limit {MAX_FULL_DIMENSIONS}); use PriView instead"
            )
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (1 << num_attributes,):
            raise DimensionError(
                f"counts has shape {counts.shape}, expected "
                f"({1 << num_attributes},)"
            )
        self.num_attributes = num_attributes
        self.counts = counts

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "FullContingencyTable":
        """Count every record of ``dataset`` into its cell."""
        d = dataset.num_attributes
        if d > MAX_FULL_DIMENSIONS:
            raise DimensionError(
                f"refusing a full contingency table for d={d} "
                f"(limit {MAX_FULL_DIMENSIONS}); use PriView instead"
            )
        idx = dataset.cell_index(range(d))
        counts = np.bincount(idx, minlength=1 << d).astype(np.float64)
        return cls(d, counts)

    @property
    def size(self) -> int:
        """Number of cells, ``2**d``."""
        return self.counts.size

    def total(self) -> float:
        """Sum of all cells (``N`` for an exact table)."""
        return float(self.counts.sum())

    def marginal(self, attrs) -> MarginalTable:
        """The marginal over ``attrs`` obtained by summing cells."""
        attrs = AttrSet(attrs, self.num_attributes)
        pmap = projection_map((2,) * self.num_attributes, attrs)
        counts = np.bincount(pmap, weights=self.counts, minlength=1 << len(attrs))
        return MarginalTable(attrs, counts)

    def copy(self) -> "FullContingencyTable":
        """A deep copy."""
        return FullContingencyTable(self.num_attributes, self.counts.copy())
