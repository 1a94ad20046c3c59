"""Datasets with categorical (multi-valued) attributes."""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.projection import strides
from repro.marginals.table import MarginalTable


class CategoricalDataset:
    """An ``N x d`` dataset; attribute ``j`` takes values in
    ``range(arities[j])``.

    ``domain`` optionally attaches the richer
    :class:`~repro.marginals.domain.Domain` schema (names, kinds, bin
    edges) for the same attributes; its arities must match.  Fitted
    synopses and record-level synthesis carry it forward.
    """

    def __init__(self, data, arities, name: str = "categorical", domain=None):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
        self.arities = tuple(int(b) for b in arities)
        if arr.shape[1] != len(self.arities):
            raise DimensionError(
                f"data has {arr.shape[1]} columns but {len(self.arities)} "
                "arities were given"
            )
        if any(b < 2 for b in self.arities):
            raise DimensionError(f"arities must be >= 2, got {self.arities}")
        for j, b in enumerate(self.arities):
            column = arr[:, j]
            if column.size and (column.min() < 0 or column.max() >= b):
                raise DimensionError(
                    f"column {j} has values outside range({b})"
                )
        if domain is not None and tuple(domain.arities) != self.arities:
            raise DimensionError(
                f"domain arities {tuple(domain.arities)} do not match "
                f"dataset arities {self.arities}"
            )
        self._data = arr
        self.name = name
        self.domain = domain

    @classmethod
    def from_columns(
        cls, columns, domain, name: str = "categorical"
    ) -> "CategoricalDataset":
        """Encode raw attribute values through a Domain's binning.

        ``columns`` is a name-keyed mapping or a positional sequence of
        per-attribute value arrays; each is encoded into codes with
        :meth:`repro.marginals.domain.Attribute.encode` (numeric
        attributes are binned, labelled attributes looked up).
        """
        return cls(
            domain.encode_records(columns), domain.arities, name=name,
            domain=domain,
        )

    @classmethod
    def random(
        cls,
        num_records: int,
        arities,
        rng: np.random.Generator | None = None,
        name: str = "random",
    ) -> "CategoricalDataset":
        """IID uniform categorical data, mainly for tests.

        ``arities`` may be a :class:`~repro.marginals.domain.Domain`,
        which is then attached to the dataset.
        """
        rng = rng or np.random.default_rng()
        domain = arities if hasattr(arities, "attr_set") else None
        arities = tuple(int(b) for b in (domain.arities if domain else arities))
        columns = [
            rng.integers(0, b, size=num_records) for b in arities
        ]
        return cls(np.stack(columns, axis=1), arities, name=name, domain=domain)

    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        view = self._data.view()
        view.setflags(write=False)
        return view

    @property
    def num_records(self) -> int:
        return self._data.shape[0]

    @property
    def num_attributes(self) -> int:
        return self._data.shape[1]

    def __repr__(self) -> str:
        return (
            f"CategoricalDataset(name={self.name!r}, N={self.num_records}, "
            f"arities={self.arities})"
        )

    # ------------------------------------------------------------------
    def marginal(self, attrs) -> MarginalTable:
        """Exact (non-private) marginal over ``attrs``."""
        attrs = AttrSet(attrs, self.num_attributes)
        attrs = attrs.with_arities(self.arities[a] for a in attrs)
        idx = self._data[:, list(attrs)] @ np.array(
            strides(attrs.radix), dtype=np.int64
        )
        counts = np.bincount(idx, minlength=attrs.size)
        return MarginalTable(attrs, counts.astype(np.float64))
