"""Binary datasets: the ``D`` of the problem definition.

A :class:`BinaryDataset` wraps an ``(N, d)`` matrix of 0/1 values and
computes exact marginal tables.  Marginal extraction is the only
primitive that touches raw records; every mechanism in this library
goes through it (or through :class:`~repro.marginals.contingency.
FullContingencyTable` for small ``d``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable


class BinaryDataset:
    """An ``N x d`` dataset of binary attributes.

    Parameters
    ----------
    data:
        Array-like of shape ``(N, d)`` with values in ``{0, 1}``.
    name:
        Optional human-readable name used in experiment reports.
    """

    def __init__(self, data, name: str = "dataset"):
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise DimensionError("data must contain only 0/1 values")
        self._data = arr
        self.name = name
        self._packed = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_transactions(
        cls, transactions, num_attributes: int, name: str = "dataset"
    ) -> "BinaryDataset":
        """Build from an iterable of item-id collections.

        Item ids outside ``range(num_attributes)`` are ignored, which is
        how the paper's preprocessing keeps only the top pages /
        categories.
        """
        lengths = []
        flat: list[int] = []
        for txn in transactions:
            items = list(txn)
            lengths.append(len(items))
            flat.extend(items)
        data = np.zeros((len(lengths), num_attributes), dtype=np.int64)
        if flat:
            items_arr = np.asarray(flat, dtype=np.int64)
            rows = np.repeat(np.arange(len(lengths)), lengths)
            keep = (items_arr >= 0) & (items_arr < num_attributes)
            # Scatter-add, then clamp: an item repeated inside one
            # transaction still yields a single 1 in that row.
            np.add.at(data, (rows[keep], items_arr[keep]), 1)
            np.minimum(data, 1, out=data)
        return cls(data.astype(np.uint8), name=name)

    @classmethod
    def random(
        cls,
        num_records: int,
        num_attributes: int,
        density: float = 0.5,
        rng: np.random.Generator | None = None,
        name: str = "random",
    ) -> "BinaryDataset":
        """IID Bernoulli(``density``) dataset, mainly for tests."""
        rng = rng or np.random.default_rng()
        data = (rng.random((num_records, num_attributes)) < density).astype(np.uint8)
        return cls(data, name=name)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying ``(N, d)`` uint8 matrix (read-only view)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    @property
    def num_records(self) -> int:
        """``N``, the number of tuples."""
        return self._data.shape[0]

    @property
    def num_attributes(self) -> int:
        """``d``, the number of binary attributes."""
        return self._data.shape[1]

    def __len__(self) -> int:
        return self.num_records

    def __repr__(self) -> str:
        return (
            f"BinaryDataset(name={self.name!r}, N={self.num_records}, "
            f"d={self.num_attributes})"
        )

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def cell_index(self, attrs) -> np.ndarray:
        """Per-record cell index within the marginal over ``attrs``."""
        attrs = AttrSet(attrs, self.num_attributes)
        weights = (np.int64(1) << np.arange(len(attrs), dtype=np.int64))
        return self._data[:, list(attrs)].astype(np.int64) @ weights

    def marginal(self, attrs) -> MarginalTable:
        """The exact (non-private) marginal table over ``attrs``."""
        attrs = AttrSet(attrs, self.num_attributes)
        idx = self.cell_index(attrs)
        counts = np.bincount(idx, minlength=1 << len(attrs)).astype(np.float64)
        return MarginalTable(attrs, counts)

    def marginals(self, attr_sets) -> list[MarginalTable]:
        """Exact marginals for every attribute set in ``attr_sets``."""
        return [self.marginal(attrs) for attrs in attr_sets]

    def attribute_means(self) -> np.ndarray:
        """Per-attribute fraction of ones; handy for sanity checks."""
        if self.num_records == 0:
            return np.zeros(self.num_attributes)
        return self._data.mean(axis=0)

    # ------------------------------------------------------------------
    # Bit-sliced acceleration
    # ------------------------------------------------------------------
    def packed(self, chunk_words: int | None = None):
        """This dataset as a :class:`repro.kernels.PackedDataset`.

        The packed form is built once and cached (the raw matrix is
        immutable from the outside), so repeated packed fits and
        benchmarks don't re-pack.  Its ``marginal`` is bitwise
        identical to :meth:`marginal`, typically ~10x faster.
        """
        from repro.kernels.packed import PackedDataset

        if self._packed is None:
            self._packed = PackedDataset.from_dataset(self)
        if chunk_words is not None and chunk_words != self._packed.chunk_words:
            self._packed = PackedDataset(
                self._packed.words,
                self.num_records,
                name=self.name,
                chunk_words=chunk_words,
            )
        return self._packed
