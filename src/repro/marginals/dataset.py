"""Datasets: the ``D`` of the problem definition.

A :class:`Dataset` wraps an ``(N, d)`` matrix of attribute codes and
computes exact marginal tables.  Without ``arities`` every attribute
is binary — the paper's main setting, stored as a uint8 0/1 matrix —
following the convention :class:`~repro.marginals.attrs.AttrSet`
uses; with ``arities`` attribute ``j`` takes values in
``range(arities[j])`` (the Section 4.7 extension, stored as int64
codes).  Marginal extraction is the only primitive that touches raw
records; every mechanism in this library goes through it (or through
:class:`~repro.marginals.contingency.FullContingencyTable` for small
``d``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.projection import strides
from repro.marginals.table import MarginalTable


class Dataset:
    """An ``N x d`` dataset; attribute ``j`` takes values in
    ``range(arities[j])``.

    Parameters
    ----------
    data:
        Array-like of shape ``(N, d)``: 0/1 values, or codes under
        ``arities``.
    arities:
        Per-attribute value counts; ``None`` (the default) means every
        attribute is binary.
    name:
        Optional human-readable name used in experiment reports.
    domain:
        Optional :class:`~repro.marginals.domain.Domain` schema (names,
        kinds, bin edges) for the same attributes; its arities must
        match.  Fitted synopses and record-level synthesis carry it
        forward.
    """

    def __init__(self, data, arities=None, name: str = "dataset", domain=None):
        arr = np.asarray(data, dtype=np.uint8 if arities is None else np.int64)
        if arr.ndim != 2:
            raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
        if arities is None:
            if arr.size and arr.max() > 1:
                raise DimensionError("data must contain only 0/1 values")
        else:
            arities = tuple(int(b) for b in arities)
            if arr.shape[1] != len(arities):
                raise DimensionError(
                    f"data has {arr.shape[1]} columns but {len(arities)} "
                    "arities were given"
                )
            if any(b < 2 for b in arities):
                raise DimensionError(f"arities must be >= 2, got {arities}")
            for j, b in enumerate(arities):
                column = arr[:, j]
                if column.size and (column.min() < 0 or column.max() >= b):
                    raise DimensionError(
                        f"column {j} has values outside range({b})"
                    )
        radix = arities or (2,) * arr.shape[1]
        if domain is not None and tuple(domain.arities) != radix:
            raise DimensionError(
                f"domain arities {tuple(domain.arities)} do not match "
                f"dataset arities {radix}"
            )
        self._data = arr
        self.arities = arities
        self.name = name
        self.domain = domain
        self._packed = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_transactions(
        cls, transactions, num_attributes: int, name: str = "dataset"
    ) -> "Dataset":
        """Build a binary dataset from an iterable of item-id collections.

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
    def from_columns(cls, columns, domain, name: str = "dataset") -> "Dataset":
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
        density: float = 0.5,
        rng: np.random.Generator | None = None,
        name: str = "random",
    ) -> "Dataset":
        """IID random data, mainly for tests.

        An integer ``arities`` gives that many Bernoulli(``density``)
        binary attributes.  A tuple of arities gives uniform codes per
        attribute; a :class:`~repro.marginals.domain.Domain` does too,
        and is then attached to the dataset.
        """
        rng = rng or np.random.default_rng()
        if isinstance(arities, (int, np.integer)):
            data = rng.random((num_records, int(arities))) < density
            return cls(data.astype(np.uint8), name=name)
        domain = arities if hasattr(arities, "attr_set") else None
        arities = tuple(int(b) for b in (domain.arities if domain else arities))
        columns = [rng.integers(0, b, size=num_records) for b in arities]
        return cls(np.stack(columns, axis=1), arities, name=name, domain=domain)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying ``(N, d)`` matrix (read-only view)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    @property
    def num_records(self) -> int:
        """``N``, the number of tuples."""
        return self._data.shape[0]

    @property
    def num_attributes(self) -> int:
        """``d``, the number of attributes."""
        return self._data.shape[1]

    def __len__(self) -> int:
        return self.num_records

    def __repr__(self) -> str:
        kind = "" if self.arities is None else f", arities={self.arities}"
        return (
            f"Dataset(name={self.name!r}, N={self.num_records}, "
            f"d={self.num_attributes}{kind})"
        )

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def _attrs(self, attrs) -> AttrSet:
        """``attrs`` validated, with the dataset's arities attached."""
        attrs = AttrSet(attrs, self.num_attributes)
        if self.arities is None:
            return attrs
        return attrs.with_arities(self.arities[a] for a in attrs)

    def cell_index(self, attrs) -> np.ndarray:
        """Per-record cell index within the marginal over ``attrs``."""
        attrs = self._attrs(attrs)
        place = np.array(strides(attrs.radix), dtype=np.int64)
        return self._data[:, list(attrs)].astype(np.int64, copy=False) @ place

    def marginal(self, attrs) -> MarginalTable:
        """The exact (non-private) marginal table over ``attrs``."""
        attrs = self._attrs(attrs)
        counts = np.bincount(self.cell_index(attrs), minlength=attrs.size)
        return MarginalTable(attrs, counts.astype(np.float64))

    def marginals(self, attr_sets) -> list[MarginalTable]:
        """Exact marginals for every attribute set in ``attr_sets``."""
        return [self.marginal(attrs) for attrs in attr_sets]

    def attribute_means(self) -> np.ndarray:
        """Per-attribute mean code (the fraction of ones when binary)."""
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
                arities=self.arities,
                domain=self.domain,
            )
        return self._packed


#: The names the benchmark harness imports; the same class.
BinaryDataset = Dataset
