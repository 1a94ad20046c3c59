"""Tests for the full contingency table."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.marginals.contingency import FullContingencyTable
from repro.marginals.dataset import Dataset


class TestFullContingencyTable:
    def test_from_dataset_total(self, tiny_dataset):
        table = FullContingencyTable.from_dataset(tiny_dataset)
        assert table.total() == tiny_dataset.num_records
        assert table.size == 64

    def test_marginals_agree_with_dataset(self, tiny_dataset):
        table = FullContingencyTable.from_dataset(tiny_dataset)
        for attrs in [(0,), (1, 4), (0, 2, 5), tuple(range(6))]:
            assert np.allclose(
                table.marginal(attrs).counts,
                tiny_dataset.marginal(attrs).counts,
            )

    def test_empty_attrs_marginal(self, tiny_dataset):
        table = FullContingencyTable.from_dataset(tiny_dataset)
        assert table.marginal(()).counts[0] == 500.0

    def test_rejects_large_d(self):
        with pytest.raises(DimensionError):
            FullContingencyTable(30, np.zeros(8))

    def test_rejects_large_d_from_dataset(self):
        ds = Dataset(np.zeros((2, 30), dtype=np.uint8))
        with pytest.raises(DimensionError):
            FullContingencyTable.from_dataset(ds)

    def test_rejects_wrong_counts_size(self):
        with pytest.raises(DimensionError):
            FullContingencyTable(3, np.zeros(7))

    def test_out_of_range_attribute(self, tiny_dataset):
        table = FullContingencyTable.from_dataset(tiny_dataset)
        with pytest.raises(DimensionError):
            table.marginal((7,))

    def test_copy_is_deep(self, tiny_dataset):
        table = FullContingencyTable.from_dataset(tiny_dataset)
        other = table.copy()
        other.counts[0] += 5
        assert table.counts[0] == other.counts[0] - 5

    def test_cell_indexing_convention(self):
        # one record: attrs (1,0,1) -> index 1 + 4 = 5
        ds = Dataset(np.array([[1, 0, 1]], np.uint8))
        table = FullContingencyTable.from_dataset(ds)
        assert table.counts[5] == 1.0
        assert table.counts.sum() == 1.0
