"""Tests for Dataset."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.marginals.dataset import Dataset


class TestConstruction:
    def test_basic_shape(self, tiny_dataset):
        assert tiny_dataset.num_records == 500
        assert tiny_dataset.num_attributes == 6
        assert len(tiny_dataset) == 500

    def test_rejects_non_binary(self):
        with pytest.raises(DimensionError):
            Dataset(np.array([[0, 2]]))

    def test_rejects_one_dimensional(self):
        with pytest.raises(DimensionError):
            Dataset(np.array([0, 1, 0]))

    def test_data_is_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.data[0, 0] = 1

    def test_from_transactions(self):
        ds = Dataset.from_transactions(
            [[0, 2], [1], [0, 1, 2], []], num_attributes=3
        )
        assert ds.num_records == 4
        assert np.array_equal(
            ds.data, [[1, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 0]]
        )

    def test_from_transactions_ignores_out_of_range(self):
        ds = Dataset.from_transactions([[0, 7, -2]], num_attributes=3)
        assert np.array_equal(ds.data, [[1, 0, 0]])

    def test_from_transactions_duplicate_items_stay_binary(self):
        # Regression: an item repeated inside one transaction must
        # contribute a single 1, not a scatter-added count.
        ds = Dataset.from_transactions(
            [[2, 2, 2], [0, 1, 0], []], num_attributes=3
        )
        assert np.array_equal(ds.data, [[0, 0, 1], [1, 1, 0], [0, 0, 0]])

    def test_from_transactions_empty_iterable(self):
        ds = Dataset.from_transactions([], num_attributes=4)
        assert ds.num_records == 0 and ds.num_attributes == 4

    def test_from_transactions_matches_python_loop(self):
        rng = np.random.default_rng(0)
        txns = [
            list(rng.integers(-2, 8, rng.integers(0, 10))) for _ in range(200)
        ]
        expected = np.zeros((len(txns), 6), dtype=np.uint8)
        for row, txn in enumerate(txns):
            for item in txn:
                if 0 <= item < 6:
                    expected[row, item] = 1
        ds = Dataset.from_transactions(txns, num_attributes=6)
        assert np.array_equal(ds.data, expected)

    def test_random_density(self, rng):
        ds = Dataset.random(20_000, 4, density=0.25, rng=rng)
        assert abs(ds.data.mean() - 0.25) < 0.02

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 5), dtype=np.uint8))
        assert ds.num_records == 0
        assert ds.marginal((0, 1)).total() == 0.0

    def test_repr_contains_shape(self, tiny_dataset):
        assert "N=500" in repr(tiny_dataset)
        assert "d=6" in repr(tiny_dataset)


class TestMarginals:
    def test_marginal_total_is_n(self, tiny_dataset):
        assert tiny_dataset.marginal((0, 3)).total() == 500.0

    def test_marginal_matches_manual_count(self):
        data = np.array([[1, 0, 1], [1, 1, 1], [0, 0, 0], [1, 0, 1]], np.uint8)
        ds = Dataset(data)
        table = ds.marginal((0, 2))
        # cells indexed: bit0 = attr0, bit1 = attr2
        assert table.counts[0] == 1  # (0,0): row 2
        assert table.counts[1] == 0  # (1,0)
        assert table.counts[2] == 0  # (0,1)
        assert table.counts[3] == 3  # (1,1): rows 0,1,3

    def test_single_attribute_marginal(self):
        data = np.array([[1], [0], [1]], np.uint8)
        table = Dataset(data).marginal((0,))
        assert np.allclose(table.counts, [1.0, 2.0])

    def test_marginal_projection_consistency(self, small_dataset):
        """Computing the marginal of a subset two ways agrees."""
        big = small_dataset.marginal((1, 4, 6, 8))
        direct = small_dataset.marginal((4, 8))
        assert np.allclose(big.project((4, 8)).counts, direct.counts)

    def test_out_of_range_attribute(self, tiny_dataset):
        with pytest.raises(DimensionError):
            tiny_dataset.marginal((0, 6))

    def test_marginals_plural(self, tiny_dataset):
        tables = tiny_dataset.marginals([(0,), (1, 2)])
        assert [t.attrs for t in tables] == [(0,), (1, 2)]

    def test_attribute_means(self):
        data = np.array([[1, 0], [1, 1]], np.uint8)
        means = Dataset(data).attribute_means()
        assert np.allclose(means, [1.0, 0.5])

    def test_attribute_means_empty(self):
        ds = Dataset(np.zeros((0, 3), dtype=np.uint8))
        assert np.allclose(ds.attribute_means(), 0.0)

    def test_negative_attribute_rejected(self, small_dataset):
        with pytest.raises(DimensionError):
            small_dataset.marginal((-1, 0))
        with pytest.raises(DimensionError):
            small_dataset.cell_index((-1,))
