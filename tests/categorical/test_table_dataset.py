"""Tables with arities, and categorical datasets.

A categorical table is the shared :class:`MarginalTable` over an
:class:`AttrSet` carrying arities; the table checks run on a binary
and a mixed arity tuple alike.
"""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.marginals import AttrSet, MarginalTable
from repro.marginals.dataset import Dataset
from tests.core.test_consistency import consistency_update

#: one all-binary and one mixed arity tuple, over attributes (0, 1, 2)
ARITY_CASES = [None, (3, 2, 4)]


def _table(attrs, arities, counts) -> MarginalTable:
    return MarginalTable(AttrSet(attrs, arities=arities), counts)


@pytest.fixture
def cat_dataset(rng) -> Dataset:
    return Dataset.random(3000, (3, 4, 2, 5), rng=rng)


class TestTable:
    def test_sorted_attrs_keep_arity_alignment(self):
        table = _table((5, 2), (3, 4), np.zeros(12))
        assert table.attrs == (2, 5)
        assert table.arities == (4, 3)
        assert _table((5, 2), None, np.zeros(4)).arities is None

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            _table((0, 1), (3, 2), np.zeros(5))
        with pytest.raises(DimensionError):
            _table((0, 1), None, np.zeros(5))

    def test_rejects_unary_attribute(self):
        with pytest.raises(DimensionError):
            _table((0,), (1,), np.zeros(1))

    def test_projection_preserves_total(self, rng):
        for arities in ARITY_CASES:
            table = _table((0, 1, 2), arities, rng.random(24 if arities else 8))
            for sub in [(0,), (1, 2), ()]:
                assert table.project(sub).total() == pytest.approx(table.total())

    def test_projection_composes(self, rng):
        for arities in ARITY_CASES:
            table = _table((0, 1, 2), arities, rng.random(24 if arities else 8))
            direct = table.project((2,))
            via = table.project((1, 2)).project((2,))
            assert np.allclose(direct.counts, via.counts)
            assert direct.arities == via.arities

    def test_consistency_update_reaches_target(self, rng):
        table = _table((0, 1), (3, 4), rng.random(12) * 10)
        target = _table((0,), (3,), np.array([5.0, 3.0, 2.0]))
        consistency_update(table, target)
        assert np.allclose(table.project((0,)).counts, target.counts)
        binary = _table((0, 1), None, rng.random(4) * 10)
        consistency_update(binary, _table((0,), None, np.array([4.0, 6.0])))
        assert np.allclose(binary.project((0,)).counts, [4.0, 6.0])

    def test_consistency_update_lemma1(self, rng):
        """Total-preserving update on one attr leaves the other."""
        for arities, perturbation in [
            ((3, 4), np.array([1.0, -0.5, -0.5])),
            (None, np.array([1.0, -1.0])),
        ]:
            size = 12 if arities else 4
            table = _table((0, 1), arities, rng.random(size) * 10)
            current = table.project((0,)).counts
            target = _table(
                (0,), arities and arities[:1], current + perturbation
            )
            before = table.project((1,)).counts.copy()
            consistency_update(table, target)
            assert np.allclose(table.project((1,)).counts, before)

    def test_uniform_and_normalized(self):
        table = MarginalTable.uniform(AttrSet((0, 1), arities=(3, 2)), 60.0)
        assert np.allclose(table.counts, 10.0)
        assert table.normalized().sum() == pytest.approx(1.0)
        binary = MarginalTable.uniform((0, 1), 60.0)
        assert np.allclose(binary.counts, 15.0)


class TestDataset:
    def test_shape(self, cat_dataset):
        assert cat_dataset.num_records == 3000
        assert cat_dataset.num_attributes == 4

    def test_rejects_out_of_range_values(self):
        with pytest.raises(DimensionError):
            Dataset(np.array([[3]]), (3,))

    def test_rejects_mismatched_arities(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((2, 3), dtype=int), (3, 2))

    def test_marginal_total(self, cat_dataset):
        assert cat_dataset.marginal((0, 2)).total() == 3000.0

    def test_marginal_matches_manual(self):
        data = np.array([[0, 1], [2, 0], [2, 1], [2, 1]])
        ds = Dataset(data, (3, 2))
        table = ds.marginal((0, 1))
        # cell = a0 + 3*a1
        assert table.counts[2] == 1  # (2, 0)
        assert table.counts[3] == 1  # (0, 1)
        assert table.counts[5] == 2  # (2, 1)

    def test_marginal_projection_consistency(self, cat_dataset):
        big = cat_dataset.marginal((0, 1, 3))
        small = cat_dataset.marginal((1, 3))
        assert np.allclose(big.project((1, 3)).counts, small.counts)

    def test_data_read_only(self, cat_dataset):
        with pytest.raises(ValueError):
            cat_dataset.data[0, 0] = 1

    def test_negative_attribute_rejected(self, cat_dataset):
        with pytest.raises(DimensionError):
            cat_dataset.marginal((-1, 0))
