"""Tests for projection-map index arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.marginals import AttrSet, MarginalTable
from repro.marginals.projection import (
    cell_neighbours,
    constraint_matrix,
    projection_map,
    strides,
    subset_positions,
)
from tests.core.test_consistency import consistency_update


class TestProjectionMap:
    def test_identity_positions(self):
        pmap = projection_map((2,) * 3, (0, 1, 2))
        assert np.array_equal(pmap, np.arange(8))

    def test_single_position(self):
        pmap = projection_map((2,) * 2, (1,))
        # parent cells 0..3; bit 1 selects
        assert np.array_equal(pmap, [0, 0, 1, 1])

    def test_empty_positions(self):
        pmap = projection_map((2,) * 2, ())
        assert np.array_equal(pmap, [0, 0, 0, 0])

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            projection_map((2,) * 2, (2,))

    def test_duplicates_rejected(self):
        with pytest.raises(DimensionError):
            projection_map((2,) * 3, (1, 1))

    def test_result_read_only(self):
        pmap = projection_map((2,) * 3, (0,))
        with pytest.raises(ValueError):
            pmap[0] = 5

    @given(
        m=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_target_cell_hit_equally(self, m, data):
        """Projection is a balanced partition of parent cells."""
        k = data.draw(st.integers(0, m))
        positions = tuple(
            sorted(
                data.draw(
                    st.sets(st.integers(0, m - 1), min_size=k, max_size=k)
                )
            )
        )
        pmap = projection_map((2,) * m, positions)
        counts = np.bincount(pmap, minlength=1 << len(positions))
        assert np.all(counts == 1 << (m - len(positions)))


class TestSubsetPositions:
    def test_basic(self):
        assert subset_positions((2, 5, 9), (5, 9)) == (1, 2)

    def test_not_subset(self):
        with pytest.raises(DimensionError):
            subset_positions((2, 5), (3,))

    def test_empty(self):
        assert subset_positions((2, 5), ()) == ()


class TestConstraintMatrix:
    def test_rows_sum_cells(self, rng):
        cells = rng.random(16)
        mat = constraint_matrix((2,) * 4, (1, 3))
        pmap = projection_map((2,) * 4, (1, 3))
        expected = np.bincount(pmap, weights=cells, minlength=4)
        assert np.allclose(mat @ cells, expected)

    def test_each_column_in_one_row(self):
        mat = constraint_matrix((2,) * 3, (0, 2))
        assert np.allclose(mat.sum(axis=0), 1.0)

    def test_empty_projection_is_total(self, rng):
        cells = rng.random(8)
        mat = constraint_matrix((2,) * 3, ())
        assert mat.shape == (1, 8)
        assert mat @ cells == pytest.approx(cells.sum())


class TestCellNeighbours:
    def test_shape(self):
        nb = cell_neighbours((2,) * 3)
        assert nb.shape == (8, 3)

    def test_neighbours_differ_in_one_bit(self):
        nb = cell_neighbours((2,) * 4)
        for cell in range(16):
            for j in range(4):
                assert nb[cell, j] == cell ^ (1 << j)

    def test_symmetry(self):
        nb = cell_neighbours((2,) * 3)
        for cell in range(8):
            for other in nb[cell]:
                assert cell in nb[other]


class TestArityCacheKey:
    """``AttrSet`` equality ignores arities, so the memoised index
    lookups must key on them: tables over the same attribute tuple but
    different arities each need their own projection map."""

    def test_same_attrs_different_arities_project_correctly(self):
        counts = np.arange(6, dtype=np.float64)
        three_two = MarginalTable(AttrSet((0, 1), arities=(3, 2)), counts)
        two_three = MarginalTable(AttrSet((0, 1), arities=(2, 3)), counts)
        binary = MarginalTable((0, 1), counts[:4])
        assert np.array_equal(three_two.project((0,)).counts, [3.0, 5.0, 7.0])
        assert np.array_equal(two_three.project((0,)).counts, [6.0, 9.0])
        assert np.array_equal(binary.project((0,)).counts, [2.0, 4.0])
        # and again in the other order, now that every map is cached
        assert np.array_equal(binary.project((1,)).counts, [1.0, 5.0])
        assert np.array_equal(two_three.project((1,)).counts, [1.0, 5.0, 9.0])
        assert np.array_equal(three_two.project((1,)).counts, [3.0, 12.0])

    def test_consistency_update_uses_its_own_map(self):
        three = MarginalTable(AttrSet((0, 1), arities=(3, 2)), np.zeros(6))
        two = MarginalTable(AttrSet((0, 1), arities=(2, 2)), np.zeros(4))
        consistency_update(
            three,
            MarginalTable(AttrSet((0,), arities=(3,)), np.array([2.0, 4.0, 6.0])),
        )
        consistency_update(
            two, MarginalTable(AttrSet((0,), arities=(2,)), np.array([2.0, 4.0]))
        )
        assert np.allclose(three.counts, [1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        assert np.allclose(two.counts, [1.0, 2.0, 1.0, 2.0])


class TestMixedRadixHelpers:
    def test_constraint_matrix_rows_sum_cells(self):
        mat = constraint_matrix((3, 2, 2), (0, 2))
        pmap = projection_map((3, 2, 2), (0, 2))
        assert mat.shape == (6, 12)
        cells = np.arange(12.0)
        assert np.allclose(mat @ cells, np.bincount(pmap, weights=cells))

    def test_strides(self):
        assert strides(()) == ()
        assert strides((3, 4, 2)) == (1, 3, 12)
