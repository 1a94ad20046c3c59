"""Tests for the DataCube baseline (Section 3.4)."""

import numpy as np
import pytest

from repro.baselines.datacube import (
    DataCubeMethod,
    MAX_LATTICE_DIMENSIONS,
    select_cuboids,
)
from repro.exceptions import DimensionError
from repro.marginals.dataset import Dataset


class TestSelection:
    def test_low_dimensional_binary_chooses_flat(self):
        """The paper's Section 3.4 observation: at d=9 the lattice
        greedy publishes the full contingency table."""
        selection = select_cuboids(9, 2)
        assert selection == [tuple(range(9))]

    def test_selection_covers_all_queries(self):
        for d, k in [(6, 2), (8, 3)]:
            selection = select_cuboids(d, k)
            import itertools

            for q in itertools.combinations(range(d), k):
                assert any(set(q) <= set(v) for v in selection)

    def test_refuses_large_d(self):
        with pytest.raises(DimensionError):
            select_cuboids(MAX_LATTICE_DIMENSIONS + 1, 2)


class TestDataCubeMethod:
    def test_matches_flat_accuracy_class(self, tiny_dataset):
        """At small d the published cuboid is the full table."""
        mech = DataCubeMethod(float("inf"), 2, seed=0).fit(tiny_dataset)
        assert np.allclose(
            mech.marginal((0, 1)).counts, tiny_dataset.marginal((0, 1)).counts
        )

    def test_noisy_runs(self, tiny_dataset):
        mech = DataCubeMethod(1.0, 2, seed=0).fit(tiny_dataset)
        table = mech.marginal((2, 3))
        assert np.all(np.isfinite(table.counts))

    def test_uncoverable_query_rejected(self, tiny_dataset):
        mech = DataCubeMethod(1.0, 2, seed=0).fit(tiny_dataset)
        with pytest.raises(DimensionError):
            mech.marginal((0, 1, 2, 3, 4, 5, 6))
