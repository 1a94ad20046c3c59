"""Tests for the mechanism protocol and the Uniform baseline."""

import numpy as np
import pytest

from repro.baselines.uniform import UniformMethod
from repro.exceptions import PrivacyBudgetError, ReconstructionError
from repro.marginals.dataset import Dataset


class TestProtocol:
    def test_marginal_before_fit_rejected(self):
        with pytest.raises(ReconstructionError):
            UniformMethod(1.0).marginal((0,))

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyBudgetError):
            UniformMethod(-1.0)

    def test_fit_returns_self(self, tiny_dataset):
        mech = UniformMethod(1.0, seed=0)
        assert mech.fit(tiny_dataset) is mech


class TestUniform:
    def test_uniform_cells(self, tiny_dataset):
        mech = UniformMethod(1.0, seed=0).fit(tiny_dataset)
        table = mech.marginal((0, 1, 2))
        assert np.allclose(table.counts, table.counts[0])

    def test_total_close_to_n(self, tiny_dataset):
        mech = UniformMethod(1.0, seed=0).fit(tiny_dataset)
        assert mech.marginal((0,)).total() == pytest.approx(500, abs=50)

    def test_attrs_sorted(self, tiny_dataset):
        mech = UniformMethod(1.0, seed=0).fit(tiny_dataset)
        assert mech.marginal((3, 1)).attrs == (1, 3)

    def test_noise_free(self, tiny_dataset):
        mech = UniformMethod(float("inf"), seed=0).fit(tiny_dataset)
        assert mech.marginal((0,)).total() == pytest.approx(500.0)

    def test_categorical_cells_follow_arities(self):
        """A categorical fit answers over the dataset's domain: the
        (0, 2) marginal of arities (3, 2, 4, 2) has 3 * 4 cells."""
        dataset = Dataset.random(
            1000, (3, 2, 4, 2), rng=np.random.default_rng(0)
        )
        table = UniformMethod(1.0, seed=0).fit(dataset).marginal((2, 0))
        assert table.attrs.arities == (3, 4)
        assert table.counts.shape == (12,)
        assert np.allclose(table.counts, table.total() / 12)
