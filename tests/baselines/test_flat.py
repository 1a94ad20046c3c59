"""Tests for the Flat method (Section 3.1)."""

import numpy as np
import pytest

from repro.baselines.flat import (
    FlatMethod,
    flat_expected_normalized_l2,
    flat_expected_squared_error,
)
from repro.exceptions import DimensionError
from repro.marginals.dataset import Dataset


class TestFlatMethod:
    def test_noise_free_exact(self, tiny_dataset):
        mech = FlatMethod(float("inf"), seed=0).fit(tiny_dataset)
        for attrs in [(0,), (1, 3), (0, 2, 4)]:
            assert np.allclose(
                mech.marginal(attrs).counts,
                tiny_dataset.marginal(attrs).counts,
            )

    def test_marginals_mutually_consistent(self, tiny_dataset):
        """All answers come from one table, hence are consistent."""
        mech = FlatMethod(1.0, seed=0).fit(tiny_dataset)
        big = mech.marginal((0, 1, 2))
        small = mech.marginal((0, 1))
        assert np.allclose(big.project((0, 1)).counts, small.counts)

    def test_error_grows_with_marginal_size(self, tiny_dataset):
        """ESE is 2**d V_u regardless of k, so the normalized error of
        the k-way table is flat in k; verify the noisy answer differs
        from truth by roughly the analytic prediction."""
        errors = []
        for seed in range(30):
            mech = FlatMethod(1.0, seed=seed).fit(tiny_dataset)
            err = mech.marginal((0, 1)).counts - tiny_dataset.marginal(
                (0, 1)
            ).counts
            errors.append((err**2).sum())
        expected = flat_expected_squared_error(6, 1.0)
        assert np.mean(errors) == pytest.approx(expected, rel=0.5)

    def test_refuses_large_d(self):
        ds = Dataset(np.zeros((3, 30), dtype=np.uint8))
        with pytest.raises(DimensionError):
            FlatMethod(1.0).fit(ds)

    def test_nonnegativity_option(self, tiny_dataset):
        mech = FlatMethod(0.1, nonnegativity="simple", seed=0).fit(tiny_dataset)
        assert mech.marginal((0, 1, 2)).counts.min() >= 0.0


class TestAnalyticFlat:
    def test_equation3(self):
        assert flat_expected_squared_error(10, 1.0) == 2**10 * 2.0

    def test_normalized_cap(self):
        assert flat_expected_normalized_l2(45, 0.1, 647_377) == 1.0

    def test_normalized_uncapped_when_small(self):
        value = flat_expected_normalized_l2(10, 1.0, 1_000_000)
        assert value == pytest.approx(np.sqrt(2**11) / 1e6)

    def test_cap_none(self):
        value = flat_expected_normalized_l2(45, 0.1, 1000, cap=None)
        assert value > 1.0
