"""Tests for the Direct method (Section 3.2)."""

import numpy as np
import pytest

from repro.baselines.direct import DirectMethod, direct_expected_squared_error
from repro.marginals.dataset import Dataset


class TestDirectMethod:
    def test_noise_free_exact(self, tiny_dataset):
        mech = DirectMethod(float("inf"), 2, nonnegativity="none", seed=0).fit(
            tiny_dataset
        )
        assert np.allclose(
            mech.marginal((1, 4)).counts, tiny_dataset.marginal((1, 4)).counts
        )

    def test_wrong_arity_rejected(self, tiny_dataset):
        mech = DirectMethod(1.0, 3, seed=0).fit(tiny_dataset)
        with pytest.raises(ValueError):
            mech.marginal((0, 1))

    def test_answers_cached_per_marginal(self, tiny_dataset):
        """Re-asking returns the same published table, fresh noise is
        not drawn (the release is one-shot)."""
        mech = DirectMethod(1.0, 2, seed=0).fit(tiny_dataset)
        first = mech.marginal((0, 1))
        second = mech.marginal((0, 1))
        assert np.array_equal(first.counts, second.counts)

    def test_categorical_answers_cached_per_marginal(self):
        """A categorical release is one-shot too: repeated queries for
        one marginal return the same noisy table, so averaging them
        cannot wash the noise out."""
        dataset = Dataset.random(
            1000, (3, 2, 4, 2), rng=np.random.default_rng(0)
        )
        mech = DirectMethod(1.0, 2, nonnegativity="simple", seed=1).fit(
            dataset
        )
        first = mech.marginal((0, 2))
        assert first.attrs.arities == (3, 4)
        # the first draw: Lap(C(4, 2) / epsilon) per cell, clamped at 0
        noise = np.random.default_rng(1).laplace(0.0, 6.0, 12)
        expected = np.maximum(dataset.marginal((0, 2)).counts + noise, 0.0)
        assert np.array_equal(first.counts, expected)
        for _ in range(3):
            assert np.array_equal(mech.marginal((0, 2)).counts, first.counts)
        assert (first.counts >= 0).all()

    def test_returned_copy_isolated(self, tiny_dataset):
        mech = DirectMethod(1.0, 2, seed=0).fit(tiny_dataset)
        table = mech.marginal((0, 1))
        table.counts[0] += 100
        assert mech.marginal((0, 1)).counts[0] != table.counts[0]

    def test_noise_scale_matches_equation4(self, tiny_dataset):
        errors = []
        for seed in range(40):
            mech = DirectMethod(
                1.0, 2, nonnegativity="none", seed=seed
            ).fit(tiny_dataset)
            diff = (
                mech.marginal((0, 1)).counts
                - tiny_dataset.marginal((0, 1)).counts
            )
            errors.append((diff**2).sum())
        expected = direct_expected_squared_error(6, 2, 1.0)
        assert np.mean(errors) == pytest.approx(expected, rel=0.5)


class TestAnalyticDirect:
    def test_equation4(self):
        # 2**k * C(d,k)**2 * V_u
        assert direct_expected_squared_error(6, 2, 1.0) == 4 * 15**2 * 2.0

    def test_crossover_with_flat(self):
        from repro.baselines.flat import flat_expected_squared_error

        # paper: Direct beats Flat for k=2 from d=16 on
        assert direct_expected_squared_error(
            16, 2, 1.0
        ) < flat_expected_squared_error(16, 1.0)
        assert direct_expected_squared_error(
            15, 2, 1.0
        ) > flat_expected_squared_error(15, 1.0)
