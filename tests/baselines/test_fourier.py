"""Tests for the Fourier method (Section 3.3)."""

import math

import numpy as np
import pytest

from repro.baselines.fourier import (
    FourierLPMethod,
    FourierMethod,
    fourier_coefficient_count,
    fourier_expected_squared_error,
)
from repro.core.reconstruction.residual import fwht
from repro.exceptions import ReconstructionError


class TestWalshHadamard:
    """The shared transform the Fourier and Learning baselines use."""

    def test_involution(self, rng):
        v = rng.random(32)
        assert np.allclose(fwht(fwht(v)) / 32, v)

    def test_coefficient_zero_is_sum(self, rng):
        v = rng.random(16)
        assert fwht(v)[0] == pytest.approx(v.sum())

    def test_known_transform(self):
        assert np.allclose(fwht(np.array([1.0, 0.0])), [1.0, 1.0])
        assert np.allclose(fwht(np.array([0.0, 1.0])), [1.0, -1.0])

    def test_input_not_modified(self):
        v = np.array([1.0, 2.0])
        fwht(v)
        assert np.array_equal(v, [1.0, 2.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ReconstructionError):
            fwht(np.zeros(3))

    def test_parseval(self, rng):
        v = rng.random(64)
        transformed = fwht(v)
        assert (transformed**2).sum() == pytest.approx(64 * (v**2).sum())


class TestCoefficientCount:
    def test_small(self):
        assert fourier_coefficient_count(4, 2) == 1 + 4 + 6

    def test_full_weight(self):
        assert fourier_coefficient_count(5, 5) == 32


class TestFourierMethod:
    def test_noise_free_exact(self, tiny_dataset):
        mech = FourierMethod(
            float("inf"), 3, nonnegativity="none", seed=0
        ).fit(tiny_dataset)
        assert np.allclose(
            mech.marginal((0, 2, 4)).counts,
            tiny_dataset.marginal((0, 2, 4)).counts,
        )

    def test_arity_beyond_kmax_rejected(self, tiny_dataset):
        mech = FourierMethod(1.0, 2, seed=0).fit(tiny_dataset)
        with pytest.raises(ReconstructionError):
            mech.marginal((0, 1, 2))

    def test_lower_arities_answerable(self, tiny_dataset):
        """One release answers every arity <= k_max, unlike Direct."""
        mech = FourierMethod(1.0, 3, seed=0).fit(tiny_dataset)
        for attrs in [(0,), (1, 2), (0, 1, 2)]:
            assert mech.marginal(attrs).arity == len(attrs)

    def test_repeat_query_cached(self, tiny_dataset):
        mech = FourierMethod(1.0, 2, seed=0).fit(tiny_dataset)
        a = mech.marginal((0, 3))
        b = mech.marginal((0, 3))
        assert np.array_equal(a.counts, b.counts)

    def test_ese_factor_2k_below_direct(self, tiny_dataset):
        """Empirically confirm the Section 3.3 claim on same-k release.

        Release only weight<=k coefficients vs Direct's C(d,k) tables:
        Fourier's ESE should be ~2**k times smaller per marginal when
        m ~ C(d,k).  We check the analytic formulas instead of sampling
        (the sampled check lives in the benchmark suite).
        """
        from repro.baselines.direct import direct_expected_squared_error

        d, k = 20, 3
        fourier = fourier_expected_squared_error(d, k, epsilon=1.0)
        direct = direct_expected_squared_error(d, k, 1.0)
        ratio = direct / fourier
        m = fourier_coefficient_count(d, k)
        assert ratio == pytest.approx(
            2**k * math.comb(d, k) ** 2 / m**2, rel=1e-9
        )

    def test_empirical_noise_variance(self, tiny_dataset):
        errors = []
        for seed in range(40):
            mech = FourierMethod(
                1.0, 2, nonnegativity="none", seed=seed
            ).fit(tiny_dataset)
            diff = (
                mech.marginal((0, 1)).counts
                - tiny_dataset.marginal((0, 1)).counts
            )
            errors.append((diff**2).sum())
        expected = fourier_expected_squared_error(6, 2, epsilon=1.0)
        assert np.mean(errors) == pytest.approx(expected, rel=0.5)


class TestFourierLP:
    def test_nonnegative_consistent_table(self, tiny_dataset):
        mech = FourierLPMethod(1.0, 2, seed=0).fit(tiny_dataset)
        table = mech.marginal((0, 1))
        assert table.counts.min() >= -1e-9
        other = mech.marginal((0,))
        assert np.allclose(table.project((0,)).counts, other.counts)

    def test_noise_free_close_to_truth(self, tiny_dataset):
        mech = FourierLPMethod(float("inf"), 2, seed=0).fit(tiny_dataset)
        table = mech.marginal((0, 1))
        truth = tiny_dataset.marginal((0, 1))
        # LP reconstructs a table matching all weight<=2 coefficients;
        # the pairwise marginal is determined by those coefficients.
        assert np.allclose(table.counts, truth.counts, atol=1e-5)

    def test_arity_beyond_kmax_rejected(self, tiny_dataset):
        mech = FourierLPMethod(1.0, 2, seed=0).fit(tiny_dataset)
        with pytest.raises(ReconstructionError):
            mech.marginal((0, 1, 2))
