"""Tests for KL and Jensen-Shannon divergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.marginals.table import MarginalTable
from repro.metrics.divergence import jensen_shannon, kl_divergence


class TestKL:
    def test_identical_zero(self):
        p = np.array([0.25, 0.75])
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_known_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * np.log(2) + 0.5 * np.log(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expected)

    def test_infinite_on_missing_support(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert kl_divergence(p, q) == float("inf")

    def test_accepts_marginal_tables(self):
        p = MarginalTable((0,), np.array([1.0, 1.0]))
        q = MarginalTable((0,), np.array([1.0, 3.0]))
        assert kl_divergence(p, q) > 0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence(np.ones(2), np.ones(4))


class TestJensenShannon:
    def test_identical_zero(self):
        p = np.array([0.3, 0.7])
        assert jensen_shannon(p, p) == pytest.approx(0.0)

    def test_finite_on_disjoint_support(self):
        """The property KL lacks — the reason the paper uses JS."""
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert jensen_shannon(p, q) == pytest.approx(np.log(2))

    def test_finite_when_mean_underflows(self):
        """Halving the subnormal p + q = 5e-324 rounds to 0; the terms
        must not divide by it."""
        p = np.array([0.5, 0.5, 5e-324])
        q = np.array([0.5, 0.5, 0.0])
        value = jensen_shannon(p, q)
        assert np.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-300)
        assert jensen_shannon(q, p) == value

    def test_symmetric(self, rng):
        p, q = rng.random(8), rng.random(8)
        assert jensen_shannon(p, q) == pytest.approx(jensen_shannon(q, p))

    def test_unnormalised_inputs_normalised(self):
        assert jensen_shannon(
            np.array([2.0, 2.0]), np.array([50.0, 50.0])
        ) == pytest.approx(0.0)

    def test_degenerate_input_treated_uniform(self):
        assert jensen_shannon(
            np.array([0.0, 0.0]), np.array([1.0, 1.0])
        ) == pytest.approx(0.0)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        p, q = rng.random(16), rng.random(16)
        value = jensen_shannon(p, q)
        assert 0.0 <= value <= np.log(2) + 1e-12
