"""Cross-cutting property-based tests (hypothesis).

Module-level invariants live next to their modules; this file holds
the *pipeline-level* properties that tie several components together:

* post-processing (consistency, non-negativity) never changes what a
  noise-free pipeline publishes;
* the synopsis answers are self-consistent across arities;
* the privacy mechanism's noise is independent of the data values
  (shift equivariance).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import make_consistent
from repro.core.priview import PriView
from repro.covering.design import CoveringDesign
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable

DESIGN = CoveringDesign(
    6, 3, 1, ((0, 1, 2), (2, 3, 4), (3, 4, 5), (0, 2, 4), (1, 3, 5))
)


def _dataset(seed: int, n: int = 800) -> Dataset:
    rng = np.random.default_rng(seed)
    probs = rng.random(6)
    return Dataset(
        (rng.random((n, 6)) < probs).astype(np.uint8)
    )


class TestNoiseFreeFixpoint:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_pipeline_preserves_exact_views(self, seed):
        """With epsilon=inf the full pipeline is the identity: exact
        views are consistent and non-negative already."""
        dataset = _dataset(seed)
        synopsis = PriView(float("inf"), design=DESIGN, seed=0).fit(dataset)
        for view, block in zip(synopsis.views, DESIGN.blocks):
            assert np.allclose(
                view.counts, dataset.marginal(block).counts, atol=1e-6
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_noise_free_covered_queries_exact(self, seed):
        dataset = _dataset(seed)
        synopsis = PriView(float("inf"), design=DESIGN, seed=0).fit(dataset)
        for block in DESIGN.blocks:
            sub = block[:2]
            assert np.allclose(
                synopsis.marginal(sub).counts,
                dataset.marginal(sub).counts,
                atol=1e-6,
            )


class TestSynopsisSelfConsistency:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_reconstructions_project_consistently(self, seed):
        """T_A reconstructed for A then projected to B subset of A
        matches the direct answer for B when B is covered."""
        dataset = _dataset(seed)
        synopsis = PriView(1.0, design=DESIGN, seed=seed).fit(dataset)
        big = synopsis.marginal((0, 1, 2))  # covered by a view
        small = synopsis.marginal((0, 1))
        assert np.allclose(big.project((0, 1)).counts, small.counts, atol=1e-6)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_all_answers_share_the_total(self, seed):
        dataset = _dataset(seed)
        synopsis = PriView(1.0, design=DESIGN, seed=seed).fit(dataset)
        totals = [
            synopsis.marginal(attrs).total()
            for attrs in [(0, 1), (2, 5), (0, 3, 5)]
        ]
        assert np.allclose(totals, totals[0], rtol=1e-6)


class TestMechanismEquivariance:
    @given(seed=st.integers(0, 10_000), shift=st.integers(1, 50))
    @settings(max_examples=10, deadline=None)
    def test_laplace_noise_is_data_independent(self, seed, shift):
        """Noisy(counts + shift) == Noisy(counts) + shift under the
        same seed: the mechanism adds noise, never inspects values."""
        from repro.mechanisms.laplace import noisy_counts

        counts = np.arange(8, dtype=np.float64)
        a = noisy_counts(counts, 1.0, rng=np.random.default_rng(seed))
        b = noisy_counts(
            counts + shift, 1.0, rng=np.random.default_rng(seed)
        )
        assert np.allclose(b - a, shift)


class TestConsistencyConservation:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_grand_total_is_mean_of_view_totals(self, seed):
        """Overall consistency must not invent or destroy mass: the
        common total equals the average of the inputs' totals."""
        rng = np.random.default_rng(seed)
        views = [
            MarginalTable(attrs, rng.random(8) * 100)
            for attrs in [(0, 1, 2), (2, 3, 4), (1, 3, 5)]
        ]
        mean_total = float(np.mean([v.total() for v in views]))
        make_consistent(views)
        for view in views:
            assert view.total() == pytest.approx(mean_total, rel=1e-9)
