"""Privacy-accounting tests.

Every mechanism in this library is Laplace (or exponential) noise
calibrated to a *claimed* L1 sensitivity.  Differential privacy holds
iff the claimed sensitivity really bounds how much the released
quantities can change when one tuple is added (the paper's
neighbouring relation).  These tests measure that change directly on
random neighbouring datasets and compare it to what each
implementation uses as its noise scale.
"""

import itertools
import math

import numpy as np
import pytest

from repro.baselines.fourier import fourier_coefficient_count
from repro.core.reconstruction.residual import fwht
from repro.covering.repository import best_design
from repro.marginals.contingency import FullContingencyTable
from repro.marginals.dataset import Dataset


def _neighbours(rng, n=200, d=8):
    """A dataset and a neighbour with one extra tuple."""
    base = Dataset.random(n, d, rng=rng)
    extra = (rng.random(d) < 0.5).astype(np.uint8)
    grown = Dataset(np.vstack([base.data, extra]))
    return base, grown


class TestViewReleaseSensitivity:
    """PriView releases w view marginals with noise Lap(w/eps): the
    vector of all view tables must have L1 sensitivity exactly w."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sensitivity_equals_block_count(self, seed):
        rng = np.random.default_rng(seed)
        base, grown = _neighbours(rng)
        design = best_design(8, 4, 2)
        change = sum(
            np.abs(
                grown.marginal(block).counts - base.marginal(block).counts
            ).sum()
            for block in design.blocks
        )
        assert change == pytest.approx(design.num_blocks)


class TestDirectSensitivity:
    """Direct splits eps over all C(d,k) marginals: adding one tuple
    changes exactly one cell of each marginal by one."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_sensitivity_equals_marginal_count(self, k):
        rng = np.random.default_rng(11)
        base, grown = _neighbours(rng, d=6)
        change = sum(
            np.abs(
                grown.marginal(attrs).counts - base.marginal(attrs).counts
            ).sum()
            for attrs in itertools.combinations(range(6), k)
        )
        assert change == pytest.approx(math.comb(6, k))


class TestFourierSensitivity:
    """Each character sum moves by exactly 1 per added tuple, so the
    weight-<=k release has L1 sensitivity m (the coefficient count)."""

    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_sensitivity_equals_coefficient_count(self, k_max):
        rng = np.random.default_rng(7)
        d = 6
        base, grown = _neighbours(rng, d=d)
        theta_base = fwht(
            FullContingencyTable.from_dataset(base).counts
        )
        theta_grown = fwht(
            FullContingencyTable.from_dataset(grown).counts
        )
        weights = np.bitwise_count(np.arange(1 << d, dtype=np.uint64))
        released = weights <= k_max
        change = np.abs(theta_grown[released] - theta_base[released]).sum()
        assert change == pytest.approx(
            fourier_coefficient_count(d, k_max)
        )


class TestFlatSensitivity:
    def test_single_cell_changes(self):
        rng = np.random.default_rng(3)
        base, grown = _neighbours(rng, d=6)
        diff = (
            FullContingencyTable.from_dataset(grown).counts
            - FullContingencyTable.from_dataset(base).counts
        )
        assert np.abs(diff).sum() == pytest.approx(1.0)


class TestMWEMScoreSensitivity:
    """The exponential-mechanism score (L1 error of a marginal) moves
    by at most 1 when a tuple is added — the sensitivity MWEM assumes."""

    def test_score_changes_at_most_one(self):
        rng = np.random.default_rng(5)
        base, grown = _neighbours(rng, d=6)
        synthetic = np.full(1 << 6, base.num_records / (1 << 6))
        table = FullContingencyTable(6, synthetic)
        for attrs in itertools.combinations(range(6), 2):
            score_base = np.abs(
                table.marginal(attrs).counts - base.marginal(attrs).counts
            ).sum()
            score_grown = np.abs(
                table.marginal(attrs).counts - grown.marginal(attrs).counts
            ).sum()
            assert abs(score_grown - score_base) <= 1.0 + 1e-9


class TestPostProcessingFreeness:
    """Consistency / Ripple / reconstruction read only the noisy views,
    never the dataset: re-running them on the same noisy views is
    deterministic (no hidden data access, no hidden randomness)."""

    def test_post_processing_deterministic(self, small_dataset):
        from repro.core.priview import PriView

        design = best_design(10, 4, 2)
        mechanism = PriView(1.0, design=design, seed=9)
        views = mechanism.generate_noisy_views(small_dataset, design)
        first = [v.copy() for v in views]
        second = [v.copy() for v in views]
        PriView(1.0, design=design, seed=1).post_process(first)
        PriView(1.0, design=design, seed=2).post_process(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.counts, b.counts)
