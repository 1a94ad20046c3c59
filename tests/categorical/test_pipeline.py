"""Tests for categorical views, Ripple, reconstruction and pipeline."""

import itertools

import numpy as np
import pytest

from repro.categorical.views import select_categorical_views
from repro.core.nonnegativity import ripple
from repro.core.priview import PriView
from repro.exceptions import DesignError, PrivacyBudgetError
from repro.marginals import AttrSet, MarginalTable
from repro.marginals.dataset import Dataset


@pytest.fixture
def mixed_dataset(rng) -> Dataset:
    """Correlated mixed-arity data via a latent class."""
    arities = (3, 4, 2, 5, 3, 2)
    n = 20_000
    latent = rng.integers(0, 3, n)
    columns = []
    for b in arities:
        prefs = rng.dirichlet(np.ones(b), size=3)
        cdf = prefs[latent].cumsum(axis=1)
        columns.append((rng.random((n, 1)) > cdf[:, :-1]).sum(axis=1))
    return Dataset(np.stack(columns, axis=1), arities)


class TestViewSelection:
    def test_covers_all_pairs(self, rng):
        arities = (3, 4, 2, 5, 3, 2, 4)
        views = select_categorical_views(arities, max_cells=200, rng=rng)
        covered = set()
        for view in views:
            covered.update(itertools.combinations(view, 2))
        assert covered == set(itertools.combinations(range(7), 2))

    def test_respects_cell_budget(self, rng):
        import math

        arities = (5, 5, 4, 4, 3, 3)
        budget = 100
        views = select_categorical_views(arities, max_cells=budget, rng=rng)
        for view in views:
            assert math.prod(arities[a] for a in view) <= budget

    def test_budget_too_small_rejected(self, rng):
        with pytest.raises(DesignError):
            select_categorical_views((5, 5), max_cells=20, rng=rng)

    def test_default_budget_from_guideline(self, rng):
        views = select_categorical_views((3, 3, 3, 3, 3), rng=rng)
        assert views  # guideline produced a feasible budget

    def test_invalid_arities(self, rng):
        with pytest.raises(DesignError):
            select_categorical_views((1, 3), rng=rng)


class TestCategoricalRipple:
    def test_preserves_total_and_bound(self, rng):
        counts = rng.laplace(scale=10, size=24) + 8
        table = MarginalTable(AttrSet((0, 1, 2), arities=(3, 2, 4)), counts.copy())
        ripple(table, theta=0.5)
        assert table.total() == pytest.approx(counts.sum(), abs=1e-8)
        assert table.counts.min() >= -0.5 - 1e-9

    def test_spread_to_value_neighbours(self):
        # arities (3,): neighbours of cell 0 are cells 1 and 2
        table = MarginalTable(AttrSet((0,), arities=(3,)), np.array([-6.0, 9.0, 9.0]))
        ripple(table, theta=1.0)
        assert table.counts[0] == 0.0
        assert table.counts[1] == pytest.approx(6.0)
        assert table.counts[2] == pytest.approx(6.0)


class TestPipeline:
    def test_synopsis_consistent(self, mixed_dataset):
        synopsis = PriView(1.0, max_cells=120, seed=0).fit(
            mixed_dataset
        )
        for a, b in itertools.combinations(synopsis.views, 2):
            shared = tuple(sorted(set(a.attrs) & set(b.attrs)))
            assert np.allclose(
                a.project(shared).counts,
                b.project(shared).counts,
                atol=1e-6,
            )

    def test_covered_query_accuracy(self, mixed_dataset):
        synopsis = PriView(2.0, max_cells=120, seed=0).fit(
            mixed_dataset
        )
        view = synopsis.views[0]
        attrs = view.attrs[:2]
        truth = mixed_dataset.marginal(attrs)
        estimate = synopsis.marginal(attrs)
        err = np.linalg.norm(estimate.counts - truth.counts)
        err /= mixed_dataset.num_records
        assert err < 0.05

    def test_uncovered_query_beats_uniform(self, mixed_dataset):
        synopsis = PriView(2.0, max_cells=60, seed=1).fit(
            mixed_dataset
        )
        n = mixed_dataset.num_records
        for attrs in [(0, 2, 4), (1, 3, 5)]:
            if synopsis.is_covered(attrs):
                continue
            truth = mixed_dataset.marginal(attrs)
            estimate = synopsis.marginal(attrs)
            uniform = MarginalTable.uniform(truth.attrs, truth.total())
            err = np.linalg.norm(estimate.counts - truth.counts)
            uniform_err = np.linalg.norm(uniform.counts - truth.counts)
            assert err < uniform_err

    def test_noise_free_coverage_only(self, mixed_dataset):
        synopsis = PriView(
            float("inf"), max_cells=120, seed=0
        ).fit(mixed_dataset)
        view = synopsis.views[0]
        assert np.allclose(
            view.counts,
            mixed_dataset.marginal(view.attrs).counts,
            atol=1e-6,
        )

    def test_explicit_views(self, mixed_dataset):
        synopsis = PriView(
            1.0, design=[(0, 1, 2), (2, 3, 4, 5), (0, 4, 5)], seed=0
        ).fit(mixed_dataset)
        assert synopsis.num_views == 3

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyBudgetError):
            PriView(0.0)

    def test_total_count(self, mixed_dataset):
        synopsis = PriView(1.0, max_cells=120, seed=0).fit(
            mixed_dataset
        )
        assert synopsis.total_count() == pytest.approx(
            mixed_dataset.num_records, rel=0.05
        )
