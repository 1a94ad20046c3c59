"""Tests for Chow-Liu structure learning and tree-model queries."""

import networkx as nx
import numpy as np
import pytest

from repro.core.priview import PriView
from repro.covering.repository import best_design
from repro.datasets.mchain import markov_chain_dataset
from repro.exceptions import ReconstructionError
from repro.marginals.dataset import Dataset
from repro.models.chow_liu import (
    _mutual_information,
    chow_liu_tree,
    pairwise_mutual_information,
)
from repro.models.tree_model import TreeModel


def _chain_dataset(rng, n=30_000, d=8, flip=0.1) -> Dataset:
    """A hidden-Markov-free chain: x_{j+1} = x_j flipped w.p. ``flip``."""
    data = np.zeros((n, d), dtype=np.uint8)
    data[:, 0] = rng.random(n) < 0.5
    for j in range(1, d):
        flips = rng.random(n) < flip
        data[:, j] = data[:, j - 1] ^ flips
    return Dataset(data, name="chain")


@pytest.fixture(scope="module")
def chain_synopsis():
    rng = np.random.default_rng(0)
    dataset = _chain_dataset(rng)
    design = best_design(8, 4, 2)
    synopsis = PriView(float("inf"), design=design, seed=0).fit(dataset)
    return dataset, synopsis


class TestMutualInformation:
    def test_independent_is_zero(self):
        joint = np.array([0.25, 0.25, 0.25, 0.25])
        assert _mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_identical_is_entropy(self):
        joint = np.array([0.5, 0.0, 0.0, 0.5])
        assert _mutual_information(joint) == pytest.approx(np.log(2))

    def test_nonnegative_on_noise(self, rng):
        for _ in range(20):
            assert _mutual_information(rng.random(4)) >= 0.0

    def test_degenerate_zero(self):
        assert _mutual_information(np.zeros(4)) == 0.0


class TestChowLiu:
    def test_mi_graph_complete(self, chain_synopsis):
        _, synopsis = chain_synopsis
        graph = pairwise_mutual_information(synopsis)
        assert graph.number_of_edges() == 8 * 7 // 2

    def test_recovers_chain_structure(self, chain_synopsis):
        """On chain data the MST is exactly the chain."""
        _, synopsis = chain_synopsis
        tree = chow_liu_tree(synopsis)
        expected = {(j, j + 1) for j in range(7)}
        found = {tuple(sorted(e)) for e in tree.edges}
        assert found == expected

    def test_uncovered_pair_rejected(self, chain_synopsis):
        from repro.covering.design import CoveringDesign

        dataset, _ = chain_synopsis
        # views miss the pair (0, 7)
        design = CoveringDesign(
            8, 4, 1, ((0, 1, 2, 3), (4, 5, 6, 7))
        )
        synopsis = PriView(float("inf"), design=design, seed=0).fit(dataset)
        with pytest.raises(ReconstructionError):
            pairwise_mutual_information(synopsis)


class TestTreeModelQueries:
    def test_covered_pair_matches_truth(self, chain_synopsis):
        dataset, synopsis = chain_synopsis
        model = TreeModel.from_synopsis(synopsis)
        truth = dataset.marginal((2, 3))
        estimate = model.marginal((2, 3))
        assert np.allclose(estimate.counts, truth.counts, rtol=0.05)

    def test_long_range_pair_through_chain(self, chain_synopsis):
        """(0, 7) spans the whole chain: no view covers it, yet the
        tree model recovers it through the intermediate nodes."""
        dataset, synopsis = chain_synopsis
        model = TreeModel.from_synopsis(synopsis)
        truth = dataset.marginal((0, 7))
        estimate = model.marginal((0, 7))
        err = np.abs(estimate.normalized() - truth.normalized()).max()
        assert err < 0.05

    def test_multi_attribute_query(self, chain_synopsis):
        dataset, synopsis = chain_synopsis
        model = TreeModel.from_synopsis(synopsis)
        attrs = (0, 3, 6)
        truth = dataset.marginal(attrs)
        estimate = model.marginal(attrs)
        assert estimate.attrs == attrs
        assert estimate.total() == pytest.approx(truth.total(), rel=0.01)
        assert np.abs(
            estimate.normalized() - truth.normalized()
        ).max() < 0.08

    def test_single_attribute(self, chain_synopsis):
        dataset, synopsis = chain_synopsis
        model = TreeModel.from_synopsis(synopsis)
        assert np.allclose(
            model.marginal((4,)).counts,
            dataset.marginal((4,)).counts,
            rtol=0.05,
        )

    def test_unknown_attribute_rejected(self, chain_synopsis):
        _, synopsis = chain_synopsis
        model = TreeModel.from_synopsis(synopsis)
        with pytest.raises(ReconstructionError):
            model.marginal((0, 99))

    def test_forest_components_independent(self, chain_synopsis):
        """With an explicit two-component forest, cross-component
        queries multiply the component marginals."""
        dataset, synopsis = chain_synopsis
        forest = nx.Graph()
        forest.add_nodes_from(range(8))
        forest.add_edges_from([(0, 1), (2, 3)])
        model = TreeModel.from_synopsis(synopsis, tree=forest)
        joint = model.marginal((1, 2)).normalized().reshape(2, 2)
        p1 = model.marginal((1,)).normalized()
        p2 = model.marginal((2,)).normalized()
        assert np.allclose(joint, np.outer(p2, p1), atol=1e-9)

    def test_cyclic_graph_rejected(self, chain_synopsis):
        _, synopsis = chain_synopsis
        cyclic = nx.cycle_graph(8)
        with pytest.raises(ReconstructionError):
            TreeModel.from_synopsis(synopsis, tree=cyclic)


class TestTreeModelVsMaxent:
    def test_tree_model_wins_on_chain_data(self):
        """The extension's motivating case: on order-1 Markov data a
        global tree model beats per-query max entropy for long-range
        marginals no view covers."""
        rng = np.random.default_rng(3)
        dataset = markov_chain_dataset(1, 40_000, length=16, rng=rng)
        design = best_design(16, 4, 2)
        synopsis = PriView(float("inf"), design=design, seed=1).fit(dataset)
        model = TreeModel.from_synopsis(synopsis)
        from repro.marginals.queries import random_attribute_sets

        attrs = next(
            q
            for q in random_attribute_sets(
                16, 4, 100, np.random.default_rng(0)
            )
            if not synopsis.is_covered(q)
        )
        truth = dataset.marginal(attrs).normalized()
        tree_err = np.abs(model.marginal(attrs).normalized() - truth).sum()
        maxent_err = np.abs(
            synopsis.marginal(attrs).normalized() - truth
        ).sum()
        assert tree_err <= maxent_err + 0.02
