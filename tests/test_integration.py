"""Cross-module integration tests: the paper's pipeline end to end."""

import numpy as np
import pytest

from repro import Dataset, PriView
from repro.baselines.direct import DirectMethod
from repro.baselines.fourier import FourierMethod
from repro.covering.repository import best_design
from repro.datasets.mchain import markov_chain_dataset
from repro.marginals.queries import (
    consecutive_attribute_sets,
    random_attribute_sets,
)
from repro.metrics.l2 import normalized_l2_error


@pytest.fixture(scope="module")
def kosarak_small():
    from repro.datasets.clickstream import kosarak_like

    return kosarak_like(num_records=40_000, rng=np.random.default_rng(9))


class TestHeadlineClaim:
    """PriView beats Direct and Fourier by a wide margin at d=32."""

    def test_order_of_magnitude_gap(self, kosarak_small):
        d, k, eps = 32, 6, 1.0
        rng = np.random.default_rng(0)
        queries = random_attribute_sets(d, k, 6, rng)
        n = kosarak_small.num_records

        design = best_design(d, 8, 2)
        synopsis = PriView(eps, design=design, seed=1).fit(kosarak_small)
        direct = DirectMethod(eps, k, seed=1).fit(kosarak_small)
        fourier = FourierMethod(eps, k, seed=1).fit(kosarak_small)

        def mean_err(mech):
            return np.mean(
                [
                    normalized_l2_error(
                        mech.marginal(q), kosarak_small.marginal(q), n
                    )
                    for q in queries
                ]
            )

        pv = mean_err(synopsis)
        assert pv * 10 < mean_err(direct)
        assert pv * 10 < mean_err(fourier)

    def test_epsilon_degrades_gracefully(self, kosarak_small):
        design = best_design(32, 8, 2)
        rng = np.random.default_rng(2)
        queries = random_attribute_sets(32, 4, 5, rng)
        n = kosarak_small.num_records
        errors = {}
        for eps in (10.0, 0.1):
            synopsis = PriView(eps, design=design, seed=4).fit(kosarak_small)
            errors[eps] = np.mean(
                [
                    normalized_l2_error(
                        synopsis.marginal(q), kosarak_small.marginal(q), n
                    )
                    for q in queries
                ]
            )
        assert errors[10.0] < errors[0.1]


class TestMchainPipeline:
    def test_consecutive_queries_accurate(self):
        dataset = markov_chain_dataset(
            2, 30_000, rng=np.random.default_rng(5)
        )
        design = best_design(64, 8, 2)  # AG(2,8), the paper's C_2(8,72)
        synopsis = PriView(1.0, design=design, seed=3).fit(dataset)
        windows = consecutive_attribute_sets(64, 4)[:5]
        for attrs in windows:
            err = normalized_l2_error(
                synopsis.marginal(attrs),
                dataset.marginal(attrs),
                dataset.num_records,
            )
            assert err < 0.1


class TestSynopsisReuse:
    def test_one_budget_many_arities(self, kosarak_small):
        """The synopsis answers k=2..8 without extra privacy cost."""
        design = best_design(32, 8, 2)
        synopsis = PriView(1.0, design=design, seed=0).fit(kosarak_small)
        for k in (2, 4, 6, 8):
            attrs = tuple(range(0, 2 * k, 2))
            table = synopsis.marginal(attrs)
            assert table.arity == k
            assert table.counts.min() >= -1e-6
