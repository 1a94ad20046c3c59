"""The parallel-fit determinism contract.

A fitted synopsis must be bit-identical no matter how many workers or
which backend executed the fan-out, and whether the marginals came off
the packed kernels or ``Dataset.marginal``.
"""

import numpy as np
import pytest

from repro import PriView, obs
from repro.covering.repository import best_design
from repro.kernels.fit import generate_noisy_views
from repro.marginals.dataset import Dataset


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    return Dataset((rng.random((2500, 16)) < 0.3).astype(np.uint8))


@pytest.fixture(scope="module")
def design():
    return best_design(16, 8, 3)


def _views_equal(a, b):
    assert len(a) == len(b)
    for va, vb in zip(a, b):
        assert va.attrs == vb.attrs
        assert np.array_equal(va.counts, vb.counts)


class TestGenerateNoisyViews:
    def test_worker_count_invariance(self, dataset, design):
        reference = generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks, root_seed=5, workers=1
        )
        for workers in (2, 8):
            got = generate_noisy_views(
                dataset, design.blocks, 1.0, design.num_blocks,
                root_seed=5, workers=workers,
            )
            _views_equal(reference, got)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_backend_invariance(self, dataset, design, backend):
        reference = generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks, root_seed=5, workers=1
        )
        got = generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks,
            root_seed=5, workers=2, backend=backend,
        )
        _views_equal(reference, got)

    def test_packed_source_invariance(self, dataset, design):
        raw = generate_noisy_views(
            dataset, design.blocks, 1.0, design.num_blocks, root_seed=5, workers=2
        )
        packed = generate_noisy_views(
            dataset.packed(), design.blocks, 1.0, design.num_blocks,
            root_seed=5, workers=2,
        )
        _views_equal(raw, packed)

    def test_infinite_epsilon_is_exact(self, dataset, design):
        views = generate_noisy_views(
            dataset, design.blocks, float("inf"), design.num_blocks,
            root_seed=0, workers=2,
        )
        for view, block in zip(views, design.blocks):
            assert np.array_equal(view.counts, dataset.marginal(block).counts)

    def test_draws_recorded_in_parent(self, dataset, design):
        with obs.session() as sess:
            with obs.budget_scope("fit", 1.0):
                generate_noisy_views(
                    dataset, design.blocks, 1.0, design.num_blocks,
                    root_seed=0, workers=2, backend="thread",
                )
            sess.ledger.check()
            assert sess.ledger.total_draws() == design.num_blocks


class TestPriViewIntegration:
    def test_fit_worker_invariance(self, dataset, design):
        reference = PriView(1.0, design=design, seed=5).fit(dataset)
        for workers in (1, 2, 8):
            got = PriView(1.0, design=design, seed=5, workers=workers).fit(dataset)
            _views_equal(reference.views, got.views)

    def test_parallel_fit_ledger_balances(self, dataset, design):
        with obs.session() as sess:
            PriView(1.0, design=design, seed=5, workers=2).fit(dataset)
            sess.ledger.check()
            snapshot = sess.metrics.snapshot()
        assert snapshot["gauges"]["fit.workers"] == 2
