"""End-to-end tests for the PriView mechanism and synopsis."""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.core.priview import PriView
from repro.core.synopsis import PriViewSynopsis
from repro.covering.design import CoveringDesign
from repro.covering.repository import best_design
from repro.exceptions import DimensionError, PrivacyBudgetError, ReproError
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Domain
from repro.metrics.l2 import normalized_l2_error


@pytest.fixture
def design10() -> CoveringDesign:
    """A small t=2 design over d=10 with blocks of 4."""
    return CoveringDesign(
        10,
        4,
        2,
        (
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (0, 4, 8, 9),
            (1, 5, 8, 9),
            (2, 6, 8, 9),
            (3, 7, 8, 9),
            (0, 5, 2, 7),
            (1, 4, 3, 6),
            (0, 6, 1, 7),
            (2, 4, 3, 5),
        ),
    )


class TestFit:
    def test_synopsis_structure(self, small_dataset, design10):
        synopsis = PriView(1.0, design=design10, seed=0).fit(small_dataset)
        assert synopsis.num_views == design10.num_blocks
        assert synopsis.num_attributes == 10
        assert synopsis.epsilon == 1.0
        assert "C_2" in repr(synopsis)

    def test_views_are_consistent(self, small_dataset, design10):
        synopsis = PriView(1.0, design=design10, seed=0).fit(small_dataset)
        for a, b in itertools.combinations(synopsis.views, 2):
            shared = tuple(sorted(set(a.attrs) & set(b.attrs)))
            assert np.allclose(
                a.project(shared).counts, b.project(shared).counts, atol=1e-6
            )

    def test_views_nonnegative_up_to_theta(self, small_dataset, design10):
        synopsis = PriView(
            0.5, design=design10, seed=1, theta=1.0
        ).fit(small_dataset)
        # the trailing consistency pass may reintroduce tiny negatives
        for view in synopsis.views:
            assert view.counts.min() > -50.0

    def test_total_close_to_n(self, small_dataset, design10):
        synopsis = PriView(1.0, design=design10, seed=0).fit(small_dataset)
        assert synopsis.total_count() == pytest.approx(
            small_dataset.num_records, rel=0.05
        )

    def test_noise_free_views_exact(self, small_dataset, design10):
        synopsis = PriView(float("inf"), design=design10, seed=0).fit(
            small_dataset
        )
        for view, block in zip(synopsis.views, design10.blocks):
            assert np.allclose(
                view.counts, small_dataset.marginal(block).counts, atol=1e-6
            )

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyBudgetError):
            PriView(0.0)

    def test_automatic_design_selection(self, small_dataset):
        synopsis = PriView(1.0, view_width=4, seed=0).fit(small_dataset)
        assert synopsis.design.block_size <= 4
        synopsis.design.validate()

    def test_seed_reproducibility(self, small_dataset, design10):
        s1 = PriView(1.0, design=design10, seed=42).fit(small_dataset)
        s2 = PriView(1.0, design=design10, seed=42).fit(small_dataset)
        for v1, v2 in zip(s1.views, s2.views):
            assert np.array_equal(v1.counts, v2.counts)

    def test_refit_draws_fresh_noise(self, small_dataset, design10):
        """Each fit spawns new per-view streams from the instance's seed."""
        mechanism = PriView(1.0, design=design10, seed=42, consistency=False)
        first = mechanism.fit(small_dataset)
        second = mechanism.fit(small_dataset)
        for v1, v2 in zip(first.views, second.views):
            assert not np.array_equal(v1.counts, v2.counts)

    def test_unpacked_extraction_rejected(self):
        PriView(1.0, packed=True)
        with pytest.raises(ReproError):
            PriView(1.0, packed=False)

    def test_default_fit_audits_exactly(self, small_dataset, design10):
        with obs.session() as sess:
            PriView(1.0, design=design10, seed=0).fit(small_dataset)
            PriView(1.0, view_width=4, seed=0).fit(small_dataset)
        sess.ledger.check()
        scopes = sess.ledger.scopes
        assert [scope.name for scope in scopes] == ["PriView.fit"] * 2
        assert all(scope.status == "exact" for scope in scopes)
        # the design-selecting fit also paid for its noisy record count
        assert scopes[1].spent() > scopes[0].spent() == 1.0


class TestQueries:
    def test_covered_marginal_accuracy(self, small_dataset, design10):
        synopsis = PriView(2.0, design=design10, seed=0).fit(small_dataset)
        truth = small_dataset.marginal((0, 1, 2))
        estimate = synopsis.marginal((0, 1, 2))
        err = normalized_l2_error(estimate, truth, small_dataset.num_records)
        assert err < 0.05

    def test_uncovered_marginal_reasonable(self, small_dataset, design10):
        synopsis = PriView(2.0, design=design10, seed=0).fit(small_dataset)
        attrs = (0, 1, 4, 8)
        assert not synopsis.is_covered(attrs)
        truth = small_dataset.marginal(attrs)
        estimate = synopsis.marginal(attrs)
        uniform_err = normalized_l2_error(
            truth, truth.__class__.uniform(attrs, truth.total()),
            small_dataset.num_records,
        )
        err = normalized_l2_error(estimate, truth, small_dataset.num_records)
        assert err < uniform_err  # beats knowing nothing

    def test_beats_direct_method(self, small_dataset, design10):
        """The headline claim, on a small instance."""
        from repro.baselines.direct import DirectMethod

        k, eps = 4, 0.5
        queries = list(itertools.combinations(range(10), k))[:15]
        synopsis = PriView(eps, design=design10, seed=3).fit(small_dataset)
        direct = DirectMethod(eps, k, seed=3).fit(small_dataset)
        n = small_dataset.num_records
        pv_err = np.mean(
            [
                normalized_l2_error(
                    synopsis.marginal(q), small_dataset.marginal(q), n
                )
                for q in queries
            ]
        )
        d_err = np.mean(
            [
                normalized_l2_error(
                    direct.marginal(q), small_dataset.marginal(q), n
                )
                for q in queries
            ]
        )
        assert pv_err < d_err

    def test_any_k_from_one_synopsis(self, small_dataset, design10):
        """The no-commitment-to-k property highlighted in Section 1."""
        synopsis = PriView(1.0, design=design10, seed=0).fit(small_dataset)
        for k in (1, 2, 3, 5):
            attrs = tuple(range(k))
            table = synopsis.marginal(attrs)
            assert table.arity == k

    def test_marginals_plural(self, small_dataset, design10):
        synopsis = PriView(1.0, design=design10, seed=0).fit(small_dataset)
        tables = synopsis.marginals([(0, 1), (2, 3)])
        assert [t.attrs for t in tables] == [(0, 1), (2, 3)]


class TestPipelineVariants:
    @pytest.mark.parametrize("method", ["none", "simple", "global", "ripple"])
    def test_nonnegativity_variants_run(self, small_dataset, design10, method):
        synopsis = PriView(
            0.5, design=design10, nonnegativity=method, seed=0
        ).fit(small_dataset)
        table = synopsis.marginal((0, 1, 4, 8))
        assert np.all(np.isfinite(table.counts))

    def test_no_consistency_pipeline(self, small_dataset, design10):
        synopsis = PriView(
            1.0, design=design10, consistency=False, nonnegativity="none",
            seed=0,
        ).fit(small_dataset)
        table = synopsis.marginal((0, 1, 4, 8), method="lp")
        assert np.all(np.isfinite(table.counts))

    def test_multiple_nonneg_rounds(self, small_dataset, design10):
        synopsis = PriView(
            1.0, design=design10, nonneg_rounds=3, seed=0
        ).fit(small_dataset)
        assert synopsis.metadata["nonneg_rounds"] == 3


@pytest.fixture(scope="module", params=["binary", "categorical"])
def kind_dataset(request):
    """A d=6 dataset of each domain kind."""
    rng = np.random.default_rng(3)
    arities = 6 if request.param == "binary" else (3, 2, 4, 2, 3, 2)
    return Dataset.random(2000, arities, rng=rng)


class TestBothDomainKinds:
    """One mechanism and one synopsis; the dataset picks the kind."""

    def test_views_follow_the_dataset(self, kind_dataset):
        with obs.session(ledger=True) as sess:
            synopsis = PriView(1.0, view_width=4, max_cells=36, seed=0).fit(
                kind_dataset
            )
            sess.ledger.check()
        assert synopsis.arities == kind_dataset.arities
        if kind_dataset.arities is None:
            assert synopsis.design is not None
            assert all(len(v.attrs) == 4 for v in synopsis.views)
        else:
            assert synopsis.design is None
            assert all(v.attrs.size <= 36 for v in synopsis.views)
        assert [row.name for row in sess.ledger.audit()] == ["PriView.fit"]

    def test_explicit_views(self, kind_dataset):
        views = [(0, 1, 2), (2, 3, 4, 5), (0, 4, 5)]
        synopsis = PriView(1.0, design=views, seed=0).fit(kind_dataset)
        assert [tuple(v.attrs) for v in synopsis.views] == views
        assert synopsis.design is None

    def test_attribute_outside_every_view(self, kind_dataset):
        synopsis = PriView(1.0, design=[(0, 1, 2), (2, 3, 4)], seed=0).fit(
            kind_dataset
        )
        radix = tuple(kind_dataset.arities or (2,) * 6)
        expected = (radix[0], radix[5])
        table = synopsis.marginal((0, 5))
        assert table.attrs.radix == expected
        assert table.counts.size == expected[0] * expected[1]
        (batched,) = synopsis.marginals([(0, 5)])
        assert batched.attrs.radix == expected
        np.testing.assert_array_equal(batched.counts, table.counts)

    @pytest.mark.parametrize("attrs", [(0, 9), (0, -1), (6,)])
    def test_unknown_attributes_raise(self, kind_dataset, attrs):
        synopsis = PriView(1.0, view_width=4, seed=0).fit(kind_dataset)
        with pytest.raises(DimensionError):
            synopsis.marginal(attrs)
        with pytest.raises(DimensionError):
            synopsis.marginals([(0, 1), attrs])

    def test_domain_must_match(self, kind_dataset):
        synopsis = PriView(1.0, view_width=4, seed=0).fit(kind_dataset)
        with pytest.raises(DimensionError):
            PriViewSynopsis(
                views=synopsis.views,
                epsilon=synopsis.epsilon,
                num_attributes=synopsis.num_attributes,
                arities=synopsis.arities,
                domain=Domain.from_arities((5,) * 6),
            )
