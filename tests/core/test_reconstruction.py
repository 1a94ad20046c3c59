"""Tests for the reconstruction solvers (Section 4.3)."""

import numpy as np
import pytest

from repro.core.consistency import make_consistent
from repro.core.reconstruction import (
    RECONSTRUCTION_METHODS,
    reconstruct,
)
from repro.core.reconstruction.constraints import extract_constraints
from repro.core.reconstruction.least_squares import least_squares
from repro.core.reconstruction.linear_program import linear_program
from repro.core.reconstruction.maxent import maxent, maxent_dual
from repro.exceptions import ReconstructionError
from repro.marginals.table import MarginalTable


@pytest.fixture
def consistent_views(small_dataset):
    views = [
        small_dataset.marginal(b)
        for b in [(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7), (0, 4, 8, 9)]
    ]
    make_consistent(views)
    return views


class TestDispatcher:
    def test_unknown_method(self, consistent_views):
        with pytest.raises(ReconstructionError):
            reconstruct(consistent_views, (0, 1), method="nope")

    def test_covered_query_is_projection(self, small_dataset, consistent_views):
        table = reconstruct(consistent_views, (2, 3))
        assert np.allclose(
            table.counts, consistent_views[0].project((2, 3)).counts
        )

    @pytest.mark.parametrize("method", RECONSTRUCTION_METHODS)
    def test_all_methods_return_valid_tables(self, consistent_views, method):
        table = reconstruct(consistent_views, (1, 2, 4, 8), method=method)
        assert table.attrs == (1, 2, 4, 8)
        assert table.counts.min() >= -1e-6
        assert table.total() == pytest.approx(
            consistent_views[0].total(), rel=0.05
        )


class TestMaxent:
    def test_no_constraints_uniform(self):
        table = maxent([], (0, 1), total=100.0)
        assert np.allclose(table.counts, 25.0)

    def test_satisfies_constraints(self, consistent_views):
        target = (1, 2, 4, 8)
        constraints = extract_constraints(consistent_views, target)
        table = maxent(constraints, target, consistent_views[0].total())
        for c in constraints:
            assert np.allclose(
                table.project(c.attrs).counts, np.maximum(c.target, 0),
                atol=1e-4 * table.total(),
            )

    def test_independent_attributes_product_form(self):
        """With only singleton constraints, maxent is the product
        distribution — the defining property of maximum entropy."""
        c1 = MarginalTable((0,), np.array([30.0, 70.0]))
        c2 = MarginalTable((5,), np.array([80.0, 20.0]))
        views = [c1, c2]
        table = reconstruct(views, (0, 5), method="maxent")
        expected = np.array(
            [0.3 * 0.8, 0.7 * 0.8, 0.3 * 0.2, 0.7 * 0.2]
        ) * 100.0
        assert np.allclose(table.counts, expected, atol=1e-6)

    def test_matches_dual_solver(self, consistent_views):
        target = (1, 2, 4, 8)
        constraints = extract_constraints(consistent_views, target)
        total = consistent_views[0].total()
        primal = maxent(constraints, target, total)
        dual = maxent_dual(constraints, target, total)
        assert np.allclose(
            primal.normalized(), dual.normalized(), atol=2e-4
        )

    def test_exact_recovery_of_product_data(self, rng):
        """IID attributes: pair constraints determine any marginal."""
        from repro.marginals.dataset import Dataset

        probs = np.array([0.2, 0.5, 0.8, 0.4])
        data = (rng.random((40_000, 4)) < probs).astype(np.uint8)
        ds = Dataset(data)
        views = [ds.marginal((0, 1)), ds.marginal((2, 3))]
        table = reconstruct(views, (0, 2), method="maxent")
        truth = ds.marginal((0, 2))
        err = np.abs(table.counts - truth.counts).max() / ds.num_records
        assert err < 0.01  # only sampling correlation remains

    def test_handles_slightly_inconsistent_targets(self):
        """Damped fallback: conflicting raw constraints still solve."""
        c1 = MarginalTable((0,), np.array([60.0, 40.0]))
        c2 = MarginalTable((0, 1), np.array([20.0, 40.0, 25.0, 15.0]))
        # c2 projects onto (0,) as [45, 55]: conflicts with c1
        constraints = extract_constraints(
            [c1, c2], (0, 1), keep_maximal_only=False
        )
        table = maxent(constraints, (0, 1), 100.0)
        assert np.all(np.isfinite(table.counts))
        assert table.counts.min() >= 0


class TestLeastSquares:
    def test_satisfies_constraints(self, consistent_views):
        target = (1, 2, 4, 8)
        constraints = extract_constraints(consistent_views, target)
        table = least_squares(constraints, target, consistent_views[0].total())
        for c in constraints:
            assert np.allclose(
                table.project(c.attrs).counts, c.target,
                atol=1e-3 * max(1.0, table.total()),
            )

    def test_minimum_norm_among_solutions(self):
        """With one marginal constraint the min-norm completion splits
        each constrained count uniformly."""
        c = MarginalTable((0,), np.array([60.0, 40.0]))
        table = reconstruct([c], (0, 1), method="lsq")
        assert np.allclose(table.counts, [30.0, 20.0, 30.0, 20.0])

    def test_nonnegativity_enforced(self):
        constraints = extract_constraints(
            [MarginalTable((0,), np.array([-30.0, 130.0]))],
            (0, 1),
            keep_maximal_only=False,
        )
        table = least_squares(constraints, (0, 1), 100.0)
        assert table.counts.min() >= -1e-9


class TestLinearProgram:
    def test_consistent_constraints_fit_exactly(self, consistent_views):
        target = (1, 2, 4, 8)
        constraints = extract_constraints(consistent_views, target)
        table = linear_program(constraints, target, consistent_views[0].total())
        worst = max(
            np.abs(table.project(c.attrs).counts - c.target).max()
            for c in constraints
        )
        assert worst <= 1e-3 * max(1.0, table.total())

    def test_accepts_inconsistent_constraints(self):
        c1 = MarginalTable((0,), np.array([60.0, 40.0]))
        c2 = MarginalTable((0,), np.array([50.0, 50.0]))
        constraints = extract_constraints(
            [c1, c2], (0, 1), keep_maximal_only=False
        )
        table = linear_program(constraints, (0, 1), 100.0)
        assert table.counts.min() >= 0


class TestMaxentTelemetry:
    """The solver's convergence record rides on the returned table."""

    def test_converged_fit_reports_meta(self, consistent_views):
        target = (1, 2, 4, 8)
        constraints = extract_constraints(consistent_views, target)
        table = maxent(constraints, target, consistent_views[0].total())
        meta = table.meta["maxent"]
        assert meta["converged"] is True
        assert meta["iterations"] >= 1
        assert meta["residual"] < 1e-9
        assert meta["damped"] is False

    def test_no_constraints_meta_trivial(self):
        table = maxent([], (0, 1), total=100.0)
        assert table.meta["maxent"] == {
            "iterations": 0,
            "residual": 0.0,
            "converged": True,
            "damped": False,
        }

    def test_inconsistent_targets_flag_damped_fallback(self):
        c1 = MarginalTable((0,), np.array([60.0, 40.0]))
        c2 = MarginalTable((0, 1), np.array([20.0, 40.0, 25.0, 15.0]))
        constraints = extract_constraints(
            [c1, c2], (0, 1), keep_maximal_only=False
        )
        table = maxent(constraints, (0, 1), 100.0)
        meta = table.meta["maxent"]
        assert meta["damped"] is True
        assert meta["iterations"] > 1
        assert np.isfinite(meta["residual"])

    def test_dual_solver_reports_meta(self, consistent_views):
        target = (1, 2, 4, 8)
        constraints = extract_constraints(consistent_views, target)
        table = maxent_dual(constraints, target, consistent_views[0].total())
        meta = table.meta["maxent"]
        assert meta["converged"] is True
        assert meta["iterations"] >= 1

    def test_synopsis_marginal_exposes_convergence(self, small_dataset):
        """End to end: callers can inspect solver telemetry, not just values.

        With noisy views convergence is not guaranteed (that is why the
        telemetry exists), so assert the report's shape, not its verdict.
        """
        from repro.core.priview import PriView
        from repro.covering.repository import best_design

        design = best_design(10, 4, 2)
        synopsis = PriView(1.0, design=design, seed=0).fit(small_dataset)
        uncovered = next(
            attrs
            for attrs in [(0, 1, 4, 7, 9), (0, 2, 5, 8), (1, 3, 6, 9)]
            if not synopsis.is_covered(attrs)
        )
        table = synopsis.marginal(uncovered)
        meta = table.meta["maxent"]
        assert meta["iterations"] >= 1
        assert np.isfinite(meta["residual"])
        assert isinstance(meta["converged"], bool)
