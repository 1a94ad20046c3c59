"""Tests for constraint extraction (Section 4.3 preliminaries)."""

import numpy as np
import pytest

from repro.core.reconstruction.constraints import (
    build_constraint_system,
    covering_view,
    extract_constraints,
    resolve_target,
)
from repro.exceptions import DimensionError, ReconstructionError
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable


def _views(dataset, blocks):
    return [dataset.marginal(b) for b in blocks]


class TestExtractConstraints:
    def test_disjoint_views_rejected(self, small_dataset):
        views = _views(small_dataset, [(0, 1), (2, 3)])
        with pytest.raises(ReconstructionError):
            extract_constraints(views, (4, 5))

    def test_intersections_found(self, small_dataset):
        views = _views(small_dataset, [(0, 1, 2), (2, 3, 4), (5, 6, 7)])
        constraints = extract_constraints(views, (1, 2, 3))
        attrs = {c.attrs for c in constraints}
        assert (1, 2) in attrs
        assert (2, 3) in attrs
        assert all(set(a) <= {1, 2, 3} for a in attrs)

    def test_nested_constraints_dropped(self, small_dataset):
        views = _views(small_dataset, [(0, 1, 2), (1, 9, 8)])
        constraints = extract_constraints(views, (0, 1, 2))
        attrs = {c.attrs for c in constraints}
        # (1,) from the second view is nested in (0,1,2) from the first
        assert attrs == {(0, 1, 2)}

    def test_keep_all_when_requested(self, small_dataset):
        views = _views(small_dataset, [(0, 1, 2), (1, 9, 8)])
        constraints = extract_constraints(
            views, (0, 1, 2), keep_maximal_only=False
        )
        assert {c.attrs for c in constraints} == {(0, 1, 2), (1,)}

    def test_duplicate_attrs_averaged(self):
        v1 = MarginalTable((0, 1), np.array([1.0, 2.0, 3.0, 4.0]))
        v2 = MarginalTable((1, 2), np.array([3.0, 3.0, 2.0, 2.0]))
        constraints = extract_constraints([v1, v2], (1, 5))
        (c,) = constraints
        assert c.attrs == (1,)
        expected = (v1.project((1,)).counts + v2.project((1,)).counts) / 2
        assert np.allclose(c.target, expected)

    def test_targets_match_projection(self, small_dataset):
        views = _views(small_dataset, [(0, 1, 2, 3)])
        (c,) = extract_constraints(views, (2, 3, 4, 5))
        assert c.attrs == (2, 3)
        assert np.allclose(c.target, views[0].project((2, 3)).counts)


class TestCoveringView:
    def test_found(self, small_dataset):
        views = _views(small_dataset, [(0, 1, 2), (3, 4, 5, 6)])
        cover = covering_view(views, (4, 6))
        assert cover is views[1]

    def test_not_found(self, small_dataset):
        views = _views(small_dataset, [(0, 1, 2)])
        assert covering_view(views, (1, 3)) is None


class TestConstraintSystem:
    def test_system_consistent_with_truth(self, small_dataset):
        """The true marginal satisfies the noise-free system exactly."""
        views = _views(small_dataset, [(0, 1, 2), (2, 3, 4)])
        target_attrs = (1, 2, 3)
        constraints = extract_constraints(views, target_attrs)
        matrix, rhs = build_constraint_system(constraints, target_attrs)
        truth = small_dataset.marginal(target_attrs).counts
        assert np.allclose(matrix @ truth, rhs)

    def test_shapes(self, small_dataset):
        views = _views(small_dataset, [(0, 1, 2), (2, 3, 4)])
        constraints = extract_constraints(views, (1, 2, 3))
        matrix, rhs = build_constraint_system(constraints, (1, 2, 3))
        assert matrix.shape[1] == 8
        assert matrix.shape[0] == rhs.size


class TestResolveTarget:
    def test_binary_views_leave_the_target_binary(self, small_dataset):
        views = _views(small_dataset, [(0, 1, 2), (2, 3, 4)])
        target = resolve_target(views, (1, 3))
        assert target == (1, 3)
        assert target.arities is None

    def test_arities_come_from_the_views(self):
        views = [
            MarginalTable(AttrSet((0, 1), arities=(3, 2)), np.ones(6)),
            MarginalTable(AttrSet((1, 2), arities=(2, 4)), np.ones(8)),
        ]
        assert resolve_target(views, (0, 2)).arities == (3, 4)

    def test_disagreeing_arity_raises(self):
        views = [MarginalTable(AttrSet((0, 1), arities=(3, 2)), np.ones(6))]
        with pytest.raises(DimensionError):
            resolve_target(views, AttrSet((0, 1), arities=(4, 2)))
        binary = [MarginalTable((0, 1), np.ones(4))]
        with pytest.raises(DimensionError):
            resolve_target(binary, AttrSet((0,), arities=(3,)))
