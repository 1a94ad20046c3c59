"""Tests for MarginalTable: indexing, projection, and the Section 4.4
consistency update (kept as a test-side reference) on tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.marginals.table import MarginalTable
from tests.core.test_consistency import consistency_update


class TestConstruction:
    def test_attrs_are_sorted(self):
        table = MarginalTable((3, 1, 2), np.zeros(8))
        assert table.attrs == (1, 2, 3)

    def test_rejects_duplicate_attrs(self):
        with pytest.raises(DimensionError):
            MarginalTable((1, 1), np.zeros(4))

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionError):
            MarginalTable((0, 1), np.zeros(3))

    def test_zeros_and_uniform(self):
        zeros = MarginalTable.zeros((0, 2))
        assert zeros.total() == 0.0
        uniform = MarginalTable.uniform((0, 2), 100.0)
        assert uniform.total() == pytest.approx(100.0)
        assert np.allclose(uniform.counts, 25.0)

    def test_arity_size_len(self):
        table = MarginalTable.zeros((4, 7, 9))
        assert table.arity == 3
        assert table.size == 8
        assert len(table) == 8

    def test_empty_attrs_table(self):
        table = MarginalTable((), np.array([42.0]))
        assert table.total() == 42.0


class TestProjection:
    def test_project_to_self_is_identity(self):
        counts = np.arange(8.0)
        table = MarginalTable((0, 1, 2), counts)
        assert np.allclose(table.project((0, 1, 2)).counts, counts)

    def test_project_to_empty_gives_total(self):
        table = MarginalTable((0, 1), np.array([1.0, 2.0, 3.0, 4.0]))
        empty = table.project(())
        assert empty.attrs == ()
        assert empty.counts[0] == pytest.approx(10.0)

    def test_project_single_attribute(self):
        # cell i: attr0 = i&1, attr1 = (i>>1)&1
        table = MarginalTable((5, 9), np.array([1.0, 2.0, 3.0, 4.0]))
        on_5 = table.project((5,))
        # attr 5 is bit 0: value 0 in cells 0,2 -> 1+3
        assert np.allclose(on_5.counts, [4.0, 6.0])
        on_9 = table.project((9,))
        assert np.allclose(on_9.counts, [3.0, 7.0])

    def test_project_not_subset_raises(self):
        table = MarginalTable.zeros((0, 1))
        with pytest.raises(DimensionError):
            table.project((2,))

    def test_projection_composes(self, rng):
        table = MarginalTable((0, 3, 5, 8), rng.random(16))
        direct = table.project((3,))
        via = table.project((3, 8)).project((3,))
        assert np.allclose(direct.counts, via.counts)

    @given(
        counts=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=16, max_size=16
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_projection_preserves_total(self, counts):
        table = MarginalTable((0, 1, 2, 3), np.array(counts))
        for sub in [(0,), (1, 3), (0, 2, 3), ()]:
            assert table.project(sub).total() == pytest.approx(
                table.total(), abs=1e-6
            )


class TestConsistencyUpdate:
    def test_matches_paper_example(self):
        """The worked example in Section 4.4 of the paper.

        The paper lists cells with the first attribute as the major
        index; our convention makes the first attribute bit 0 (minor),
        so the paper's rows are re-ordered as [c00, c10, c01, c11].
        """
        t1 = MarginalTable((1, 2), np.array([0.3, 0.3, 0.3, 0.1]))
        t2 = MarginalTable((1, 3), np.array([0.2, 0.1, 0.3, 0.4]))
        # best estimate of T_{a1}: average of projections
        p1 = t1.project((1,)).counts
        p2 = t2.project((1,)).counts
        assert np.allclose(p1, [0.6, 0.4])
        assert np.allclose(p2, [0.5, 0.5])
        target = MarginalTable((1,), (p1 + p2) / 2)
        assert np.allclose(target.counts, [0.55, 0.45])
        consistency_update(t1, target)
        consistency_update(t2, target)
        assert np.allclose(t1.counts, [0.275, 0.325, 0.275, 0.125])
        assert np.allclose(t2.counts, [0.225, 0.075, 0.325, 0.375])
        # marginals on the other attributes unchanged
        assert np.allclose(t1.project((2,)).counts, [0.6, 0.4])
        assert np.allclose(t2.project((3,)).counts, [0.3, 0.7])

    def test_update_reaches_target(self, rng):
        table = MarginalTable((0, 2, 4), rng.random(8) * 10)
        target = MarginalTable((2,), np.array([7.0, 3.0]))
        consistency_update(table, target)
        assert np.allclose(table.project((2,)).counts, target.counts)

    def test_update_to_empty_set_rescales_total(self, rng):
        table = MarginalTable((0, 1), rng.random(4))
        target = MarginalTable((), np.array([100.0]))
        consistency_update(table, target)
        assert table.total() == pytest.approx(100.0)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lemma1_disjoint_projections_unchanged(self, data):
        """Lemma 1: a total-preserving update on A leaves projections
        on attribute sets disjoint from A unchanged.

        The lemma's precondition is prior consistency on a subset of A;
        processing the empty set (total counts) first guarantees it in
        the real pipeline, so the drawn target keeps the table's total.
        """
        counts = data.draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=16, max_size=16)
        )
        table = MarginalTable((0, 1, 2, 3), np.array(counts))
        perturbation = np.array(
            data.draw(
                st.lists(
                    st.floats(-20, 20, allow_nan=False), min_size=2, max_size=2
                )
            )
        )
        perturbation -= perturbation.mean()  # total-preserving
        target = MarginalTable(
            (0,), table.project((0,)).counts + perturbation
        )
        before = table.project((1, 3)).counts.copy()
        consistency_update(table, target)
        assert np.allclose(table.project((1, 3)).counts, before, atol=1e-8)
        assert np.allclose(table.project((0,)).counts, target.counts, atol=1e-8)


class TestNormalization:
    def test_normalized_sums_to_one(self, rng):
        table = MarginalTable((0, 1, 2), rng.random(8) * 5)
        assert table.normalized().sum() == pytest.approx(1.0)

    def test_degenerate_normalizes_uniform(self):
        table = MarginalTable((0, 1), np.array([-1.0, -1.0, 1.0, 1.0]))
        assert np.allclose(table.normalized(), 0.25)

    def test_clamped(self):
        table = MarginalTable((0,), np.array([-3.0, 5.0]))
        clamped = table.clamped()
        assert np.allclose(clamped.counts, [0.0, 5.0])
        assert np.allclose(table.counts, [-3.0, 5.0])  # original untouched

    def test_copy_is_deep(self):
        table = MarginalTable((0,), np.array([1.0, 2.0]))
        other = table.copy()
        other.counts[0] = 99.0
        assert table.counts[0] == 1.0

    def test_allclose(self):
        a = MarginalTable((0,), np.array([1.0, 2.0]))
        b = MarginalTable((0,), np.array([1.0, 2.0 + 1e-12]))
        c = MarginalTable((1,), np.array([1.0, 2.0]))
        assert a.allclose(b)
        assert not a.allclose(c)
