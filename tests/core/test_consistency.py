"""Tests for the overall-consistency procedure (Section 4.4).

The first section of this file is the paper's procedure, written out
literally as the reference the library's ``make_consistent`` must
agree with: collect every attribute set arising as an intersection of
views, process them smallest first (the empty set leading), and at
each set ``A`` replace the projection of every view containing ``A``
by the average of those projections, spreading each view's change
evenly over the cells that collapse onto a cell of ``A``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import make_consistent
from repro.core.priview import PriView
from repro.marginals.attrs import AttrSet
from repro.marginals.dataset import Dataset
from repro.marginals.projection import projection_index
from repro.marginals.table import MarginalTable

#: the library may sum in another order than the reference, no more
AGREEMENT_RTOL = 1e-9


# ----------------------------------------------------------------------
# The Section 4.4 reference procedure
# ----------------------------------------------------------------------
def consistency_update(table: MarginalTable, target: MarginalTable) -> None:
    """Shift cells so that ``table.project(target.attrs) == target``.

    Every cell ``c`` receives ``(T_A(a) - T[A](a)) / (cells collapsing
    onto a)``, where ``a`` is ``c`` restricted to ``A = target.attrs``.
    The projection onto any attribute set disjoint from ``A`` is
    unchanged (Lemma 1).
    """
    _, pmap = projection_index(table.attrs, target.attrs)
    current = np.bincount(pmap, weights=table.counts, minlength=target.size)
    delta = (target.counts - current) / float(table.size // target.size)
    table.counts += delta[pmap]


def intersection_closure(
    attr_sets: list[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """All intersections of sub-families of ``attr_sets``, small first.

    The empty tuple is always included and sorted first; the views
    themselves are excluded unless a view appears twice.
    """
    base = [frozenset(a) for a in attr_sets]
    closure: set[frozenset[int]] = set()
    worklist = list(base)
    known = set(base)
    while worklist:
        current = worklist.pop()
        for other in base:
            inter = current & other
            if inter == current or inter == other:
                continue
            if inter not in known:
                known.add(inter)
                closure.add(inter)
                worklist.append(inter)
    seen: set[frozenset[int]] = set()
    for view in base:
        if view in seen:
            closure.add(view)
        seen.add(view)
    closure.add(frozenset())
    return sorted((tuple(sorted(s)) for s in closure), key=lambda s: (len(s), s))


def mutual_consistency(tables: list[MarginalTable], attrs: tuple[int, ...]) -> None:
    """Average the projections onto ``attrs``, then move every table to
    the average."""
    if len(tables) < 2:
        return
    projections = [t.project(attrs) for t in tables]
    mean = projections[0]
    mean.counts = sum(p.counts for p in projections) / len(projections)
    for table in tables:
        consistency_update(table, mean)


def sequential_consistency(tables: list[MarginalTable]) -> None:
    """The Section 4.4 procedure, in place, over the closure in order."""
    for attrs in intersection_closure([t.attrs for t in tables]):
        mutual_consistency(
            [t for t in tables if set(attrs) <= set(t.attrs)], attrs
        )


def _assert_agree(engine: list[MarginalTable], reference: list[MarginalTable]):
    for got, want in zip(engine, reference):
        assert got.attrs == want.attrs
        scale = max(float(np.abs(want.counts).max()), 1.0)
        gap = float(np.abs(got.counts - want.counts).max()) / scale
        assert gap <= AGREEMENT_RTOL, (tuple(got.attrs), gap)


def _random_family(rng, arities, views: int, width: int) -> list[MarginalTable]:
    """Random views of one width: the reference skips a view nested in
    another, which equal widths rule out (bar exact twins, which it
    reconciles)."""
    d = len(arities)
    tables = []
    for _ in range(views):
        attrs = tuple(sorted(int(a) for a in rng.choice(d, width, replace=False)))
        radix = AttrSet(attrs, arities=tuple(arities[a] for a in attrs))
        if all(arities[a] == 2 for a in range(d)):
            radix = AttrSet(attrs)
        tables.append(MarginalTable(radix, rng.normal(50.0, 30.0, radix.size)))
    return tables


class TestIntersectionClosure:
    def test_pairwise_intersections_present(self):
        closure = intersection_closure([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        assert (1, 2) in closure
        assert (2, 3) in closure
        assert (2,) in closure  # intersection of all three

    def test_empty_set_first(self):
        closure = intersection_closure([(0, 1), (2, 3)])
        assert closure[0] == ()

    def test_sorted_by_size(self):
        closure = intersection_closure([(0, 1, 2, 3), (2, 3, 4, 5), (3, 4, 5, 6)])
        sizes = [len(s) for s in closure]
        assert sizes == sorted(sizes)

    def test_views_themselves_excluded(self):
        closure = intersection_closure([(0, 1), (1, 2)])
        assert (0, 1) not in closure
        assert (1, 2) not in closure

    def test_duplicated_view_included(self):
        """Identical views must still be reconciled with each other."""
        closure = intersection_closure([(0, 1), (0, 1)])
        assert (0, 1) in closure

    def test_disjoint_views(self):
        closure = intersection_closure([(0, 1), (2, 3)])
        assert closure == [()]

    def test_closure_under_intersection(self):
        views = [(0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 3, 4), (2, 3, 4, 5)]
        closure = set(intersection_closure(views)) | set(views)
        for a, b in itertools.combinations(closure, 2):
            inter = tuple(sorted(set(a) & set(b)))
            assert inter in closure


class TestMutualConsistency:
    def test_two_tables_agree_after(self, rng):
        t1 = MarginalTable((0, 1), rng.random(4) * 10)
        t2 = MarginalTable((1, 2), rng.random(4) * 10)
        mutual_consistency([t1, t2], (1,))
        assert np.allclose(t1.project((1,)).counts, t2.project((1,)).counts)

    def test_single_table_noop(self, rng):
        t1 = MarginalTable((0, 1), rng.random(4))
        before = t1.counts.copy()
        mutual_consistency([t1], (1,))
        assert np.array_equal(t1.counts, before)

    def test_result_is_average(self, rng):
        t1 = MarginalTable((0, 1), rng.random(4) * 10)
        t2 = MarginalTable((1, 2), rng.random(4) * 10)
        expected = (t1.project((1,)).counts + t2.project((1,)).counts) / 2
        mutual_consistency([t1, t2], (1,))
        assert np.allclose(t1.project((1,)).counts, expected)


class TestMakeConsistent:
    def _noisy_views(self, dataset, blocks, rng, scale=30.0):
        views = []
        for block in blocks:
            table = dataset.marginal(block)
            table.counts = table.counts + rng.laplace(scale=scale, size=table.size)
            views.append(table)
        return views

    def test_all_pairs_consistent(self, small_dataset, rng):
        blocks = [(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7), (0, 3, 6, 9)]
        views = self._noisy_views(small_dataset, blocks, rng)
        make_consistent(views)
        for a, b in itertools.combinations(views, 2):
            shared = tuple(sorted(set(a.attrs) & set(b.attrs)))
            assert np.allclose(
                a.project(shared).counts, b.project(shared).counts, atol=1e-6
            )

    def test_totals_equalised(self, small_dataset, rng):
        blocks = [(0, 1), (2, 3), (4, 5)]
        views = self._noisy_views(small_dataset, blocks, rng)
        make_consistent(views)
        totals = [v.total() for v in views]
        assert np.allclose(totals, totals[0])

    def test_consistency_improves_accuracy(self, small_dataset):
        """Averaging across overlapping noisy views reduces error."""
        blocks = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)]
        rng_pool = [np.random.default_rng(s) for s in range(30)]
        err_before, err_after = [], []
        true = small_dataset.marginal((0, 1)).counts
        for rng in rng_pool:
            views = self._noisy_views(small_dataset, blocks, rng, scale=50.0)
            err_before.append(
                np.linalg.norm(views[0].project((0, 1)).counts - true)
            )
            make_consistent(views)
            err_after.append(
                np.linalg.norm(views[0].project((0, 1)).counts - true)
            )
        assert np.mean(err_after) < np.mean(err_before)

    def test_exact_views_unchanged(self, small_dataset):
        """Noise-free views are already consistent: a fixpoint."""
        blocks = [(0, 1, 2), (1, 2, 3)]
        views = [small_dataset.marginal(b) for b in blocks]
        originals = [v.counts.copy() for v in views]
        make_consistent(views)
        for view, original in zip(views, originals):
            assert np.allclose(view.counts, original, atol=1e-9)

    def test_idempotent(self, small_dataset, rng):
        blocks = [(0, 1, 2), (1, 2, 3), (0, 2, 4)]
        views = self._noisy_views(small_dataset, blocks, rng)
        make_consistent(views)
        snapshot = [v.counts.copy() for v in views]
        make_consistent(views)
        for view, snap in zip(views, snapshot):
            assert np.allclose(view.counts, snap, atol=1e-8)

    def test_nested_views_agree(self, rng):
        """A view inside another shares all of its information with it
        (the sequential procedure's closure skips this case)."""
        views = [
            MarginalTable((0, 1, 2), rng.normal(50.0, 10.0, 8)),
            MarginalTable((1, 2), rng.normal(50.0, 10.0, 4)),
            MarginalTable(
                AttrSet((1, 3), arities=(2, 3)), rng.normal(50.0, 10.0, 6)
            ),
        ]
        make_consistent(views)
        assert np.allclose(views[0].project((1, 2)).counts, views[1].counts)
        assert np.allclose(
            views[0].project((1,)).counts, views[2].project((1,)).counts
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_consistency_invariant_random_views(self, seed):
        rng = np.random.default_rng(seed)
        attrs_pool = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 4)]
        views = [
            MarginalTable(a, rng.random(8) * 20 - 5) for a in attrs_pool
        ]
        make_consistent(views)
        for a, b in itertools.combinations(views, 2):
            shared = tuple(sorted(set(a.attrs) & set(b.attrs)))
            assert np.allclose(
                a.project(shared).counts, b.project(shared).counts, atol=1e-6
            )


class TestAgreementWithSection44:
    """``make_consistent`` reproduces the sequential procedure."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_binary_families(self, seed):
        rng = np.random.default_rng(seed)
        views = _random_family(rng, (2,) * 9, views=6, width=4)
        # a repeated view must be reconciled with its twin
        views.append(views[0].copy())
        views[-1].counts += rng.normal(0.0, 5.0, views[-1].size)
        reference = [v.copy() for v in views]
        sequential_consistency(reference)
        make_consistent(views)
        _assert_agree(views, reference)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_categorical_families(self, seed):
        rng = np.random.default_rng(100 + seed)
        arities = tuple(int(b) for b in rng.integers(2, 9, 9))
        views = _random_family(rng, arities, views=6, width=4)
        reference = [v.copy() for v in views]
        sequential_consistency(reference)
        make_consistent(views)
        _assert_agree(views, reference)

    @pytest.mark.parametrize("kind", ["binary", "categorical"])
    def test_golden_fits(self, kind, monkeypatch):
        """The seeded golden fits, consistency → Ripple → consistency,
        with the library's engine and with the reference."""
        if kind == "binary":
            data = Dataset.random(3000, 9, rng=np.random.default_rng(11))
            mechanism = lambda: PriView(epsilon=1.0, view_width=5, seed=3)
        else:
            arities = (3, 2, 4, 3, 2, 5, 3, 2)
            rng = np.random.default_rng(21)
            codes = np.stack(
                [rng.integers(0, b, 6000) for b in arities], axis=1
            )
            data = Dataset(codes, arities)
            mechanism = lambda: PriView(epsilon=1.0, max_cells=40, seed=5)
        engine = mechanism().fit(data).views
        monkeypatch.setattr(
            "repro.core.priview.make_consistent", sequential_consistency
        )
        reference = mechanism().fit(data).views
        _assert_agree(engine, reference)

