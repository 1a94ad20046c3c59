"""Planner classification and path-equivalence guarantees."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.reconstruction import reconstruct
from repro.exceptions import QueryError
from repro.serve import (
    PATH_COVERED,
    PATH_DERIVED,
    PATH_SOLVED,
    QueryEngine,
    QueryPlanner,
)


@pytest.fixture
def planner(chain_synopsis):
    return QueryPlanner(chain_synopsis.views, chain_synopsis.num_attributes)


def superset_finder(cached):
    """A ``find_superset`` over a ``{attrs: table}`` dict: the smallest
    superset, ties to the first in iteration order."""

    def find(target):
        supersets = [attrs for attrs in cached if set(target) <= set(attrs)]
        if not supersets:
            return None
        best = min(supersets, key=len)
        return best, cached[best]

    return find


class TestClassification:
    def test_every_block_subset_is_covered(self, planner, chain_design):
        for block in chain_design.blocks:
            for k in range(1, len(block) + 1):
                for attrs in itertools.combinations(block, k):
                    plan = planner.plan(attrs, "maxent")
                    assert plan.path == PATH_COVERED
                    assert set(attrs).issubset(plan.source)

    def test_uncovered_sets_are_solved(self, planner):
        for attrs in [(0, 4), (1, 6), (0, 2, 4), (3, 7)]:
            plan = planner.plan(attrs, "maxent")
            assert plan.path == PATH_SOLVED
            assert plan.source is None

    def test_cached_superset_yields_derived(self, planner, chain_synopsis):
        parent = chain_synopsis.marginal((0, 1, 4))
        find = superset_finder({(0, 1, 4): parent})
        plan = planner.plan((0, 4), "maxent", find)
        assert plan.path == PATH_DERIVED
        assert plan.source == (0, 1, 4)
        assert plan.parent is parent
        # covered always wins over derived
        assert planner.plan((0, 1), "maxent", find).path == PATH_COVERED
        # the cached entry itself is not "derived" from itself
        assert planner.plan((0, 1, 4), "maxent", find).path == PATH_SOLVED

    def test_smallest_superset_wins(self, planner, chain_synopsis):
        big = chain_synopsis.marginal((0, 1, 4, 6))
        small = chain_synopsis.marginal((0, 4, 6))
        find = superset_finder({(0, 1, 4, 6): big, (0, 4, 6): small})
        plan = planner.plan((0, 6), "maxent", find)
        assert plan.path == PATH_DERIVED
        assert plan.source == (0, 4, 6)

    def test_normalisation(self, planner):
        assert planner.plan([3, 1], "maxent").attrs == (1, 3)

    @pytest.mark.parametrize("attrs", [(0, 0), (-1, 2), (0, 8), ("x",)])
    def test_bad_attrs_rejected(self, planner, attrs):
        with pytest.raises(QueryError):
            planner.validate(attrs)


class TestPathEquivalence:
    def test_covered_path_bitwise_identical_to_reconstruct(
        self, chain_synopsis, chain_design
    ):
        """The planner's projection answer must be byte-for-byte what
        ``reconstruct`` (the maxent front door) returns for every
        covered attribute set."""
        with QueryEngine(chain_synopsis) as engine:
            for block in chain_design.blocks:
                for k in range(1, len(block) + 1):
                    for attrs in itertools.combinations(block, k):
                        served = engine.answer(attrs)
                        direct = reconstruct(
                            chain_synopsis.views, attrs, method="maxent"
                        )
                        assert served.path == PATH_COVERED
                        assert np.array_equal(served.table.counts, direct.counts)

    def test_derived_path_matches_solver_within_tolerance(self, chain_synopsis):
        """Projecting a cached parent whose maxent model factorises
        across the target must agree with a fresh solve up to solver
        tolerance.

        Parent (0, 1, 4) has maximal constraints {0,1} and {4}, so its
        max-entropy table is T(0,1) x p(4); projecting onto (0, 4)
        gives p(0) x p(4), exactly the max-entropy solution of the
        direct constraints {0} and {4}.
        """
        total = chain_synopsis.total_count()
        with QueryEngine(chain_synopsis) as engine:
            parent = engine.answer((0, 1, 4))
            assert parent.path == PATH_SOLVED
            derived = engine.answer((0, 4))
            assert derived.path == PATH_DERIVED
            assert derived.source == (0, 1, 4)
            direct = reconstruct(chain_synopsis.views, (0, 4), method="maxent")
            np.testing.assert_allclose(
                derived.table.counts, direct.counts, atol=1e-5 * max(total, 1.0)
            )

    def test_derive_from_cache_can_be_disabled(self, chain_synopsis):
        with QueryEngine(chain_synopsis, derive_from_cache=False) as engine:
            engine.answer((0, 1, 4))
            assert engine.answer((0, 4)).path == PATH_SOLVED
