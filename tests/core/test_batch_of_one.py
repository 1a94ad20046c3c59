"""A single reconstruction is a batch of one, and a batch is its singles.

An answer depends only on the synopsis, the target and the method:
``reconstruct(views, t, m)`` is ``reconstruct_batch(views, [t], m)[0]``
bit for bit, and ``synopsis.marginals([t])[0]`` is
``synopsis.marginal(t)``, on binary and categorical synopses alike,
including the empty and covered targets that never reach a solver.
A workload of same-shape mates gives every target that same table and
``meta`` however it is ordered or split into batches.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.priview import PriView
from repro.core.reconstruction import (
    RECONSTRUCTION_METHODS,
    reconstruct,
    reconstruct_batch,
)
from repro.covering.design import CoveringDesign
from repro.marginals.dataset import Dataset


@pytest.fixture(scope="module", params=["binary", "categorical"])
def synopsis(request):
    rng = np.random.default_rng(17)
    if request.param == "binary":
        n, d = 3000, 8
        types = rng.integers(0, 3, n)
        profiles = rng.random((3, d)) * 0.8
        data = (rng.random((n, d)) < profiles[types]).astype(np.uint8)
        design = CoveringDesign(
            d, 4, 1, ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7))
        )
        return PriView(1.0, design=design, seed=5).fit(Dataset(data))
    # an explicit design leaves uncovered pairs with shape-mates, which
    # a cell-budget selection (it covers every pair) would not
    data = Dataset.random(3000, (3, 2, 4, 3, 2, 3), rng=rng)
    design = CoveringDesign(6, 3, 1, ((0, 1, 2), (2, 3, 4), (4, 5, 0)))
    return PriView(1.0, design=design, seed=4).fit(data)


def _targets(synopsis, mates: int = 2) -> list[tuple[int, ...]]:
    """The empty set, a covered pair and, for each size 2-4, two to
    ``mates`` uncovered sets of one shape (one arity tuple)."""
    d = synopsis.num_attributes
    out = [(), tuple(synopsis.views[0].attrs[:2])]
    for k in (2, 3, 4):
        by_shape: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for attrs in itertools.combinations(range(d), k):
            if not synopsis.is_covered(attrs):
                shape = synopsis._target(attrs).radix
                by_shape.setdefault(shape, []).append(attrs)
        group = max(by_shape.values(), key=len)
        assert len(group) >= 2, "the fixture should leave shape-mates"
        out.extend(group[:mates])
    return out


def _arrangements(workload):
    """The workload forwards, reversed, and split into two batches
    that separate shape-mates."""
    yield [workload]
    yield [workload[::-1]]
    yield [workload[::2], workload[1::2]]


def _assert_same(a, b) -> None:
    assert a.attrs == b.attrs
    assert a.arities == b.arities
    assert a.counts.tobytes() == b.counts.tobytes()
    assert a.meta == b.meta


@pytest.mark.parametrize("method", RECONSTRUCTION_METHODS)
def test_reconstruct_is_batch_of_one(synopsis, method):
    for attrs in _targets(synopsis):
        target = synopsis._target(attrs)
        single = reconstruct(synopsis.views, target, method=method)
        (batched,) = reconstruct_batch(synopsis.views, [target], method=method)
        _assert_same(single, batched)


def test_marginals_of_one_is_marginal(synopsis):
    for attrs in _targets(synopsis):
        (batched,) = synopsis.marginals([attrs], method="maxent")
        _assert_same(synopsis.marginal(attrs), batched)


@pytest.mark.parametrize("method", RECONSTRUCTION_METHODS)
def test_batch_answers_equal_single_solves(synopsis, method):
    workload = [synopsis._target(attrs) for attrs in _targets(synopsis, 6)]
    single = {
        target: reconstruct(synopsis.views, target, method=method)
        for target in workload
    }
    for batches in _arrangements(workload):
        for batch in batches:
            tables = reconstruct_batch(synopsis.views, batch, method=method)
            for target, table in zip(batch, tables):
                _assert_same(single[target], table)


@pytest.mark.parametrize("method", RECONSTRUCTION_METHODS)
def test_marginals_equal_marginal(synopsis, method):
    workload = _targets(synopsis, 6)
    single = {
        attrs: synopsis.marginal(attrs, method=method) for attrs in workload
    }
    for batches in _arrangements(workload):
        for batch in batches:
            tables = synopsis.marginals(batch, method=method)
            for attrs, table in zip(batch, tables):
                _assert_same(single[attrs], table)
