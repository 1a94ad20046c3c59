"""A single reconstruction is a batch of one.

An answer depends only on the synopsis, the target and the method:
``reconstruct(views, t, m)`` is ``reconstruct_batch(views, [t], m)[0]``
bit for bit, and ``synopsis.marginals([t])[0]`` is
``synopsis.marginal(t)``, on binary and categorical synopses alike,
including the empty and covered targets that never reach a solver.
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
    data = Dataset.random(3000, (3, 2, 4, 3, 2, 3), rng=rng)
    return PriView(1.0, max_cells=30, seed=4).fit(data)


def _targets(synopsis) -> list[tuple[int, ...]]:
    """The empty set, a covered pair and uncovered sets of sizes 2-4."""
    d = synopsis.num_attributes
    out = [(), tuple(synopsis.views[0].attrs[:2])]
    for k in (2, 3, 4):
        uncovered = [
            attrs for attrs in itertools.combinations(range(d), k)
            if not synopsis.is_covered(attrs)
        ]
        out.extend(uncovered[:2])
    assert len(out) >= 6, "the fixture should leave uncovered sets"
    return out


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
