"""Closed-form accuracy oracle for the consistent views.

Overall consistency (Section 4.4) averages every piece of information
that several views share.  Split each view into its ANOVA components
under the uniform measure: component ``S`` of view ``V`` is the part
that varies exactly on the attributes in ``S``.  On the count scale,
component ``S`` of ``V`` is component ``S`` of ``V``'s ``S``-marginal,
so consistency replaces it by its mean over ``F_S``, the views that
contain ``S``.  With independent Laplace noise of scale ``b = w/ε`` on
every cell of each of the ``w`` views (variance ``2b²``), the expected
squared error of view ``V``, per cell, before non-negativity, is::

    (1/cells(V)) Σ_{S⊆V} dim_S · 2b² · Σ_{W∈F_S} cells(W\\S)
                                     / (|F_S|² · cells(V\\S))

where ``dim_S = Π_{a∈S} (n_a - 1)``.  On binary views of width ``ℓ``
this is ``Σ_{S⊆V} 2b² / |F_S| / 2**ℓ``.

The test fits one dataset under many seeds with
``nonnegativity="none"`` and compares each view's measured error with
that formula.  The bound is the standard error of the mean over the
fits, so it tightens with their number; at 300 fits it is a few
percent, and noise scaled by 1.1 (squared error x1.21) fails it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.core.priview import PriView
from repro.kernels.packed import as_packed
from repro.marginals.dataset import Dataset

FITS = 300
EPSILON = 1.0
RECORDS = 20_000
#: standard errors of the mean a measured ratio may stray from 1
Z = 4.0

DOMAINS = {
    "binary": (2,) * 10,
    "categorical": (2, 3, 4, 2, 5, 3, 2, 3, 4, 2),
}


def predicted_mse(views, arities, b: float) -> np.ndarray:
    """Per-cell MSE of each consistent view, from the closed form."""

    def cells(attrs) -> int:
        return math.prod(arities[a] for a in attrs)

    out = []
    for view in views:
        total = 0.0
        for r in range(len(view) + 1):
            for subset in itertools.combinations(view, r):
                family = [w for w in views if set(subset) <= set(w)]
                dim = math.prod(arities[a] - 1 for a in subset)
                spread = sum(cells(set(w) - set(subset)) for w in family)
                total += (
                    dim * 2 * b * b * spread
                    / (len(family) ** 2 * cells(set(view) - set(subset)))
                )
        out.append(total / cells(view))
    return np.array(out)


def test_binary_form_is_the_categorical_form_at_arity_two():
    views = [(0, 1, 2, 3), (2, 3, 4, 5), (0, 3, 5, 6)]
    b = 3.0
    general = predicted_mse(views, (2,) * 7, b)
    binary = [
        sum(
            2 * b * b / sum(set(s) <= set(w) for w in views)
            for r in range(5)
            for s in itertools.combinations(v, r)
        ) / 16
        for v in views
    ]
    assert np.allclose(general, binary)


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_consistent_view_error_matches_the_closed_form(kind):
    arities = DOMAINS[kind]
    rng = np.random.default_rng(0)
    d = len(arities)
    views = sorted({
        tuple(sorted(int(a) for a in rng.choice(d, 4, replace=False)))
        for _ in range(27)
    })[:9]
    codes = np.stack([rng.integers(0, n, RECORDS) for n in arities], axis=1)
    data = Dataset(codes, None if kind == "binary" else arities)
    packed = as_packed(data)
    truth = [data.marginal(v).counts for v in views]
    predicted = predicted_mse(views, arities, len(views) / EPSILON)

    # ratio[s, i]: fit s's per-cell squared error of view i / predicted
    ratio = np.empty((FITS, len(views)))
    for seed in range(FITS):
        synopsis = PriView(
            EPSILON, design=views, nonnegativity="none", seed=seed
        ).fit(packed)
        for i, (view, exact) in enumerate(zip(synopsis.views, truth)):
            assert view.attrs == views[i]
            ratio[seed, i] = np.mean((view.counts - exact) ** 2) / predicted[i]

    pooled = ratio.mean(axis=1)
    pooled_se = pooled.std(ddof=1) / math.sqrt(FITS)
    assert abs(pooled.mean() - 1.0) <= Z * pooled_se, (
        pooled.mean(), pooled_se,
    )
    per_view = ratio.mean(axis=0)
    per_view_se = ratio.std(axis=0, ddof=1) / math.sqrt(FITS)
    assert np.all(np.abs(per_view - 1.0) <= Z * per_view_se), (
        per_view, per_view_se,
    )
