"""Brute-force oracle at small ``d``, for binary and categorical domains.

With ``epsilon = inf`` the views are exact marginals, so every answer
can be checked against the full contingency table of the data:

* a covered target must equal the data marginal;
* a solved target must reproduce the data marginal on every view's
  share of the target, whatever the reconstruction method, and the
  non-negative methods must not return negative cells.  A ``residual``
  answer meets the views before its local non-negativity step; the
  simplex projection then moves at most twice the negative mass it
  records in ``meta["residual"]``, and the check allows exactly that.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.priview import PriView
from repro.core.reconstruction import RECONSTRUCTION_METHODS
from repro.marginals.dataset import Dataset

COVERED_RTOL = 1e-9
SOLVED_RTOL = 1e-6
NEGATIVE_ATOL = 1e-9
#: every registry method returns a non-negative table
NON_NEGATIVE = set(RECONSTRUCTION_METHODS)


def _correlated_codes(rng, n: int, arities) -> np.ndarray:
    """Codes where each attribute leans on the previous one."""
    columns = [rng.integers(0, arities[0], n)]
    for b in arities[1:]:
        follow = rng.random(n) < 0.5
        columns.append(np.where(follow, columns[-1] % b, rng.integers(0, b, n)))
    return np.stack(columns, axis=1)


def _binary():
    rng = np.random.default_rng(5)
    data = Dataset(_correlated_codes(rng, 2000, (2,) * 6))
    synopsis = PriView(float("inf"), view_width=3, strength=2, seed=1).fit(data)
    return data, synopsis


def _categorical():
    rng = np.random.default_rng(6)
    arities = (3, 2, 4, 3, 2)
    data = Dataset(_correlated_codes(rng, 2000, arities), arities)
    synopsis = PriView(float("inf"), max_cells=24, seed=1).fit(data)
    return data, synopsis


DOMAINS = {"binary": _binary, "categorical": _categorical}


@pytest.fixture(scope="module", params=sorted(DOMAINS))
def domain(request):
    data, synopsis = DOMAINS[request.param]()
    full = data.marginal(tuple(range(data.num_attributes)))
    return request.param, data, synopsis, full


def _targets(synopsis, d: int, covered: bool):
    return [
        attrs
        for k in (2, 3, 4)
        for attrs in itertools.combinations(range(d), k)
        if synopsis.is_covered(attrs) == covered
    ]


def _gap(estimate, truth) -> float:
    return float(np.abs(estimate - truth).sum()) / float(truth.sum())


def test_covered_targets_equal_the_data(domain):
    _, data, synopsis, full = domain
    targets = _targets(synopsis, data.num_attributes, covered=True)
    assert targets
    for attrs in targets:
        answer = synopsis.marginal(attrs)
        truth = full.project(attrs)
        assert answer.attrs.radix == truth.attrs.radix
        assert _gap(answer.counts, truth.counts) <= COVERED_RTOL, attrs


@pytest.mark.parametrize("method", RECONSTRUCTION_METHODS)
def test_solved_targets_meet_every_view(domain, method):
    _, data, synopsis, full = domain
    targets = _targets(synopsis, data.num_attributes, covered=False)[:8]
    assert targets
    for attrs in targets:
        answer = synopsis.marginal(attrs, method=method)
        assert answer.attrs.radix == full.project(attrs).attrs.radix
        moved = 0.0
        if method == "residual":
            moved = 2 * answer.meta["residual"]["negative_mass"] / answer.total()
        for view in synopsis.views:
            shared = tuple(a for a in attrs if a in view.attrs)
            if not shared:
                continue
            gap = _gap(answer.project(shared).counts, full.project(shared).counts)
            assert gap <= SOLVED_RTOL + moved, (attrs, shared, gap)
        if method in NON_NEGATIVE:
            assert answer.counts.min() >= -NEGATIVE_ATOL, attrs
