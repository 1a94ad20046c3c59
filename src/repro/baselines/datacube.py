"""Differentially private data cubes (Ding et al., SIGMOD 2011) —
paper Section 3.4.

The method organises all ``2**d`` marginals ("cuboids") in the subset
lattice and greedily selects which to publish so that every query
marginal is covered and the worst-case expected error is minimised;
published cuboids are then made consistent.  Both phases are
polynomial in ``2**d``, which is why the paper only runs it at d=9 —
and why, for low-dimensional *binary* data, the selection provably
gravitates to the top of the lattice (the full contingency table,
i.e. the Flat method), as Section 3.4 notes.

We implement the selection greedy over the lattice with the standard
cost model: answering query ``A`` from a published superset ``V``
(with ``|S|`` cuboids sharing the budget) costs
``2**|V| * |S|**2 * V_u``; a query not covered is infinitely costly.
"""

from __future__ import annotations

import itertools

from repro.baselines.base import MarginalReleaseMechanism
from repro.exceptions import DimensionError
from repro.marginals.dataset import Dataset
from repro.marginals.queries import all_attribute_subsets
from repro.marginals.table import MarginalTable
from repro.mechanisms.laplace import noisy_marginal

#: Lattice enumeration is Theta(2**d); refuse beyond this.
MAX_LATTICE_DIMENSIONS = 14


def select_cuboids(num_attributes: int, k: int) -> list[tuple[int, ...]]:
    """Greedy lattice selection minimising the worst query cost.

    Starts from the query marginals themselves and repeatedly replaces
    the current selection by a single-ancestor merge whenever that
    lowers the worst-case cost; for binary data this walks to the full
    set whenever ``2**d < 2**k * m**2`` — reproducing the paper's
    observation that the method reduces to Flat at d=9.
    """
    if num_attributes > MAX_LATTICE_DIMENSIONS:
        raise DimensionError(
            f"data-cube selection enumerates a 2**{num_attributes} lattice; "
            f"limit is d={MAX_LATTICE_DIMENSIONS}"
        )
    queries = all_attribute_subsets(num_attributes, k)

    def worst_cost(selection: list[tuple[int, ...]]) -> float:
        w = len(selection)
        worst = 0.0
        for q in queries:
            qset = set(q)
            costs = [
                2.0 ** len(v) for v in selection if qset.issubset(v)
            ]
            if not costs:
                return float("inf")
            worst = max(worst, min(costs) * w * w)
        return worst

    current = list(queries)
    current_cost = worst_cost(current)
    improved = True
    while improved:
        improved = False
        # Candidate moves: merge the whole selection one level up by
        # taking unions of pairs, or collapse to the top cuboid.
        top = [tuple(range(num_attributes))]
        for candidate in (top, _pairwise_merge(current, num_attributes)):
            cost = worst_cost(candidate)
            if cost < current_cost:
                current, current_cost = candidate, cost
                improved = True
                break
    return sorted(set(current))


def _pairwise_merge(
    selection: list[tuple[int, ...]], num_attributes: int
) -> list[tuple[int, ...]]:
    """Merge the two most-overlapping cuboids into their union."""
    if len(selection) < 2:
        return selection
    best_pair = None
    best_overlap = -1
    for a, b in itertools.combinations(range(len(selection)), 2):
        overlap = len(set(selection[a]) & set(selection[b]))
        if overlap > best_overlap:
            best_overlap = overlap
            best_pair = (a, b)
    a, b = best_pair
    union = tuple(sorted(set(selection[a]) | set(selection[b])))
    merged = [s for i, s in enumerate(selection) if i not in (a, b)]
    merged.append(union)
    return sorted(set(merged))


class DataCubeMethod(MarginalReleaseMechanism):
    """Publish greedily selected cuboids; answer queries from covers."""

    name = "DataCube"

    def __init__(self, epsilon: float, k: int, seed: int | None = None):
        super().__init__(epsilon, seed)
        self.k = int(k)

    def _fit(self, dataset: Dataset) -> None:
        selection = select_cuboids(dataset.num_attributes, self.k)
        w = len(selection)
        self._cuboids = [
            noisy_marginal(
                dataset.marginal(attrs), self.epsilon, sensitivity=w, rng=self._rng
            )
            for attrs in selection
        ]

    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        target = set(attrs)
        candidates = [
            c for c in self._cuboids if target.issubset(c.attrs)
        ]
        if not candidates:
            raise DimensionError(f"no published cuboid covers {tuple(attrs)}")
        best = min(candidates, key=lambda c: c.arity)
        return best.project(tuple(attrs))
