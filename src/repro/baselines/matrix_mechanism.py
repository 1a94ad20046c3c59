"""The matrix mechanism (Li et al., PODS 2010) — paper Section 3.5.

The workload ``W`` is the stack of all k-way marginal cell queries over
the ``2**d`` domain.  A strategy matrix ``A`` is measured with Laplace
noise scaled to its L1 (column) sensitivity, and the workload answers
are ``W A^+ (A x + noise)``, giving expected total squared error

    err(A, W) = (2 / eps**2) * ||A||_1^2 * ||W A^+||_F^2.

Finding the optimal ``A`` is a semidefinite program that is utterly
infeasible (the paper: O(2**{3d} ...)), so — exactly like the paper —
we evaluate *approximations* by examining their strategy matrices:

* ``identity``  — measure every domain cell (the Flat strategy);
* ``workload``  — measure the workload itself (the Direct strategy);
* ``fourier``   — the weight-<=k Walsh-Hadamard rows;
* ``eigen``     — the eigen-design of Li & Miklau (PVLDB 2012):
  measure the eigenvectors of ``W^T W`` weighted by their eigenvalues.

This mechanism reports expected errors analytically (the paper plots
"the expected error variance by examining the strategy matrix") and
can also sample a concrete release for small ``d``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro import obs
from repro.baselines.base import MarginalReleaseMechanism
from repro.exceptions import ReconstructionError
from repro.marginals.contingency import FullContingencyTable
from repro.marginals.dataset import Dataset
from repro.marginals.projection import projection_map
from repro.marginals.table import MarginalTable

STRATEGIES = ("identity", "workload", "fourier", "eigen")


def marginal_workload_matrix(num_attributes: int, k: int) -> np.ndarray:
    """All k-way marginal cell queries as 0/1 rows over the 2**d domain."""
    d = num_attributes
    n = 1 << d
    rows = []
    for attrs in itertools.combinations(range(d), k):
        pmap = projection_map((2,) * d, attrs)
        block = np.zeros((1 << k, n))
        block[pmap, np.arange(n)] = 1.0
        rows.append(block)
    return np.vstack(rows)


def _fourier_strategy(num_attributes: int, k: int) -> np.ndarray:
    d = num_attributes
    n = 1 << d
    weights = np.bitwise_count(np.arange(n, dtype=np.uint64)).astype(np.int64)
    released = np.flatnonzero(weights <= k)
    rows = np.empty((released.size, n))
    for i, beta in enumerate(released):
        bits = np.bitwise_count(
            np.bitwise_and(np.arange(n, dtype=np.uint64), np.uint64(beta))
        ).astype(np.int64)
        rows[i] = 1.0 - 2.0 * (bits & 1)
    return rows


def _eigen_strategy(workload: np.ndarray) -> np.ndarray:
    """Li & Miklau's eigen-design approximation: A = diag(sqrt(lam)) V^T."""
    gram = workload.T @ workload
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    keep = eigenvalues > 1e-9 * eigenvalues.max()
    scales = np.sqrt(np.sqrt(eigenvalues[keep]))
    return (eigenvectors[:, keep] * scales).T


def strategy_matrix(
    name: str, num_attributes: int, k: int, workload: np.ndarray | None = None
) -> np.ndarray:
    """Build one of the supported strategy matrices."""
    if name == "identity":
        return np.eye(1 << num_attributes)
    if name == "workload":
        return (
            workload
            if workload is not None
            else marginal_workload_matrix(num_attributes, k)
        )
    if name == "fourier":
        return _fourier_strategy(num_attributes, k)
    if name == "eigen":
        if workload is None:
            workload = marginal_workload_matrix(num_attributes, k)
        return _eigen_strategy(workload)
    raise ReconstructionError(f"unknown strategy {name!r}; choose from {STRATEGIES}")


def expected_total_squared_error(
    workload: np.ndarray, strategy: np.ndarray, epsilon: float
) -> float:
    """(2/eps^2) * ||A||_1^2 * ||W A^+||_F^2 — summed over all queries."""
    sensitivity = float(np.abs(strategy).sum(axis=0).max())
    pinv = np.linalg.pinv(strategy)
    reconstruction = workload @ pinv
    frob2 = float((reconstruction**2).sum())
    return 2.0 / (epsilon**2) * sensitivity**2 * frob2


def expected_per_marginal_ese(
    num_attributes: int, k: int, epsilon: float, strategy: str = "eigen"
) -> float:
    """Expected ESE per k-way marginal under the given strategy."""
    workload = marginal_workload_matrix(num_attributes, k)
    a = strategy_matrix(strategy, num_attributes, k, workload)
    total = expected_total_squared_error(workload, a, epsilon)
    return total / math.comb(num_attributes, k)


class MatrixMechanism(MarginalReleaseMechanism):
    """Concrete matrix-mechanism release for small ``d``.

    Measures the chosen strategy with Laplace noise and answers each
    marginal from the least-squares domain estimate
    ``x_hat = A^+ y``.
    """

    name = "MatrixMechanism"

    def __init__(
        self,
        epsilon: float,
        k: int,
        strategy: str = "eigen",
        seed: int | None = None,
    ):
        super().__init__(epsilon, seed)
        self.k = int(k)
        self.strategy_name = strategy

    def _fit(self, dataset: Dataset) -> None:
        d = dataset.num_attributes
        workload = marginal_workload_matrix(d, self.k)
        a = strategy_matrix(self.strategy_name, d, self.k, workload)
        x = FullContingencyTable.from_dataset(dataset).counts
        sensitivity = float(np.abs(a).sum(axis=0).max())
        answers = a @ x
        if not np.isinf(self.epsilon):
            answers = answers + self._rng.laplace(
                scale=sensitivity / self.epsilon, size=answers.size
            )
            # One measurement of the whole strategy consumes the full
            # epsilon (sensitivity is already folded into the scale).
            obs.record_draw(
                "laplace",
                epsilon=self.epsilon,
                sensitivity=sensitivity,
                scale=sensitivity / self.epsilon,
                draws=int(answers.size),
                divide_by_sensitivity=False,
                label="strategy_measurement",
            )
        x_hat = np.linalg.pinv(a) @ answers
        self._table = FullContingencyTable(d, x_hat)

    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        return self._table.marginal(attrs)
