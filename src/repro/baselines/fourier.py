"""Adding noise in the Fourier domain — Barak et al. (paper Section 3.3).

Conventions.  For each attribute subset ``beta`` define the character
sum ``theta_beta = sum_t (-1)^{<beta, t>}`` over the dataset's tuples.
Every k-way marginal satisfies

    T_A(a) = 2**(-|A|) * sum_{beta subseteq A} (-1)^{<beta, a>} theta_beta,

i.e. the marginal is the inverse Walsh-Hadamard transform of its own
coefficient block.  Adding one tuple changes every coefficient by +-1,
so releasing the ``m = sum_{j<=k} C(d, j)`` coefficients of weight at
most ``k`` has L1 sensitivity ``m``; noise ``Lap(m/eps)`` per
coefficient gives per-marginal ESE ``m**2 * V_u`` — a factor ``2**k``
below Direct, as Section 3.3 states.

Like Direct, the coefficients a query needs are noised lazily; the
``theta`` block for attributes ``A`` is exactly the Walsh-Hadamard
transform of the true marginal over ``A``, so no 2**d work is needed.

:class:`FourierLPMethod` adds Barak et al.'s linear-programming step
(small ``d`` only): fit a non-negative full contingency table whose
coefficients are uniformly closest to the noisy ones.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.baselines.base import MarginalReleaseMechanism
from repro.core.nonnegativity import apply_nonnegativity
from repro.core.reconstruction.residual import fwht
from repro.exceptions import ReconstructionError
from repro.marginals.contingency import FullContingencyTable
from repro.marginals.dataset import Dataset
from repro.marginals.table import MarginalTable
from repro.mechanisms.laplace import laplace_variance, noisy_counts


def fourier_coefficient_count(num_attributes: int, k_max: int) -> int:
    """``m``: number of weight-<=k coefficients, 1 + C(d,1) + ... + C(d,k)."""
    return sum(math.comb(num_attributes, j) for j in range(k_max + 1))


def _coefficient_weights(arity: int) -> np.ndarray:
    """Popcount of each index 0..2**arity-1 (the coefficient weights)."""
    idx = np.arange(1 << arity, dtype=np.uint64)
    return np.bitwise_count(idx).astype(np.int64)


class FourierMethod(MarginalReleaseMechanism):
    """Noisy Fourier coefficients of weight at most ``k_max``.

    Unlike Direct, one release answers every arity up to ``k_max``.
    """

    name = "Fourier"

    def __init__(
        self,
        epsilon: float,
        k_max: int,
        nonnegativity: str = "global",
        seed: int | None = None,
    ):
        super().__init__(epsilon, seed)
        self.k_max = int(k_max)
        self.nonnegativity = nonnegativity

    def _fit(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self._m = fourier_coefficient_count(dataset.num_attributes, self.k_max)
        self._cache: dict[tuple[int, ...], MarginalTable] = {}

    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        if len(attrs) > self.k_max:
            raise ReconstructionError(
                f"Fourier released weight <= {self.k_max}; asked for {len(attrs)}-way"
            )
        if attrs not in self._cache:
            true = self._dataset.marginal(attrs)
            theta = fwht(true.counts)
            # Lazily sampled release (see Direct): give the query-time
            # draw a named scope so ledger audits can attribute it.
            with obs.budget_scope(
                f"{self.name}.lazy_release", self.epsilon, strict=False
            ):
                theta = noisy_counts(theta, self.epsilon, self._m, self._rng)
            counts = fwht(theta) / true.size
            table = MarginalTable(attrs, counts)
            apply_nonnegativity(table, self.nonnegativity)
            self._cache[attrs] = table
        return self._cache[attrs].copy()


def fourier_expected_squared_error(
    num_attributes: int, k: int, k_max: int | None = None, epsilon: float = 1.0
) -> float:
    """Per-marginal ESE of the Fourier method: ``m**2 * V_u``.

    Derivation: each of the 2**k cells is ``2**-k`` times a sum of
    2**k independent ``Lap(m/eps)`` coefficients, so per-cell variance
    is ``2**-k m**2 V_u`` and the table sums to ``m**2 V_u``.
    """
    m = fourier_coefficient_count(num_attributes, k if k_max is None else k_max)
    return float(m) ** 2 * laplace_variance(1.0 / epsilon)


class FourierLPMethod(MarginalReleaseMechanism):
    """Fourier release plus the LP cleanup of Barak et al. (small d).

    Finds a non-negative full contingency table minimising the largest
    deviation from the noisy coefficients, then answers marginals from
    that table (which makes all answers mutually consistent and
    non-negative).
    """

    name = "FourierLP"

    def __init__(self, epsilon: float, k_max: int, seed: int | None = None):
        super().__init__(epsilon, seed)
        self.k_max = int(k_max)

    def _fit(self, dataset: Dataset) -> None:
        d = dataset.num_attributes
        full = FullContingencyTable.from_dataset(dataset)
        theta = fwht(full.counts)
        weights = _coefficient_weights(d)
        released = np.flatnonzero(weights <= self.k_max)
        m = released.size
        if np.isinf(self.epsilon):
            noisy = theta[released]
        else:
            noisy = theta[released] + self._rng.laplace(
                scale=m / self.epsilon, size=m
            )
            # One shot measures all m coefficients: the call consumes
            # the full epsilon, not epsilon/m per the lazy convention.
            obs.record_draw(
                "laplace",
                epsilon=self.epsilon,
                sensitivity=m,
                scale=m / self.epsilon,
                draws=m,
                divide_by_sensitivity=False,
                label="fourier_coefficients",
            )
        self._table = FullContingencyTable(d, self._solve_lp(d, released, noisy))

    def _solve_lp(
        self, d: int, released: np.ndarray, noisy: np.ndarray
    ) -> np.ndarray:
        """min tau s.t. h >= 0, |WHT(h)[released] - noisy| <= tau.

        Solved in units of the dataset size (coefficients scaled by
        their largest magnitude) — at N ~ 1e6 the unscaled problem
        trips HiGHS's numerics.  If the solver still fails, fall back
        to the plain inverse transform with negatives clamped, which
        is the method without its LP step.
        """
        from scipy import optimize

        n = 1 << d
        # Rows of the WHT restricted to the released coefficients.
        basis = np.empty((released.size, n))
        for i, beta in enumerate(released):
            signs = np.bitwise_count(
                np.bitwise_and(np.arange(n, dtype=np.uint64), np.uint64(beta))
            ).astype(np.int64)
            basis[i] = 1.0 - 2.0 * (signs & 1)
        scale = max(1.0, float(np.abs(noisy).max()))
        cost = np.zeros(n + 1)
        cost[-1] = 1.0
        ones = np.ones((released.size, 1))
        a_ub = np.vstack(
            [np.hstack([basis, -ones]), np.hstack([-basis, -ones])]
        )
        b_ub = np.concatenate([noisy, -noisy]) / scale
        bounds = [(0.0, None)] * n + [(0.0, None)]
        result = optimize.linprog(
            cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
        )
        if result.success:
            return result.x[:n] * scale
        # Fallback: inverse transform of the noisy coefficients with
        # negatives clamped (FourierLP degenerates to Fourier).
        padded = np.zeros(n)
        padded[released] = noisy
        cells = fwht(padded) / n
        return np.maximum(cells, 0.0)

    def _marginal(self, attrs: tuple[int, ...]) -> MarginalTable:
        if len(attrs) > self.k_max:
            raise ReconstructionError(
                f"FourierLP released weight <= {self.k_max}; "
                f"asked for {len(attrs)}-way"
            )
        return self._table.marginal(attrs)
