"""Least-squares reconstruction (paper Section 4.3, "CLN").

Selects the solution of the under-determined constraint system with
the least L2 norm, subject to non-negativity.  We first try the
closed-form minimum-norm solution (pseudo-inverse); if it violates
non-negativity, we solve the bound-constrained problem

    minimize  ||x||^2 + mu * ||M x - b||^2   subject to  x >= 0

with a large penalty ``mu`` via :func:`scipy.optimize.lsq_linear`,
which enforces the marginal constraints to numerical precision while
keeping the solver robust (the exact QP and the penalty formulation
agree in the limit; tests check the constraint residual).
"""

from __future__ import annotations

import numpy as np

from repro.core.reconstruction.constraints import (
    MarginalConstraint,
    build_constraint_system,
)
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable

#: Weight of the constraint residual relative to the norm objective.
CONSTRAINT_PENALTY = 1e6


def least_squares(
    constraints: list[MarginalConstraint],
    target_attrs,
    total: float,
) -> MarginalTable:
    """Minimum-L2-norm non-negative table matching the constraints."""
    from scipy import optimize

    target = AttrSet(target_attrs)
    if not constraints:
        return MarginalTable.uniform(target, max(total, 0.0))
    matrix, rhs = build_constraint_system(constraints, target)

    # Unconstrained minimum-norm solution first: x = M^+ b.
    cells, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
    if cells.min() >= -1e-9 * max(1.0, abs(total)):
        return MarginalTable(target, np.maximum(cells, 0.0))

    scale = max(1.0, float(np.abs(rhs).max()))
    weight = np.sqrt(CONSTRAINT_PENALTY)
    stacked = np.vstack([weight * matrix / scale, np.eye(matrix.shape[1]) / scale])
    stacked_rhs = np.concatenate([weight * rhs / scale, np.zeros(matrix.shape[1])])
    result = optimize.lsq_linear(
        stacked, stacked_rhs, bounds=(0.0, np.inf), tol=1e-12
    )
    return MarginalTable(target, np.maximum(result.x, 0.0))
