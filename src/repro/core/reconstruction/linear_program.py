"""Linear-programming reconstruction (paper Section 4.3, "LP"/"CLP").

Following Barak et al.'s formulation: find a non-negative table whose
constraint violations are uniformly smallest,

    minimize   tau
    subject to x >= 0,  |M x - b| <= tau  (elementwise).

Unlike the other solvers this one does not require consistent views —
the paper's "LP" variant feeds it raw noisy views, while "CLP" runs it
after the consistency step (Figure 3 compares the two).
"""

from __future__ import annotations

import numpy as np

from repro.core.reconstruction.constraints import (
    MarginalConstraint,
    build_constraint_system,
)
from repro.exceptions import ReconstructionError
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable


def linear_program(
    constraints: list[MarginalConstraint],
    target_attrs,
    total: float,
) -> MarginalTable:
    """Solve the min-max-violation LP with scipy's HiGHS backend."""
    from scipy import optimize

    target = AttrSet(target_attrs)
    if not constraints:
        return MarginalTable.uniform(target, max(total, 0.0))
    matrix, rhs = build_constraint_system(constraints, target)
    n_cells = matrix.shape[1]
    n_rows = matrix.shape[0]

    # Variables: [x (n_cells), tau]; objective: tau.
    cost = np.zeros(n_cells + 1)
    cost[-1] = 1.0
    ones = np.ones((n_rows, 1))
    # M x - b <= tau  and  b - M x <= tau
    a_ub = np.vstack(
        [np.hstack([matrix, -ones]), np.hstack([-matrix, -ones])]
    )
    b_ub = np.concatenate([rhs, -rhs])
    bounds = [(0.0, None)] * n_cells + [(0.0, None)]
    result = optimize.linprog(
        cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
    )
    if not result.success:
        raise ReconstructionError(f"LP reconstruction failed: {result.message}")
    return MarginalTable(target, np.maximum(result.x[:n_cells], 0.0))
