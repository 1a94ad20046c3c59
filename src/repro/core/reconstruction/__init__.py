"""Reconstruction of k-way marginals from view marginals (Section 4.3).

:func:`reconstruct` is the front door.  When some view fully covers the
target attributes the answer is a straight projection; otherwise the
requested solver combines the views' partial information:

* ``maxent`` — maximum entropy via IPF (the paper's choice, "CME");
* ``maxent-dual`` — same optimisation through the scipy dual solver;
* ``residual`` — closed-form ReM pseudo-marginal reconstruction with
  local non-negativity (Mullins et al.), no iterative fitting, on the
  contrast basis that overall consistency averages in;
* ``lsq`` — least-L2-norm solution ("CLN");
* ``lp`` — min-max-violation linear program ("LP"/"CLP").

:func:`reconstruct_batch` answers a whole workload of targets at once,
and :func:`reconstruct` is a batch of one.  ``residual`` targets of one
shape share the coefficient assembly and one vectorised simplex
projection; every other method solves one target at a time.  Each
answer, with its ``meta``, is bit-identical to the target's single
solve, so it never depends on the rest of the batch.

Views and targets may be binary or categorical: a target takes its
arities from the views (:func:`resolve_target`), and every solver
works over any mixed-radix table.

Degenerate bases are handled here, before any solver runs: the empty
attribute set is always the single-cell total (its residual basis is
just the total's block), and the full-domain set flows through the
solvers unchanged (every view is its own constraint).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.reconstruction.constraints import (
    MarginalConstraint,
    build_constraint_system,
    covering_view,
    extract_constraints,
    resolve_target,
)
from repro.core.reconstruction.least_squares import least_squares
from repro.core.reconstruction.linear_program import linear_program
from repro.core.reconstruction.maxent import maxent, maxent_dual
from repro.core.reconstruction.residual import (
    ResidualIndex,
    fwht,
    project_to_simplex,
    residual,
    residual_batch,
)
from repro.exceptions import ReconstructionError
from repro.marginals.table import MarginalTable

def _each(solver):
    """A batch solver that runs ``solver`` once per target, for methods
    without a stacked implementation."""

    def solve(constraint_lists, targets, total):
        return [solver(c, t, total) for c, t in zip(constraint_lists, targets)]

    return solve


#: method -> batch solver ``(constraint_lists, targets, total) -> tables``
_SOLVERS = {
    "maxent": _each(maxent),
    "maxent-dual": _each(maxent_dual),
    "residual": residual_batch,
    "lsq": _each(least_squares),
    "lp": _each(linear_program),
}

RECONSTRUCTION_METHODS = tuple(_SOLVERS)


def reconstruct(
    views: list[MarginalTable],
    target_attrs,
    method: str = "maxent",
    use_covering_view: bool = True,
    total: float | None = None,
) -> MarginalTable:
    """Reconstruct the marginal over ``target_attrs`` from view tables.

    A batch of one: ``reconstruct_batch(views, [target_attrs], ...)[0]``.

    Parameters
    ----------
    views:
        View marginals (mutually consistent for every method but
        ``lp``, which also accepts raw views).
    target_attrs:
        Attribute set ``A`` of the desired k-way marginal.  Its
        arities come from the views; an ``AttrSet`` carrying arities
        that disagree with a view raises :class:`DimensionError`.
    method:
        One of :data:`RECONSTRUCTION_METHODS`.
    use_covering_view:
        When True (default) and a view contains ``A``, return its
        projection directly — the trivial case of Section 4.3.
    total:
        The common total count ``N_V``.  Defaults to the mean of the
        view totals; long-lived callers (the serving engine) pass it
        in to avoid re-summing every view per query.
    """
    return reconstruct_batch(
        views, [target_attrs], method, use_covering_view, total
    )[0]


def reconstruct_batch(
    views: list[MarginalTable],
    target_attrs_list,
    method: str = "maxent",
    use_covering_view: bool = True,
    total: float | None = None,
) -> list[MarginalTable]:
    """Reconstruct a whole workload of targets; parameters as
    :func:`reconstruct`.

    The empty set answers with the single-cell total (its residual
    basis is just the total's block, so no solver runs) and covered
    targets (when ``use_covering_view``) by projection.  The rest
    share one call into the method's batch solver
    (:func:`residual_batch`, a per-target loop for the other methods).
    Every table and its ``meta`` equal the target's single solve bit
    for bit, whatever else the workload holds.  Results align with the
    input order.
    """
    if method not in _SOLVERS:
        raise ReconstructionError(
            f"unknown reconstruction method {method!r}; "
            f"choose from {RECONSTRUCTION_METHODS}"
        )
    targets = [resolve_target(views, attrs) for attrs in target_attrs_list]
    if total is None:
        total = sum(v.total() for v in views) / len(views) if views else 0.0
    total = float(total)
    out: list[MarginalTable | None] = [None] * len(targets)

    solve_indices: list[int] = []
    with obs.span("reconstruct"):
        for i, target in enumerate(targets):
            if not target:
                obs.incr("reconstruct.empty_target")
                out[i] = MarginalTable((), np.array([max(total, 0.0)]))
                continue
            if use_covering_view:
                cover = covering_view(views, target)
                if cover is not None:
                    obs.incr("reconstruct.covered")
                    out[i] = cover.project(target)
                    continue
            solve_indices.append(i)
        if solve_indices:
            obs.incr(f"reconstruct.{method}", len(solve_indices))
            keep_maximal = method != "lp"
            constraint_lists = [
                extract_constraints(
                    views, targets[i], keep_maximal_only=keep_maximal
                )
                for i in solve_indices
            ]
            tables = _SOLVERS[method](
                constraint_lists, [targets[i] for i in solve_indices], total
            )
            for i, table in zip(solve_indices, tables):
                out[i] = table
    return out  # type: ignore[return-value]


__all__ = [
    "MarginalConstraint",
    "RECONSTRUCTION_METHODS",
    "ResidualIndex",
    "build_constraint_system",
    "covering_view",
    "extract_constraints",
    "fwht",
    "least_squares",
    "linear_program",
    "maxent",
    "maxent_dual",
    "project_to_simplex",
    "reconstruct",
    "reconstruct_batch",
    "residual",
    "residual_batch",
    "resolve_target",
]
