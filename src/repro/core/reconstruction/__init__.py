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

:func:`reconstruct_batch` answers a whole workload of targets at once:
``residual`` targets of one shape share one stacked transform and
``maxent`` targets share vectorised IPF sweeps, so a serving batch of
uncovered queries costs one solve instead of N.

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
from repro.core.reconstruction.maxent import maxent, maxent_batch, maxent_dual
from repro.core.reconstruction.residual import (
    ResidualIndex,
    fwht,
    project_to_simplex,
    residual,
    residual_batch,
)
from repro.exceptions import ReconstructionError
from repro.marginals.table import MarginalTable

_SOLVERS = {
    "maxent": maxent,
    "maxent-dual": maxent_dual,
    "residual": residual,
    "lsq": least_squares,
    "lp": linear_program,
}

#: solvers with a dedicated stacked implementation; everything else
#: falls back to a per-target loop inside :func:`reconstruct_batch`.
_BATCH_SOLVERS = {
    "maxent": maxent_batch,
    "residual": residual_batch,
}

RECONSTRUCTION_METHODS = tuple(_SOLVERS)


def _check_method(method: str) -> None:
    if method not in _SOLVERS:
        raise ReconstructionError(
            f"unknown reconstruction method {method!r}; "
            f"choose from {RECONSTRUCTION_METHODS}"
        )


def _mean_total(views: list[MarginalTable]) -> float:
    return float(sum(v.total() for v in views) / len(views)) if views else 0.0


def _empty_target_table(total: float) -> MarginalTable:
    """The 0-way marginal: one cell holding the (non-negative) total."""
    return MarginalTable((), np.array([max(float(total), 0.0)]))


def reconstruct(
    views: list[MarginalTable],
    target_attrs,
    method: str = "maxent",
    use_covering_view: bool = True,
    total: float | None = None,
) -> MarginalTable:
    """Reconstruct the marginal over ``target_attrs`` from view tables.

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
    _check_method(method)
    target = resolve_target(views, target_attrs)
    with obs.span("reconstruct"):
        if not target:
            # Degenerate residual basis: no solver can (or should) run.
            obs.incr("reconstruct.empty_target")
            return _empty_target_table(
                total if total is not None else _mean_total(views)
            )
        if use_covering_view:
            cover = covering_view(views, target)
            if cover is not None:
                obs.incr("reconstruct.covered")
                return cover.project(target)
        obs.incr(f"reconstruct.{method}")
        keep_maximal = method != "lp"
        constraints = extract_constraints(
            views, target, keep_maximal_only=keep_maximal
        )
        if total is None:
            total = _mean_total(views)
        return _SOLVERS[method](constraints, target, float(total))


def reconstruct_batch(
    views: list[MarginalTable],
    target_attrs_list,
    method: str = "maxent",
    use_covering_view: bool = True,
    total: float | None = None,
) -> list[MarginalTable]:
    """Reconstruct a whole workload of targets in one stacked solve.

    Covered targets (when ``use_covering_view``) and the empty set are
    answered by projection; the rest share one call into the method's
    batch solver (:func:`residual_batch` / :func:`maxent_batch`), or a
    per-target loop for methods without a stacked implementation.
    Results align with the input order.
    """
    _check_method(method)
    targets = [resolve_target(views, attrs) for attrs in target_attrs_list]
    if total is None:
        total = _mean_total(views)
    total = float(total)
    out: list[MarginalTable | None] = [None] * len(targets)

    solve_indices: list[int] = []
    with obs.span("reconstruct.batch"):
        for i, target in enumerate(targets):
            if not target:
                obs.incr("reconstruct.empty_target")
                out[i] = _empty_target_table(total)
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
            solver = _BATCH_SOLVERS.get(method)
            if solver is not None:
                tables = solver(
                    constraint_lists, [targets[i] for i in solve_indices], total
                )
            else:
                tables = [
                    _SOLVERS[method](constraints, targets[i], total)
                    for constraints, i in zip(constraint_lists, solve_indices)
                ]
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
    "maxent_batch",
    "maxent_dual",
    "project_to_simplex",
    "reconstruct",
    "reconstruct_batch",
    "residual",
    "residual_batch",
    "resolve_target",
]
