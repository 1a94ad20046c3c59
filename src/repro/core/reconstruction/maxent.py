"""Maximum-entropy reconstruction (paper Section 4.3, "CME").

Subject to a consistent family of marginal constraints, the
maximum-entropy table is the fixpoint of Iterative Proportional
Fitting (Darroch & Ratcliff 1972): start uniform, repeatedly rescale
the cells so each constrained sub-marginal matches its target.  IPF is
fast (a handful of O(cells) sweeps), always non-negative, and exactly
solves the optimisation the paper states — for binary and categorical
targets alike ("can be applied directly with non-binary categorical
attributes", Section 4.7).

A scipy dual-ascent solver (:func:`maxent_dual`) is provided as an
independent cross-check; both are exercised against each other in the
test suite.  Mirroring the paper's trick of progressively relaxing the
equality constraints when the solver struggles, :func:`maxent` falls
back to damped updates if plain IPF fails to converge (possible when
the targets are slightly inconsistent, e.g. reconstruction from raw
noisy views).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.reconstruction.constraints import MarginalConstraint
from repro.exceptions import ReconstructionError
from repro.marginals.projection import (
    constraint_matrix,
    projection_map,
    subset_positions,
)
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable

_TINY = 1e-12


def _prepare_targets(
    constraints: list[MarginalConstraint], total: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Clamp targets at zero and normalise each to the common total."""
    prepared = []
    for c in constraints:
        target = np.maximum(np.asarray(c.target, dtype=np.float64), 0.0)
        s = target.sum()
        if s <= 0:
            target = np.full(target.size, total / target.size)
        else:
            target = target * (total / s)
        prepared.append((np.asarray(c.attrs), target))
    return prepared


def _unconstrained(target: AttrSet, total: float) -> MarginalTable:
    """The max-entropy table under no constraints: uniform, trivially
    converged."""
    table = MarginalTable.uniform(target, total)
    table.meta["maxent"] = {
        "iterations": 0,
        "residual": 0.0,
        "converged": True,
        "damped": False,
    }
    return table


def maxent(
    constraints: list[MarginalConstraint],
    target_attrs,
    total: float,
    max_cycles: int = 500,
    tol: float = 1e-9,
) -> MarginalTable:
    """Max-entropy ``T_A`` matching the constraints, via IPF.

    Parameters
    ----------
    constraints:
        Marginal constraints over subsets of ``target_attrs``.
    target_attrs:
        The attribute set ``A`` to reconstruct.
    total:
        The common total count ``N_V`` (from any consistent view).
    max_cycles:
        Full sweeps over the constraint list before declaring
        non-convergence; a damped second attempt then runs.
    tol:
        Convergence threshold on the relative L1 mismatch per sweep.

    Returns
    -------
    MarginalTable
        Non-negative table over ``target_attrs`` summing to ``total``,
        with the convergence record (iterations, final residual,
        whether the damped fallback ran) in ``table.meta["maxent"]``.
    """
    target = AttrSet(target_attrs)
    total = max(float(total), _TINY)
    if not constraints:
        return _unconstrained(target, total)

    prepared = []
    for attrs_arr, tgt in _prepare_targets(constraints, total):
        positions = subset_positions(target, tuple(int(a) for a in attrs_arr))
        pmap = projection_map(target.radix, positions)
        prepared.append((pmap, tgt))

    cells = np.full(target.size, total / target.size)
    mismatch, cycles = _ipf_sweeps(
        cells, prepared, total, max_cycles, tol, damping=1.0
    )
    damped = mismatch > tol
    if damped:
        # Progressive relaxation: damped multiplicative updates converge
        # to a compromise when the targets are (slightly) inconsistent.
        mismatch, extra = _ipf_sweeps(
            cells, prepared, total, max_cycles, tol, damping=0.5
        )
        cycles += extra
    obs.incr("maxent.calls")
    obs.incr("maxent.sweeps", cycles)
    obs.set_gauge("maxent.last_residual", mismatch)
    table = MarginalTable(target, cells)
    table.meta["maxent"] = {
        "iterations": cycles,
        "residual": mismatch,
        "converged": mismatch <= tol,
        "damped": damped,
    }
    return table


def _ipf_sweeps(
    cells: np.ndarray,
    prepared: list[tuple[np.ndarray, np.ndarray]],
    total: float,
    max_cycles: int,
    tol: float,
    damping: float,
) -> tuple[float, int]:
    """Run IPF sweeps in place; returns (final relative mismatch, sweeps)."""
    mismatch = np.inf
    cycles = 0
    for _ in range(max_cycles):
        cycles += 1
        mismatch = 0.0
        for pmap, tgt in prepared:
            current = np.bincount(pmap, weights=cells, minlength=tgt.size)
            mismatch += float(np.abs(current - tgt).sum())
            factor = tgt / np.maximum(current, _TINY)
            # Cells feeding an unreachable positive target stay at zero:
            # where current is ~0 but the target is positive, the factor
            # blows up without moving mass, so cap it.
            np.clip(factor, 0.0, 1e12, out=factor)
            if damping != 1.0:
                factor = factor**damping
            cells *= factor[pmap]
        mismatch /= total
        if mismatch < tol:
            break
    return mismatch, cycles


def maxent_batch(
    constraint_lists: list[list[MarginalConstraint]],
    target_attrs_list,
    total: float,
    max_cycles: int = 500,
    tol: float = 1e-9,
) -> list[MarginalTable]:
    """Stacked IPF: fit many targets with vectorised sweeps.

    The aggregate-then-adjust idiom: targets are grouped by their
    arity tuple (``target.radix``), and within a group constraints
    sharing the same *position signature* (which attribute positions of
    the target they pin) share one projection
    map — each sweep then applies every such signature to all of its
    rows at once through a single dense matmul + gather, instead of one
    bincount per query per constraint.  Each row still converges to
    its own max-entropy table; per-row mismatches decide convergence
    and the damped fallback re-runs only the rows that need it.

    A group sweeps until its slowest row converges and its rows share
    ``iterations``, so a stacked row agrees with per-query
    :func:`maxent` up to solver tolerance only.  A target alone in its
    shape is solved by :func:`maxent` itself, which makes a batch of
    one bit-identical to the single solve.  Results (and
    ``meta["maxent"]``) align with the input order.
    """
    if len(constraint_lists) != len(target_attrs_list):
        raise ReconstructionError(
            f"{len(constraint_lists)} constraint lists for "
            f"{len(target_attrs_list)} targets"
        )
    targets = [AttrSet(attrs) for attrs in target_attrs_list]
    total = max(float(total), _TINY)
    out: list[MarginalTable | None] = [None] * len(targets)

    by_radix: dict[tuple[int, ...], list[int]] = {}
    for i, target in enumerate(targets):
        if not constraint_lists[i]:
            out[i] = _unconstrained(target, total)
            continue
        by_radix.setdefault(target.radix, []).append(i)

    for radix, indices in by_radix.items():
        if len(indices) == 1:
            # Alone in its shape: the single solve, so the answer does
            # not depend on what else the batch holds.
            (i,) = indices
            out[i] = maxent(
                constraint_lists[i], targets[i], total, max_cycles, tol
            )
            continue
        size = targets[indices[0]].size
        cells = np.full((len(indices), size), total / size)
        # positions signature -> (row indices, stacked prepared targets)
        by_positions: dict[tuple[int, ...], tuple[list[int], list[np.ndarray]]] = {}
        for row, i in enumerate(indices):
            for attrs_arr, tgt in _prepare_targets(constraint_lists[i], total):
                positions = subset_positions(
                    targets[i], tuple(int(a) for a in attrs_arr)
                )
                rows, tgts = by_positions.setdefault(positions, ([], []))
                rows.append(row)
                tgts.append(tgt)
        # Largest constraints first, mirroring extract_constraints'
        # ordering for the per-query solver.
        groups = [
            (np.asarray(rows), np.vstack(tgts),
             projection_map(radix, positions),
             constraint_matrix(radix, positions))
            for positions, (rows, tgts) in sorted(
                by_positions.items(), key=lambda kv: (-len(kv[0]), kv[0])
            )
        ]
        mismatch, cycles = _ipf_sweeps_grouped(
            cells, groups, total, max_cycles, tol, damping=1.0
        )
        damped = mismatch > tol
        if damped.any():
            # Re-run only the unconverged rows with damped updates.
            stale = np.flatnonzero(damped)
            index_of = {row: slot for slot, row in enumerate(stale)}
            sub_groups = []
            for rows, tgts, pmap, matrix in groups:
                keep = np.isin(rows, stale)
                if keep.any():
                    sub_groups.append((
                        np.asarray([index_of[r] for r in rows[keep]]),
                        tgts[keep], pmap, matrix,
                    ))
            sub_cells = cells[stale]
            sub_mismatch, extra = _ipf_sweeps_grouped(
                sub_cells, sub_groups, total, max_cycles, tol, damping=0.5
            )
            cells[stale] = sub_cells
            mismatch[stale] = sub_mismatch
            cycles += extra
        obs.incr("maxent.calls", len(indices))
        obs.incr("maxent.sweeps", cycles)
        for row, i in enumerate(indices):
            table = MarginalTable(targets[i], cells[row])
            table.meta["maxent"] = {
                "iterations": cycles,
                "residual": float(mismatch[row]),
                "converged": bool(mismatch[row] <= tol),
                "damped": bool(damped[row]),
            }
            out[i] = table
    return out  # type: ignore[return-value]


def _ipf_sweeps_grouped(
    cells: np.ndarray,
    groups: list,
    total: float,
    max_cycles: int,
    tol: float,
    damping: float,
) -> tuple[np.ndarray, int]:
    """Vectorised IPF sweeps over an ``(n, cells)`` row stack, in place.

    ``groups`` holds ``(rows, targets, pmap, matrix)`` per position
    signature; returns ``(relative mismatch per row, sweeps run)``.
    """
    n = cells.shape[0]
    mismatch = np.full(n, np.inf)
    cycles = 0
    for _ in range(max_cycles):
        cycles += 1
        mismatch = np.zeros(n)
        for rows, tgts, pmap, matrix in groups:
            # current[r] = sub-marginal of row r under this signature —
            # the dense matmul equivalent of a per-row bincount.
            current = cells[rows] @ matrix.T
            np.add.at(
                mismatch, rows, np.abs(current - tgts).sum(axis=-1)
            )
            factor = tgts / np.maximum(current, _TINY)
            np.clip(factor, 0.0, 1e12, out=factor)
            if damping != 1.0:
                factor = factor**damping
            cells[rows] *= factor[:, pmap]
        mismatch /= total
        if (mismatch < tol).all():
            break
    return mismatch, cycles


def maxent_dual(
    constraints: list[MarginalConstraint],
    target_attrs,
    total: float,
) -> MarginalTable:
    """Max-entropy via the Lagrangian dual, solved with scipy L-BFGS.

    Solves the same optimisation as :func:`maxent` through the
    exponential-family parameterisation ``p ∝ exp(M^T lambda)``; used
    as an independent cross-check of the IPF solver.
    """
    from scipy import optimize

    from repro.core.reconstruction.constraints import build_constraint_system

    target = AttrSet(target_attrs)
    total = max(float(total), _TINY)
    if not constraints:
        return _unconstrained(target, total)
    matrix, rhs = build_constraint_system(constraints, target)
    rhs = np.maximum(rhs, 0.0)
    # Work with probabilities: b are target probabilities per row.
    row_attr_size = rhs / total

    def objective(lam: np.ndarray) -> tuple[float, np.ndarray]:
        theta = matrix.T @ lam
        shift = theta.max()
        weights = np.exp(theta - shift)
        partition = weights.sum()
        p = weights / partition
        value = float(np.log(partition) + shift - lam @ row_attr_size)
        grad = matrix @ p - row_attr_size
        return value, grad

    lam0 = np.zeros(matrix.shape[0])
    result = optimize.minimize(
        objective, lam0, jac=True, method="L-BFGS-B",
        # scipy's ftol is relative; the defaults stop far from the
        # constraint-satisfying optimum, so push all tolerances down
        # and give L-BFGS more curvature memory.
        options={"maxiter": 50_000, "ftol": 1e-18, "gtol": 1e-12, "maxcor": 50},
    )
    if not np.isfinite(result.fun):
        raise ReconstructionError("dual max-entropy solver diverged")
    theta = matrix.T @ result.x
    theta -= theta.max()
    weights = np.exp(theta)
    cells = total * weights / weights.sum()
    obs.incr("maxent_dual.calls")
    obs.incr("maxent_dual.iterations", int(result.nit))
    table = MarginalTable(target, cells)
    table.meta["maxent"] = {
        "iterations": int(result.nit),
        "residual": float(np.abs(np.asarray(result.jac)).max()),
        "converged": bool(result.success),
        "damped": False,
    }
    return table
