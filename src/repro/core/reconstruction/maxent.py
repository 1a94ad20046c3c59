"""Maximum-entropy reconstruction (paper Section 4.3, "CME").

Subject to a consistent family of marginal constraints, the
maximum-entropy table is the fixpoint of Iterative Proportional
Fitting (Darroch & Ratcliff 1972): start uniform, repeatedly rescale
the cells so each constrained sub-marginal matches its target.  IPF is
fast (a handful of O(cells) sweeps), always non-negative, and exactly
solves the optimisation the paper states — for binary and categorical
targets alike ("can be applied directly with non-binary categorical
attributes", Section 4.7).  Each target is its own IPF problem: a
workload runs :func:`maxent` once per target, so an answer and its
convergence record never depend on what else was asked.

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
from repro.marginals.projection import projection_map, subset_positions
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
