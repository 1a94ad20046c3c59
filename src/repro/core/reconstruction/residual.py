"""Residual-basis (pseudo-marginal) reconstruction with local
non-negativity — the ReM method of Mullins et al., *Efficient and
Private Marginal Reconstruction with Local Non-Negativity*.

Binary marginals diagonalise in the Walsh–Hadamard ("residual") basis
(this solver is binary-only; categorical tables raise
:class:`~repro.exceptions.DimensionError`):
for a target table ``T_A`` over ``k`` attributes, coefficient
``theta_m = sum_x (-1)^{popcount(m & x)} T_A[x]``, and the marginal of
``T_A`` over a subset ``B`` determines exactly the coefficients whose
mask is supported on ``B``'s bit positions.  Reconstruction from view
marginals is therefore closed form:

1. transform each constraint's target marginal (one fast WHT each),
2. scatter the resulting coefficients onto the target's masks —
   averaging where several views determine the same coefficient, which
   for mutually consistent views is a no-op and for raw noisy views is
   the least-squares combination,
3. zero every undetermined coefficient (the minimum-L2-norm /
   pseudo-marginal completion, paper Section 3),
4. invert with one fast WHT and project the cells onto the scaled
   simplex ``{x >= 0, sum(x) = total}`` — the paper's *local*
   non-negativity: exact, per-query, no global fitting.

Unlike iterative proportional fitting this costs ``O(k 2**k)`` per
query with no convergence loop, and a whole batch of same-arity
queries is one stacked transform (:func:`residual_batch`).

:class:`ResidualIndex` goes one step further for long-lived view sets:
it transforms every view *once* at construction and stores one scalar
coefficient per determined attribute subset, so a solve is ``2**k``
dictionary lookups, one inverse transform and one projection — no
per-query constraint extraction at all.  The serving engine holds one
per synopsis and answers both single solved-path queries and whole
``/v1/batch`` workloads through it.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from repro import obs
from repro.core.reconstruction.constraints import MarginalConstraint
from repro.exceptions import DimensionError, ReconstructionError
from repro.marginals.attrs import AttrSet
from repro.marginals.projection import embedding_masks, subset_positions
from repro.marginals.table import MarginalTable

_TINY = 1e-12


def _require_binary(attrs: AttrSet, what: str) -> None:
    """The Walsh–Hadamard basis is binary: refuse categorical tables."""
    if not attrs.is_binary:
        raise DimensionError(
            f"residual reconstruction is binary-only; {what} {attrs!r} "
            "has non-binary attributes (use maxent, maxent-dual, lsq or lp)"
        )


#: Below this length the transform is one dense matmul against a cached
#: Hadamard matrix (BLAS beats the Python butterfly loop by an order of
#: magnitude on marginal-sized arrays); above it, the O(n log n)
#: butterflies win on arithmetic.
_MATMUL_MAX = 256


@functools.lru_cache(maxsize=16)
def _hadamard(n: int) -> np.ndarray:
    """The dense Sylvester-ordered n-by-n Hadamard matrix, read-only."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def fwht(values: np.ndarray) -> np.ndarray:
    """Fast Walsh–Hadamard transform along the last axis (a copy).

    Uses the Sylvester ordering: ``out[m] = sum_x (-1)^{popcount(m & x)}
    values[x]``.  The transform is its own inverse up to a factor of
    ``n``: ``fwht(fwht(a)) == n * a``.  Works on any leading batch
    shape, so a stack of tables transforms in one call.
    """
    n = np.shape(values)[-1] if np.ndim(values) else 0
    if n == 0 or n & (n - 1):
        raise ReconstructionError(
            f"fwht needs a power-of-two axis, got length {n}"
        )
    if n <= _MATMUL_MAX:
        # H is symmetric, so values @ H == (H @ values.T).T.
        return np.asarray(values, dtype=np.float64) @ _hadamard(n)
    out = np.array(values, dtype=np.float64)
    flat = out.reshape(-1, n)
    h = 1
    while h < n:
        view = flat.reshape(flat.shape[0], n // (2 * h), 2, h)
        top = view[:, :, 0, :].copy()
        bot = view[:, :, 1, :].copy()
        view[:, :, 0, :] = top + bot
        view[:, :, 1, :] = top - bot
        h *= 2
    return out


@functools.lru_cache(maxsize=32)
def _ladder(m: int) -> np.ndarray:
    """``[1.0 .. m]``, the water-filling divisors, read-only."""
    ladder = np.arange(1, m + 1, dtype=np.float64)
    ladder.setflags(write=False)
    return ladder


def project_to_simplex(cells: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of each row onto ``{x >= 0, sum = total}``.

    The exact local non-negativity step: sort, find the largest prefix
    whose water level stays below its smallest member, subtract the
    level, clip.  Rows that are already feasible come back unchanged
    (up to exact float identity — ``tau`` is then non-positive only
    when some slack exists, so feasible rows take the fast path).
    ``total`` is clamped at zero; a non-positive total projects to the
    all-zero table.
    """
    cells = np.atleast_2d(np.asarray(cells, dtype=np.float64))
    total = max(float(total), 0.0)
    feasible = (cells.min(axis=-1) >= 0.0) & (
        np.abs(cells.sum(axis=-1) - total) <= 1e-9 + 1e-12 * total
    )
    if feasible.all():
        return cells.copy()
    # Solved-path answers almost always need projecting, so the
    # all-infeasible case skips the masked copies and projects in
    # place of the input rows.
    some_feasible = feasible.any()
    bad = cells[~feasible] if some_feasible else cells
    fixed = _project_rows(bad, total)
    if not some_feasible:
        return fixed
    out = cells.copy()
    out[~feasible] = fixed
    return out


def _project_rows(bad: np.ndarray, total: float) -> np.ndarray:
    """The water-filling core: project known-infeasible rows."""
    m = bad.shape[-1]
    ranked = np.sort(bad, axis=-1)[:, ::-1]
    prefix = np.cumsum(ranked, axis=-1) - total
    support = ranked - prefix / _ladder(m) > 0
    # rho: size of the optimal support (last index where the water
    # level stays below the sorted value); at least 1 by construction.
    rho = np.maximum(support.sum(axis=-1), 1)
    tau = prefix[np.arange(bad.shape[0]), rho - 1] / rho
    return np.maximum(bad - tau[:, None], 0.0)


def _coefficients(
    constraints: list[MarginalConstraint],
    target: AttrSet,
    total: float,
) -> tuple[np.ndarray, int]:
    """Assemble the determined residual coefficients of ``T_target``.

    Returns ``(theta, determined)`` where ``theta`` has one slot per
    mask (zero where no constraint reaches) and ``determined`` counts
    the pinned coefficients including ``theta[0] = total``.
    """
    k = len(target)
    size = 1 << k
    theta_sum = np.zeros(size)
    theta_cnt = np.zeros(size, dtype=np.int64)
    for c in constraints:
        marginal = np.asarray(c.target, dtype=np.float64)
        s = marginal.sum()
        if s > _TINY and abs(s - total) > 1e-9 * max(1.0, abs(total)):
            # Normalise each constraint to the common total so views
            # whose totals drifted (raw noisy inputs) stay comparable.
            marginal = marginal * (total / s)
        phi = fwht(marginal)
        masks = embedding_masks(k, subset_positions(target, c.attrs))
        # Masks are distinct within one constraint, so plain fancy
        # indexing accumulates correctly.
        theta_sum[masks] += phi
        theta_cnt[masks] += 1
    determined = theta_cnt > 0
    theta = np.zeros(size)
    np.divide(theta_sum, theta_cnt, out=theta, where=determined)
    theta[0] = total
    if not np.all(np.isfinite(theta)):
        raise ReconstructionError(
            "residual reconstruction hit non-finite coefficients "
            f"for target {tuple(target)} (NaN/inf in a view marginal?)"
        )
    return theta, max(int(determined.sum()), 1)


def residual(
    constraints: list[MarginalConstraint],
    target_attrs,
    total: float,
) -> MarginalTable:
    """Closed-form pseudo-marginal table matching the constraints.

    Parameters mirror :func:`~repro.core.reconstruction.maxent.maxent`;
    the result is non-negative, sums to ``max(total, 0)``, and carries
    its provenance in ``table.meta["residual"]`` — coefficient counts,
    the negative mass removed by the simplex projection, and whether
    the projection had to move anything at all.

    Degenerate bases are explicit: the empty attribute set is the
    single-cell total (no solve), and an all-zero / negative total
    yields the zero table rather than a division blow-up.
    """
    tables = residual_batch([constraints], [target_attrs], total)
    return tables[0]


def residual_batch(
    constraint_lists: list[list[MarginalConstraint]],
    target_attrs_list,
    total: float,
) -> list[MarginalTable]:
    """Stacked residual solve: many targets, one transform per arity.

    Targets are grouped by arity ``k``; each group's coefficient
    vectors stack into an ``(n, 2**k)`` matrix inverted by a single
    batched WHT and one vectorised simplex projection, so a serving
    batch of uncovered queries costs one solve instead of ``n``.
    Results align with the input order.  All targets share ``total``
    (the synopsis's common ``N_V``).
    """
    if len(constraint_lists) != len(target_attrs_list):
        raise ReconstructionError(
            f"{len(constraint_lists)} constraint lists for "
            f"{len(target_attrs_list)} targets"
        )
    targets = [AttrSet(attrs) for attrs in target_attrs_list]
    total = float(total)
    out: list[MarginalTable | None] = [None] * len(targets)

    by_arity: dict[int, list[int]] = {}
    for i, target in enumerate(targets):
        _require_binary(target, "target")
        if not target:
            out[i] = _empty_table(total)
            continue
        by_arity.setdefault(len(target), []).append(i)

    for k, indices in by_arity.items():
        size = 1 << k
        theta = np.empty((len(indices), size))
        determined = np.empty(len(indices), dtype=np.int64)
        for row, i in enumerate(indices):
            theta[row], determined[row] = _coefficients(
                constraint_lists[i], targets[i], total
            )
        tables = _invert_theta(
            theta, determined, [targets[i] for i in indices], total
        )
        for i, table in zip(indices, tables):
            out[i] = table
    return out  # type: ignore[return-value]


def _empty_table(total: float) -> MarginalTable:
    """The 0-way answer: only ``theta_0`` exists, and it *is* the
    answer — the degenerate residual basis."""
    table = MarginalTable((), np.array([max(total, 0.0)]))
    table.meta["residual"] = {
        "determined": 1, "coefficients": 1,
        "negative_mass": 0.0, "projected": False,
    }
    return table


def _invert_theta(
    theta: np.ndarray,
    determined: np.ndarray,
    group_targets: list[AttrSet],
    total: float,
) -> list[MarginalTable]:
    """Invert stacked same-arity coefficient rows into final tables:
    one batched transform, one vectorised simplex projection.

    Feasibility here reduces to non-negativity: each row's cell sum is
    its DC coefficient ``theta[0] = total`` by the transform identity,
    so a row needs projecting exactly when it carries negative mass
    (a negative ``total`` forces negative cells and projects to zero,
    matching :func:`project_to_simplex`'s clamp).
    """
    size = theta.shape[-1]
    cells = fwht(theta) / size
    negative_mass = -np.minimum(cells, 0.0).sum(axis=-1)
    needs = negative_mass > 0.0
    if needs.any():
        if needs.all():
            projected = _project_rows(cells, max(total, 0.0))
        else:
            projected = cells.copy()
            projected[needs] = _project_rows(cells[needs], max(total, 0.0))
        moved = np.abs(projected - cells).sum(axis=-1) > 1e-9
    else:
        projected = cells
        moved = needs
    tables = []
    for row, target in enumerate(group_targets):
        table = MarginalTable(target, projected[row])
        table.meta["residual"] = {
            "determined": int(determined[row]),
            "coefficients": size,
            "negative_mass": float(negative_mass[row]),
            "projected": bool(moved[row]),
        }
        tables.append(table)
    obs.incr("residual.calls", len(tables))
    obs.incr("residual.coefficients", int(determined.sum()))
    return tables


@functools.lru_cache(maxsize=64)
def _mask_positions(k: int) -> tuple[tuple[int, ...], ...]:
    """For each ``k``-bit mask, the positions of its set bits."""
    return tuple(
        tuple(j for j in range(k) if mask >> j & 1)
        for mask in range(1 << k)
    )


def _single_getter(p: int):
    return lambda target: (target[p],)


@functools.lru_cache(maxsize=64)
def _mask_getters(k: int) -> tuple:
    """Per mask, a callable mapping a target tuple to the attr subset
    at the mask's bit positions — C-level itemgetters beat a generator
    per lookup on the solve hot path."""
    getters = []
    for positions in _mask_positions(k):
        if len(positions) == 0:
            getters.append(lambda target: ())  # mask 0; never looked up
        elif len(positions) == 1:
            getters.append(_single_getter(positions[0]))
        else:
            getters.append(operator.itemgetter(*positions))
    return tuple(getters)


class ResidualIndex:
    """Precomputed residual coefficients of a fixed set of views.

    Construction transforms every view once and keeps one averaged
    scalar per attribute subset some view determines (identical across
    consistent views; the least-squares combination for raw ones).  A
    solve then assembles ``theta`` by dictionary lookup — ``O(2**k)``
    with no constraint extraction — and shares the batched inversion
    with :func:`residual_batch`.  Built by the serving engine per
    synopsis; the answers match :func:`residual` exactly on consistent
    views.

    Raises :class:`ReconstructionError` at construction when a view
    holds non-finite mass, so callers can fall back *before* caching
    anything poisoned, and :class:`DimensionError` when a view is
    categorical (the residual basis is binary-only).
    """

    def __init__(self, views: list[MarginalTable], total: float | None = None):
        if total is None:
            total = (
                float(sum(v.total() for v in views) / len(views))
                if views else 0.0
            )
        for view in views:
            _require_binary(view.attrs, "view")
        self.total = float(total)
        coeff_sum: dict[tuple[int, ...], float] = {}
        coeff_cnt: dict[tuple[int, ...], int] = {}
        for view in views:
            counts = np.asarray(view.counts, dtype=np.float64)
            s = counts.sum()
            if s > _TINY and abs(s - self.total) > 1e-9 * max(1.0, self.total):
                counts = counts * (self.total / s)
            phi = fwht(counts)
            if not np.all(np.isfinite(phi)):
                raise ReconstructionError(
                    f"view {view.attrs} holds non-finite mass; "
                    "residual index refuses to cache it"
                )
            attrs = view.attrs
            for mask, positions in enumerate(_mask_positions(len(attrs))):
                if not positions:
                    continue
                subset = tuple(attrs[p] for p in positions)
                if subset in coeff_sum:
                    coeff_sum[subset] += phi[mask]
                    coeff_cnt[subset] += 1
                else:
                    coeff_sum[subset] = float(phi[mask])
                    coeff_cnt[subset] = 1
        self._theta = {
            subset: coeff_sum[subset] / coeff_cnt[subset]
            for subset in coeff_sum
        }

    def __len__(self) -> int:
        """Number of determined (non-DC) coefficients held."""
        return len(self._theta)

    def solve(self, target_attrs) -> MarginalTable:
        """One closed-form solve against the indexed views."""
        return self.solve_batch([target_attrs])[0]

    def solve_batch(self, target_attrs_list) -> list[MarginalTable]:
        """Stacked solves, aligned with the input order."""
        targets = [AttrSet(attrs) for attrs in target_attrs_list]
        out: list[MarginalTable | None] = [None] * len(targets)
        by_arity: dict[int, list[int]] = {}
        for i, target in enumerate(targets):
            if not target:
                out[i] = _empty_table(self.total)
                continue
            by_arity.setdefault(len(target), []).append(i)
        lookup = self._theta.get
        for k, indices in by_arity.items():
            size = 1 << k
            getters = _mask_getters(k)
            theta = np.zeros((len(indices), size))
            determined = np.empty(len(indices), dtype=np.int64)
            for row, i in enumerate(indices):
                target = targets[i]
                row_theta = theta[row]
                found = 1
                for mask in range(1, size):
                    value = lookup(getters[mask](target))
                    if value is not None:
                        row_theta[mask] = value
                        found += 1
                row_theta[0] = self.total
                determined[row] = found
            tables = _invert_theta(
                theta, determined, [targets[i] for i in indices], self.total
            )
            for i, table in zip(indices, tables):
                out[i] = table
        return out  # type: ignore[return-value]
