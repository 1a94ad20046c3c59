"""The residual-basis engine: overall consistency (paper Sections 4.4
and 4.7) and residual reconstruction (the ReM method of Mullins et al.,
*Efficient and Private Marginal Reconstruction with Local
Non-Negativity*) on one contrast basis, for any arities.

An attribute of arity ``n`` gets the all-ones row plus ``n - 1``
Helmert contrasts (:func:`contrast_basis`); a table's transform is
their Kronecker product (:func:`contrast_transform`), the
Walsh–Hadamard transform at ``n = 2`` (:func:`fwht`).  *Block* ``S``
holds the coefficients whose digits are non-zero exactly on the
attributes in ``S`` — one scalar per ``S`` on binary data; block ``∅``
is the total.  The all-ones row sums, so block ``S`` of a table equals
block ``S`` of its ``S``-marginal: every table holding ``S`` estimates
the same block on the count scale, and :class:`BlockAverage` averages
each block over the tables that hold it.

Consistency writes every view back from the averaged blocks.  Residual
reconstruction gives a target the averaged block of every subset some
view determines, zero elsewhere (the minimum-norm pseudo-marginal
completion, paper Section 3), inverts, and projects the cells onto the
scaled simplex ``{x >= 0, sum(x) = total}``: local non-negativity,
exact and per query.  :class:`ResidualIndex` keeps the blocks of a
fixed set of views, so a serving solve is ``2**k`` dictionary lookups,
one inverse transform and one projection.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.core.reconstruction.constraints import MarginalConstraint
from repro.exceptions import DimensionError, ReconstructionError
from repro.marginals.attrs import AttrSet
from repro.marginals.projection import strides
from repro.marginals.table import MarginalTable

_TINY = 1e-12

#: Up to this many cells a transform is one dense matmul against the
#: cached Kronecker matrix (BLAS beats a per-attribute loop by an order
#: of magnitude on marginal-sized arrays); attributes beyond it add one
#: small matmul each, which wins on arithmetic.
_MATMUL_MAX = 256


@functools.lru_cache(maxsize=64)
def contrast_basis(n: int, inverse: bool = False) -> np.ndarray:
    """The ``n``-by-``n`` basis of one attribute, or its inverse; read-only.

    Row 0 is all ones; row ``j >= 1`` is the Helmert contrast
    ``(1, ..., 1, -j, 0, ..., 0)`` with ``j`` leading ones.  The rows
    are orthogonal, so the inverse is the transpose over the squared
    row norms; ``n = 2`` gives ``[[1, 1], [1, -1]]``.
    """
    basis = np.zeros((n, n))
    basis[0] = 1.0
    for j in range(1, n):
        basis[j, :j] = 1.0
        basis[j, j] = -float(j)
    if inverse:
        basis = basis.T / (basis * basis).sum(axis=1)
    basis.setflags(write=False)
    return basis


@functools.lru_cache(maxsize=64)
def _dense(radix: tuple[int, ...], inverse: bool) -> np.ndarray:
    """The transform over ``radix`` as one matrix acting on row vectors;
    the first attribute is the minor cell digit, so the last factor."""
    mat = np.ones((1, 1))
    for n in radix:  # the Kronecker product basis ⊗ mat, by broadcasting
        basis = contrast_basis(n, inverse)
        mat = (basis[:, None, :, None] * mat[None, :, None, :]).reshape(
            n * len(mat), -1
        )
    out = np.ascontiguousarray(mat.T)
    out.setflags(write=False)
    return out


def contrast_transform(values, radix, inverse: bool = False) -> np.ndarray:
    """Contrast transform of tables over ``radix`` along the last axis.

    ``radix`` gives the arity of each attribute, first attribute minor
    (the cell order of :class:`MarginalTable`).  Works on any leading
    batch shape and returns a copy; ``inverse=True`` maps coefficients
    back to cells.  The minor attributes, up to ``_MATMUL_MAX`` cells,
    go through one cached dense matmul; each further attribute ``j`` is
    one small matmul over the middle axis of ``(-1, n_j, stride_j)``.
    """
    values = np.asarray(values, dtype=np.float64)
    radix = tuple(radix)
    split = 0
    while split < len(radix) and math.prod(radix[:split + 1]) <= _MATMUL_MAX:
        split += 1
    stride = math.prod(radix[:split])
    out = values.reshape(-1, stride) @ _dense(radix[:split], inverse)
    for n in radix[split:]:
        out = np.matmul(contrast_basis(n, inverse), out.reshape(-1, n, stride))
        stride *= n
    return out.reshape(values.shape)


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh–Hadamard transform along the last axis (a copy).

    ``out[m] = sum_x (-1)^{popcount(m & x)} values[x]``, the binary case
    of :func:`contrast_transform`.  It is its own inverse up to a
    factor of ``n``: ``fwht(fwht(a)) == n * a``.
    """
    n = np.shape(values)[-1] if np.ndim(values) else 0
    if n == 0 or n & (n - 1):
        raise ReconstructionError(
            f"fwht needs a power-of-two axis, got length {n}"
        )
    return contrast_transform(values, (2,) * (n.bit_length() - 1))


@functools.lru_cache(maxsize=256)
def _block_layout(radix: tuple[int, ...]):
    """Where each block sits in the transform of a table over ``radix``.

    Returns ``(mask, local, sizes)``, read-only:

    * ``mask[c]`` — coefficient ``c``'s block, bit ``j`` set when its
      digit of attribute ``j`` is non-zero;
    * ``local[c]`` — its position inside the block, first attribute
      minor, as in the block's own table;
    * ``sizes[s]`` — the size of block ``s``, ``prod(n_j - 1)`` over
      its attributes.

    On binary data ``mask`` is the identity and ``local`` is zero.
    """
    arity = np.asarray(radix, dtype=np.int64)
    cells = np.arange(math.prod(radix), dtype=np.int64)
    digits = cells[:, None] // np.asarray(strides(radix), dtype=np.int64) % arity
    held = digits != 0
    mask = held @ (1 << np.arange(len(radix), dtype=np.int64))
    factors = np.where(held, arity - 1, 1)
    block_strides = np.cumprod(factors, axis=1) // factors
    local = ((digits - 1) * held * block_strides).sum(axis=1)
    sizes = np.bincount(mask, minlength=1 << len(radix))
    for array in (mask, local, sizes):
        array.setflags(write=False)
    return mask, local, sizes


def _subset_keys(attrs) -> np.ndarray:
    """Per mask of ``attrs`` (bit ``j`` for ``attrs[j]``), its attribute
    subset as the bitmask ``sum(2**a)``: int64 while every attribute is
    below 63, Python ints beyond."""
    keys = np.zeros(1, dtype=np.int64 if max(attrs, default=0) < 63 else object)
    for a in attrs:
        keys = np.concatenate([keys, keys + (1 << a)])
    return keys


class _Layout(NamedTuple):
    """Where every coefficient of a family of tables goes.

    ``groups`` lists ``(radix, table indices)`` per shape, in
    first-seen order; ``ids`` maps each coefficient (tables in group
    order) to its averaged slot and ``holders`` counts the tables
    holding each slot; block ``b`` is the subset ``subsets[b]`` and
    fills slots ``block_start[b]`` to ``block_start[b + 1]``.
    """

    groups: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    ids: np.ndarray
    holders: np.ndarray
    subsets: np.ndarray
    block_start: np.ndarray


@functools.lru_cache(maxsize=16)
def _family_layout(family) -> _Layout:
    """The layout of a family given as ``(attrs, radix)`` per table.

    Block ids come from vectorised subset bitmasks, so no Python loop
    runs per coefficient; the result is cached because consistency
    revisits one family every pass.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (_, radix) in enumerate(family):
        groups.setdefault(radix, []).append(i)
    members = [i for group in groups.values() for i in group]
    keys = [_subset_keys(family[i][0]) for i in members]
    offsets = np.cumsum([0] + [len(k) for k in keys])
    subsets, first, row_block = np.unique(
        np.concatenate(keys or [np.zeros(0, np.int64)]),
        return_index=True, return_inverse=True,
    )
    row_size = np.concatenate([np.zeros(0, np.int64)] + [
        _block_layout(family[i][1])[2] for i in members
    ])
    block_start = np.cumsum(np.concatenate(([0], row_size[first])))
    ids = [
        block_start[row_block[offsets[p]:offsets[p + 1]][mask]] + local
        for p, (mask, local, _) in enumerate(
            _block_layout(family[i][1]) for i in members
        )
    ]
    ids = np.concatenate([np.zeros(0, np.int64)] + ids)
    layout = _Layout(
        groups=tuple((radix, tuple(group)) for radix, group in groups.items()),
        ids=ids,
        holders=np.bincount(ids, minlength=int(block_start[-1])),
        subsets=subsets,
        block_start=block_start,
    )
    for array in layout[1:]:
        array.setflags(write=False)
    return layout


class BlockAverage:
    """The blocks of a family of tables, each averaged over the tables
    holding it.

    ``counts`` overrides the tables' cells (same shapes, same order).
    Tables of one shape transform as one stack.
    """

    def __init__(self, tables: list[MarginalTable], counts=None):
        if counts is None:
            counts = [t.counts for t in tables]
        self.layout = layout = _family_layout(
            tuple((tuple(t.attrs), t.attrs.radix) for t in tables)
        )
        theta = [np.zeros(0)] + [
            contrast_transform(np.stack([counts[i] for i in group]), radix).ravel()
            for radix, group in layout.groups
        ]
        sums = np.bincount(
            layout.ids, weights=np.concatenate(theta),
            minlength=len(layout.holders),
        )
        self.mean = sums / layout.holders
        #: blocks held by two or more tables (the ones averaging moves)
        self.shared = int(
            np.count_nonzero(layout.holders[layout.block_start[:-1]] > 1)
        )

    def write_back(self) -> list[np.ndarray]:
        """Every table's cells rebuilt from the averaged blocks."""
        cells: dict[int, np.ndarray] = {}
        theta = self.mean[self.layout.ids]
        offset = 0
        for radix, group in self.layout.groups:
            size = math.prod(radix)
            stack = theta[offset:offset + size * len(group)]
            offset += stack.size
            rebuilt = contrast_transform(
                stack.reshape(len(group), size), radix, inverse=True
            )
            cells.update(zip(group, rebuilt))
        return [cells[i] for i in range(len(cells))]


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
    """Stacked residual solve: many targets, one projection per shape.

    Each target's constraints become a :class:`ResidualIndex`; targets
    of one shape stack their coefficients, invert row by row and share
    one vectorised simplex projection, so each table equals its single
    solve bit for bit.  Results align with the input order.  All
    targets share ``total`` (the synopsis's common ``N_V``).
    """
    if len(constraint_lists) != len(target_attrs_list):
        raise ReconstructionError(
            f"{len(constraint_lists)} constraint lists for "
            f"{len(target_attrs_list)} targets"
        )
    targets = [AttrSet(attrs) for attrs in target_attrs_list]
    indexes = [
        ResidualIndex(_constraint_tables(constraints, target), total)
        if target else None
        for constraints, target in zip(constraint_lists, targets)
    ]
    return _solve_stacked(targets, indexes, float(total))


def _constraint_tables(constraints, target: AttrSet) -> list[MarginalTable]:
    """The constraints as tables, with the target's arities."""
    arity = dict(zip(target, target.radix)) if target.arities else None
    return [
        MarginalTable(
            AttrSet(c.attrs, arities=arity and [arity[a] for a in c.attrs]),
            c.target,
        )
        for c in constraints
    ]


def _solve_stacked(targets, indexes, total: float) -> list[MarginalTable]:
    """Assemble each target from its index, and invert and project
    same-shape targets together."""
    out: list[MarginalTable | None] = [None] * len(targets)
    by_radix: dict[tuple[int, ...], list[int]] = {}
    for i, target in enumerate(targets):
        if not target:
            out[i] = _empty_table(total)
            continue
        by_radix.setdefault(target.radix, []).append(i)
    for radix, members in by_radix.items():
        theta = np.empty((len(members), math.prod(radix)))
        determined = np.empty(len(members), dtype=np.int64)
        for row, i in enumerate(members):
            determined[row] = indexes[i].assemble(targets[i], theta[row])
        tables = _invert_theta(
            theta, determined, radix, [targets[i] for i in members], total
        )
        for i, table in zip(members, tables):
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
    radix: tuple[int, ...],
    group_targets: list[AttrSet],
    total: float,
) -> list[MarginalTable]:
    """Invert stacked same-shape coefficient rows into final tables:
    one transform per row, one vectorised simplex projection.

    Feasibility here reduces to non-negativity: each row's cell sum is
    its block ``∅``, ``theta[0] = total``, so a row needs projecting
    exactly when it carries negative mass (a negative ``total`` forces
    negative cells and projects to zero, matching
    :func:`project_to_simplex`'s clamp).
    """
    size = theta.shape[-1]
    # Each row inverts as a one-row product, as the single solve does:
    # numpy runs a one-row product as gemv and a stack as gemm, and the
    # two round differently (by up to 5.7e-14 of a 3000-count table),
    # so a stacked inverse would make an answer depend on its batch.
    # A lone row is that product already and skips the copy.
    if len(theta) == 1:
        cells = contrast_transform(theta, radix, inverse=True)
    else:
        cells = np.empty_like(theta)
        for row, coefficients in enumerate(theta):
            cells[row] = contrast_transform(coefficients, radix, inverse=True)
    negative_mass = -np.minimum(cells, 0.0).sum(axis=-1)
    needs = negative_mass > 0.0
    count = np.count_nonzero(needs)
    if count == len(needs):
        projected = _project_rows(cells, max(total, 0.0))
    elif count:
        projected = cells.copy()
        projected[needs] = _project_rows(cells[needs], max(total, 0.0))
    else:
        projected = cells
    moved = (
        np.abs(projected - cells).sum(axis=-1) > 1e-9 if count else needs
    )
    tables = []
    for target, cells, count, mass, flag in zip(
        group_targets, projected, determined.tolist(),
        negative_mass.tolist(), moved.tolist(),
    ):
        table = MarginalTable(target, cells)
        table.meta["residual"] = {
            "determined": count, "coefficients": size,
            "negative_mass": mass, "projected": flag,
        }
        tables.append(table)
    obs.incr("residual.calls", len(tables))
    obs.incr("residual.coefficients", int(determined.sum()))
    return tables


class ResidualIndex:
    """The averaged blocks of a fixed set of views, by attribute subset.

    Construction scales each view to the common ``total`` (raw noisy
    views may drift), averages every block over the views holding it
    (:class:`BlockAverage`; identical across consistent views, the
    least-squares combination for raw ones) and keeps one block per
    determined subset — one scalar per subset on binary data.  A solve
    assembles the target's coefficients by dictionary lookup and
    shares the per-shape inversion and projection with
    :func:`residual_batch`.  Built by the serving engine once per
    synopsis.

    Raises :class:`ReconstructionError` at construction when a view
    holds non-finite mass, so callers can fall back *before* caching
    anything poisoned.
    """

    def __init__(self, views: list[MarginalTable], total: float):
        self.total = float(total)
        counts = []
        for view in views:
            cells = np.asarray(view.counts, dtype=np.float64)
            s = cells.sum()
            if s > _TINY and abs(s - self.total) > 1e-9 * max(1.0, self.total):
                cells = cells * (self.total / s)
            counts.append(cells)
        average = BlockAverage(views, counts)
        if not np.all(np.isfinite(average.mean)):
            raise ReconstructionError(
                "a view holds non-finite mass; "
                "residual index refuses to cache it"
            )
        self._mean = np.append(average.mean, 0.0)
        layout = average.layout
        self._start = dict(
            zip(layout.subsets.tolist(), layout.block_start[:-1].tolist())
        )
        #: each attribute's arity, when some view is categorical
        self._arity = {
            a: n
            for view in views if view.attrs.arities is not None
            for a, n in zip(view.attrs, view.attrs.radix)
        }

    def _resolve(self, target_attrs) -> AttrSet:
        """The target with the arities its views give it."""
        target = AttrSet(target_attrs)
        if target.arities is not None or not self._arity:
            return target
        try:
            return target.with_arities(self._arity[a] for a in target)
        except KeyError as exc:
            raise DimensionError(
                f"no view gives the arity of attribute {exc.args[0]} "
                f"of target {tuple(target)}"
            ) from None

    def assemble(self, target: AttrSet, out: np.ndarray) -> int:
        """Write ``target``'s coefficients into ``out``; returns how
        many are determined, block ``∅`` included."""
        mask, local, _ = _block_layout(target.radix)
        keys = [0]  # the subset bitmask per mask, as in _subset_keys
        for a in target:
            keys += [key | 1 << a for key in keys]
        # a block no view determines starts at the trailing zero, and
        # the clipped gather keeps all of its slots there
        zero = len(self._mean) - 1
        starts = np.fromiter(
            map(self._start.get, keys, itertools.repeat(zero)),
            dtype=np.int64, count=len(keys),
        )
        slots = starts[mask] + local
        self._mean.take(slots, out=out, mode="clip")
        out[0] = self.total
        return 1 + int(np.count_nonzero(slots[1:] < zero))

    def solve_batch(self, target_attrs_list) -> list[MarginalTable]:
        """Stacked solves, aligned with the input order."""
        targets = [self._resolve(attrs) for attrs in target_attrs_list]
        return _solve_stacked(targets, [self] * len(targets), self.total)
