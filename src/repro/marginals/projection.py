"""Index arithmetic shared by marginal-table operations.

Every table is mixed-radix: over attributes with arities
``(b_0, ..., b_{m-1})`` it has ``prod(b_j)`` cells, and cell ``i``
gives attribute ``j`` the value ``(i // stride_j) % b_j`` with
``stride_j = b_0 * ... * b_{j-1}``.  A binary table is the case where
every ``b_j`` is 2, so the value is bit ``j`` of ``i``.

The central object is the *projection map*: for a table and a
sub-table over a subset of its attributes, the map sends each parent
cell to the sub-table cell it contributes to.  Projection is then a
weighted bincount over this map.

Every helper here is memoised: the same subset→index maps recur
constantly across projections, Ripple, the reconstruction
constraint builders and the serving engine, so each distinct map is
built once per process and shared (returned arrays are read-only).
Caches keyed on attribute tuples also key on the arities, because
:class:`~repro.marginals.attrs.AttrSet` equality ignores them.
:mod:`repro.kernels.indexcache` exposes aggregate hit/miss statistics
over these caches.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.exceptions import DimensionError


def strides(arities) -> tuple[int, ...]:
    """Mixed-radix place values: ``stride_j = prod(arities[:j])``."""
    out = []
    acc = 1
    for b in arities:
        out.append(acc)
        acc *= int(b)
    return tuple(out)


def _check_positions(m: int, positions: tuple[int, ...]) -> None:
    if any(pos < 0 or pos >= m for pos in positions):
        raise DimensionError(
            f"positions {positions} out of range for an {m}-attribute table"
        )
    if len(set(positions)) != len(positions):
        raise DimensionError(f"positions {positions} contain duplicates")


@functools.lru_cache(maxsize=4096)
def projection_map(
    arities: tuple[int, ...], positions: tuple[int, ...]
) -> np.ndarray:
    """Map each cell of a table to its projected cell.

    Parameters
    ----------
    arities:
        Per-attribute arities of the parent table (``(2,) * m`` for a
        binary one).
    positions:
        Positions (each in ``range(len(arities))``) of the attributes
        retained by the projection, in the order they appear in the
        sub-table.

    Returns
    -------
    numpy.ndarray
        An int64 array ``p`` with one entry per parent cell, where
        ``p[i]`` is the index of the sub-table cell that parent cell
        ``i`` maps to.
    """
    _check_positions(len(arities), positions)
    parent_strides = strides(arities)
    cells = np.arange(math.prod(arities), dtype=np.int64)
    out = np.zeros(cells.size, dtype=np.int64)
    sub_stride = 1
    for pos in positions:
        out += (cells // parent_strides[pos]) % arities[pos] * sub_stride
        sub_stride *= arities[pos]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=8192)
def subset_positions(attrs: tuple[int, ...], sub: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of ``sub``'s attributes inside the sorted tuple ``attrs``.

    Raises :class:`~repro.exceptions.DimensionError` if ``sub`` is not a
    subset of ``attrs``.
    """
    index = {attr: j for j, attr in enumerate(attrs)}
    try:
        return tuple(index[a] for a in sub)
    except KeyError as exc:
        raise DimensionError(f"{sub} is not a subset of {attrs}") from exc


def projection_index(attrs, sub) -> tuple[tuple[int, ...], np.ndarray]:
    """One-stop cached ``(positions, projection map)`` for a subset pair.

    The common lookup on the table and serving hot paths: resolving
    ``sub`` inside ``attrs`` and building the cell map used by
    projections, in a single cache probe keyed
    on the *attribute* tuples (not positions) plus the arities that
    ``attrs`` carries (none for a binary table).
    """
    return _projection_index(attrs, sub, getattr(attrs, "arities", None))


@functools.lru_cache(maxsize=8192)
def _projection_index(attrs, sub, arities):
    positions = subset_positions(tuple(attrs), tuple(sub))
    return positions, projection_map(arities or (2,) * len(attrs), positions)


@functools.lru_cache(maxsize=1024)
def constraint_matrix(
    arities: tuple[int, ...], positions: tuple[int, ...]
) -> np.ndarray:
    """Dense 0/1 matrix expressing a sub-marginal as sums of parent cells.

    Row ``r`` of the returned ``(sub cells, parent cells)`` matrix has
    a 1 in column ``i`` exactly when parent cell ``i`` projects to
    sub-table cell ``r``.  Used by the LP, least-squares and stacked
    max-entropy solvers, which need explicit linear constraints.  The
    returned matrix is cached and read-only; callers that need to
    mutate must copy.
    """
    pmap = projection_map(arities, positions)
    rows = math.prod(arities[p] for p in positions)
    mat = np.zeros((rows, pmap.size), dtype=np.float64)
    mat[pmap, np.arange(pmap.size)] = 1.0
    mat.setflags(write=False)
    return mat


@functools.lru_cache(maxsize=1024)
def cell_neighbours(arities: tuple[int, ...]) -> np.ndarray:
    """Change-one-value neighbours of every cell of a table.

    Returns a read-only ``(cells, sum(b_j - 1))`` int64 array whose row
    ``i`` lists the cells obtained from ``i`` by changing one
    attribute to each of its other values (Section 4.7).  At arity 2
    that is flipping one bit, the binary Ripple neighbourhood of
    Section 4.4.
    """
    parent_strides = strides(arities)
    cells = np.arange(math.prod(arities), dtype=np.int64)
    columns = []
    for stride, b in zip(parent_strides, arities):
        digit = (cells // stride) % b
        base = cells - digit * stride
        for other in range(1, b):
            columns.append(base + (digit + other) % b * stride)
    out = (
        np.stack(columns, axis=1)
        if columns else np.zeros((cells.size, 0), dtype=np.int64)
    )
    out.setflags(write=False)
    return out
