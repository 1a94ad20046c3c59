"""Non-negativity post-processing of noisy views (paper Section 4.4).

The paper's *Ripple* procedure turns each cell below ``-theta`` into 0
and subtracts the removed (negative) mass, split evenly, from the
cell's ``l`` neighbours (the cells one attribute value away; one bit
flip away for binary tables), iterating until no cell is
below ``-theta``.  This keeps the table total unchanged and — unlike a
plain clamp — avoids positively biasing queries that touch low-count
regions.

Alternatives evaluated in Figure 4 are also provided: ``none``,
``simple`` (clamp at zero) and ``global`` (clamp, then subtract a
constant from positive cells to preserve the total).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.exceptions import ReconstructionError
from repro.marginals.projection import cell_neighbours
from repro.marginals.table import MarginalTable

#: Default threshold: the paper's "small value" theta.  One count is
#: negligible against the Laplace noise scale of any realistic view.
DEFAULT_THETA = 1.0

#: Safety valve; Ripple's geometric decay finishes in far fewer passes.
MAX_RIPPLE_PASSES = 10_000


def ripple(table: MarginalTable, theta: float = DEFAULT_THETA) -> int:
    """Apply Ripple non-negativity in place; returns the pass count.

    Each pass zeroes every cell with count ``c < -theta`` and adds
    ``c / l`` (a negative amount) to each of its ``l`` neighbours, so
    the total is conserved and the negative mass spreads and decays.
    A cell's neighbours are the cells that differ from it in exactly
    one attribute's value: "neighbouring cells are obtained by
    changing only one value" (Section 4.7), which at arity 2 is the
    Hamming-distance-1 bit flip of Section 4.4.
    """
    if theta <= 0:
        raise ReconstructionError(
            f"theta must be positive for Ripple to terminate, got {theta}"
        )
    if table.arity == 0:
        return 0
    if table.counts.sum() <= 0:
        # A table with no positive mass cannot absorb its negatives; it
        # carries no usable counts, so zero it.  (Unreachable in the
        # real pipeline: consistency first equalises every view's total
        # to the common ~N > 0.)
        table.counts[:] = 0.0
        return 0
    neighbours = cell_neighbours(table.attrs.radix)
    degree = neighbours.shape[1]
    counts = table.counts
    passes = 0
    cells_clipped = 0
    while passes < MAX_RIPPLE_PASSES:
        negative = np.flatnonzero(counts < -theta)
        if negative.size == 0:
            break
        passes += 1
        cells_clipped += int(negative.size)
        removed = counts[negative].copy()
        counts[negative] = 0.0
        share = np.repeat(removed / degree, degree)
        np.add.at(counts, neighbours[negative].ravel(), share)
    else:
        raise ReconstructionError(
            f"Ripple did not settle within {MAX_RIPPLE_PASSES} passes"
        )
    obs.incr("ripple.passes", passes)
    obs.incr("ripple.cells_clipped", cells_clipped)
    return passes


def simple_clamp(table: MarginalTable) -> None:
    """Set negative cells to zero (Figure 4's ``Simple``).

    Biases totals upward — kept only as an evaluation baseline.
    """
    if obs.enabled():
        obs.incr("nonneg.cells_clipped", int((table.counts < 0).sum()))
    np.maximum(table.counts, 0.0, out=table.counts)


def global_redistribute(table: MarginalTable, max_passes: int = 1000) -> None:
    """Clamp negatives, subtracting the excess evenly from positive cells.

    Figure 4's ``Global``: preserves the total but, unlike Ripple,
    spreads the correction over the whole table rather than locally.
    Subtracting can create fresh negatives, so the step iterates.
    """
    counts = table.counts
    for _ in range(max_passes):
        negative = counts < 0
        if not negative.any():
            return
        if obs.enabled():
            obs.incr("nonneg.cells_clipped", int(negative.sum()))
        deficit = -counts[negative].sum()
        counts[negative] = 0.0
        positive = counts > 0
        if not positive.any():
            return
        counts[positive] -= deficit / positive.sum()
    np.maximum(counts, 0.0, out=counts)


def apply_nonnegativity(
    table: MarginalTable,
    method: str = "ripple",
    theta: float = DEFAULT_THETA,
) -> None:
    """Dispatch by name: ``none`` | ``simple`` | ``global`` | ``ripple``."""
    if method == "none":
        return
    if method == "simple":
        simple_clamp(table)
    elif method == "global":
        global_redistribute(table)
    elif method == "ripple":
        ripple(table, theta=theta)
    else:
        raise ReconstructionError(f"unknown non-negativity method {method!r}")
