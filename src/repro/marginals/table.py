"""The :class:`MarginalTable` — the paper's ``T_A`` object.

A marginal table over an attribute set ``A`` holds one (possibly noisy,
possibly negative) real count per assignment of the attributes in
``A``.  The attributes may be binary or categorical: the arities ride
on the table's :class:`~repro.marginals.attrs.AttrSet`, and a set
without arities is binary.  It supports the operations PriView needs:

* ``project`` — the paper's ``T_A[A']`` (Section 4.1, Notation);
* ``normalized`` — the paper's ``norm(T_A)`` used by the JS divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.projection import projection_index


@dataclass
class MarginalTable:
    """A contingency table over a sorted tuple of attribute indices.

    Attributes
    ----------
    attrs:
        The sorted attribute indices the table is over, as an
        :class:`AttrSet`; categorical tables carry their per-attribute
        arities on it (``AttrSet(attrs, arities=...)``).
    counts:
        Float array of ``attrs.size`` cells; cell ``i`` counts the
        records where attribute ``attrs[j]`` equals
        ``(i // stride_j) % radix[j]`` — bit ``j`` of ``i`` for a
        binary table.
    meta:
        Free-form provenance/telemetry attached by producers — e.g.
        the max-entropy reconstructor stores its convergence record
        under ``meta["maxent"]``.  Never affects table semantics.
    """

    attrs: tuple[int, ...]
    counts: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.attrs = AttrSet(self.attrs)
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.shape != (self.attrs.size,):
            raise DimensionError(
                f"counts has shape {counts.shape}, expected "
                f"({self.attrs.size},) for attrs {self.attrs!r}"
            )
        self.counts = counts

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, attrs) -> "MarginalTable":
        """An all-zero table over ``attrs``."""
        attrs = AttrSet(attrs)
        return cls(attrs, np.zeros(attrs.size))

    @classmethod
    def uniform(cls, attrs, total: float) -> "MarginalTable":
        """A uniform table over ``attrs`` whose cells sum to ``total``."""
        attrs = AttrSet(attrs)
        size = attrs.size
        return cls(attrs, np.full(size, total / size))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of attributes (the ``k`` of a k-way marginal)."""
        return len(self.attrs)

    @property
    def arities(self) -> tuple[int, ...] | None:
        """Per-attribute arities of a categorical table; None if binary."""
        return self.attrs.arities

    @property
    def size(self) -> int:
        """Number of cells, ``prod(attrs.radix)``."""
        return self.counts.size

    def total(self) -> float:
        """Sum of all cells — the paper's ``T_A[emptyset]``."""
        return float(self.counts.sum())

    def copy(self) -> "MarginalTable":
        """A deep copy (the counts array is copied, meta shallow-copied)."""
        return MarginalTable(self.attrs, self.counts.copy(), dict(self.meta))

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, sub_attrs) -> "MarginalTable":
        """The marginal over ``sub_attrs`` obtained by summing cells.

        ``sub_attrs`` must be a subset of :attr:`attrs`; the result
        keeps those attributes' arities.  Projecting onto the empty
        tuple yields a 1-cell table holding the total.
        """
        sub = AttrSet(sub_attrs)
        positions, pmap = projection_index(self.attrs, sub)
        arities = self.attrs.arities
        if arities is not None:
            sub = sub.with_arities(arities[p] for p in positions)
        counts = np.bincount(pmap, weights=self.counts, minlength=sub.size)
        return MarginalTable(sub, counts)

    # ------------------------------------------------------------------
    # Normalisation and comparison helpers
    # ------------------------------------------------------------------
    def normalized(self) -> np.ndarray:
        """Cells divided by the total (the paper's ``norm``).

        A table whose total is not positive normalizes to the uniform
        distribution, matching how the evaluation treats degenerate
        noisy tables.
        """
        total = self.counts.sum()
        if total <= 0:
            return np.full(self.size, 1.0 / self.size)
        return self.counts / total

    def clamped(self, lower: float = 0.0) -> "MarginalTable":
        """A copy with every cell raised to at least ``lower``."""
        return MarginalTable(self.attrs, np.maximum(self.counts, lower))

    def allclose(self, other: "MarginalTable", atol: float = 1e-8) -> bool:
        """True when both tables cover the same attrs with equal cells."""
        return self.attrs == other.attrs and bool(
            np.allclose(self.counts, other.counts, atol=atol)
        )

    def __len__(self) -> int:
        return self.size
