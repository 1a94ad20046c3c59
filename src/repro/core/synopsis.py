"""The PriView synopsis: what is published, and how it answers queries.

A :class:`PriViewSynopsis` holds the post-processed view marginals.  It
no longer references the private dataset — once built, any number of
k-way marginals (for any ``k``) can be reconstructed from it without
further privacy cost, the property the paper highlights at the end of
Section 1.  One type serves both domain kinds: ``arities`` is ``None``
for binary attributes (the convention of
:class:`~repro.marginals.attrs.AttrSet`) and the per-attribute value
counts for categorical ones (Section 4.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.reconstruction import reconstruct, reconstruct_batch
from repro.covering.design import CoveringDesign
from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.domain import Domain
from repro.marginals.table import MarginalTable


@dataclass
class PriViewSynopsis:
    """Published, mutually consistent view marginals.

    The views agree on every shared attribute subset.  They are *not*
    guaranteed non-negative: Ripple clears every cell below
    ``-theta``, but the consistency pass that follows it can move
    cells below zero again, and covered answers project the views as
    they are.

    Attributes
    ----------
    views:
        One :class:`MarginalTable` per view, mutually consistent.
    epsilon:
        The privacy budget the synopsis satisfies.
    num_attributes:
        Dimensionality ``d`` of the underlying dataset; defaults to
        ``len(arities)``.
    domain:
        Optional attribute schema (names, kinds, bin edges) for the
        same ``d`` attributes; its arities must match.  Carried through
        serialization and the store so record-level consumers can
        decode samples.
    design:
        The covering design whose blocks are the views, when one chose
        them (binary fits); ``None`` otherwise.  Metadata only.
    arities:
        Per-attribute value counts; ``None`` means every attribute is
        binary.
    """

    views: list[MarginalTable]
    epsilon: float
    num_attributes: int | None = None
    metadata: dict = field(default_factory=dict)
    domain: Domain | None = None
    design: CoveringDesign | None = None
    arities: tuple[int, ...] | None = None
    #: optional repro.serve.QueryEngine; set via attach_engine
    _engine: object | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.arities is not None:
            self.arities = tuple(int(b) for b in self.arities)
            if self.num_attributes is None:
                self.num_attributes = len(self.arities)
        if self.num_attributes is None:
            raise DimensionError("a binary synopsis needs num_attributes")
        radix = self.arities or (2,) * self.num_attributes
        if len(radix) != self.num_attributes:
            raise DimensionError(
                f"{len(radix)} arities for {self.num_attributes} attributes"
            )
        if self.domain is not None and tuple(self.domain.arities) != radix:
            raise DimensionError(
                f"domain arities {tuple(self.domain.arities)} do not match "
                f"synopsis arities {radix}"
            )

    @property
    def num_views(self) -> int:
        """``w`` — number of released view marginals."""
        return len(self.views)

    # ------------------------------------------------------------------
    # Serving-engine integration
    # ------------------------------------------------------------------
    def attach_engine(self, engine) -> None:
        """Route ``marginal``/``marginals`` through a serving engine.

        The engine (see :class:`repro.serve.QueryEngine`) answers with
        planning and an LRU answer cache; repeated queries stop paying
        for reconstruction.  Pass ``None`` to detach.
        """
        self._engine = engine

    @property
    def engine(self):
        """The attached serving engine, if any."""
        return self._engine

    def total_count(self) -> float:
        """The common (consistent) total count ``N_V``."""
        if not self.views:
            return 0.0
        return sum(v.total() for v in self.views) / len(self.views)

    def is_covered(self, attrs) -> bool:
        """True when some view fully contains ``attrs``."""
        target = set(AttrSet(attrs))
        return any(target.issubset(v.attrs) for v in self.views)

    def _target(self, attrs) -> AttrSet:
        """``attrs`` validated against ``d``, with the synopsis's own
        arities attached, so an attribute no view holds still has one."""
        target = AttrSet(attrs, self.num_attributes)
        if self.arities is None:
            return target
        return target.with_arities(self.arities[a] for a in target)

    def marginal(self, attrs, method: str = "maxent") -> MarginalTable:
        """Reconstruct the k-way marginal over ``attrs``.

        When some view covers ``attrs`` this is a projection; otherwise
        the requested solver (default: maximum entropy) combines the
        constraints every intersecting view contributes.  With an
        attached serving engine the query goes through its planner and
        answer cache instead.

        Degenerate sets are explicit: the empty set answers with the
        single-cell total ``N_V`` and the full-domain set runs through
        the solver like any other uncovered target — neither depends
        on the views happening to cover them.  An attribute outside
        ``range(num_attributes)`` raises :class:`DimensionError`.
        """
        if self._engine is not None:
            return self._engine.answer(attrs, method=method).table
        return reconstruct(self.views, self._target(attrs), method=method)

    def marginals(self, attr_sets, method: str = "maxent") -> list[MarginalTable]:
        """Reconstruct several marginals, solving each distinct set once.

        Repeated or equivalent attribute sets (``(1, 3)`` vs ``[3, 1]``)
        are normalised and answered from the first computation; every
        slot still gets its own table, aligned with the input order.
        With an attached serving engine the whole workload goes through
        its de-duplicating batch path; without one the distinct sets go
        through one :func:`~repro.core.reconstruction.reconstruct_batch`
        call.  Either way each table equals :meth:`marginal`'s, bit for
        bit.
        """
        if self._engine is not None:
            return [
                answer.table
                for answer in self._engine.answer_batch(attr_sets, method=method)
            ]
        order = list(dict.fromkeys(self._target(attrs) for attrs in attr_sets))
        tables = reconstruct_batch(self.views, order, method=method)
        distinct = dict(zip(order, tables))
        out = []
        seen: set[tuple[int, ...]] = set()
        for attrs in attr_sets:
            target = AttrSet(attrs)
            table = distinct[target]
            out.append(table.copy() if target in seen else table)
            seen.add(target)
        return out

    def __repr__(self) -> str:
        notation = None if self.design is None else self.design.notation
        return (
            f"PriViewSynopsis(design={notation}, d={self.num_attributes},"
            f" arities={self.arities}, epsilon={self.epsilon},"
            f" views={self.num_views})"
        )
