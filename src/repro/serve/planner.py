"""Query planning: which path answers a requested marginal.

A fitted synopsis can answer the marginal over an attribute set three
ways, in increasing cost order:

* **covered** — the set is contained in some view: project that view.
  Exact, no solver, microseconds.
* **derived** — the set is contained in a marginal the engine already
  reconstructed (and still holds in its answer cache): project the
  cached table.  Any view constraint on a subset of the target is
  implied by the cached parent's constraints, so the projection is
  feasible for the target's own constraint system; it agrees with a
  fresh solve up to solver tolerance whenever the parent's maximum
  entropy model factorises across the target (and is exactly the same
  table whenever the parent itself was covered).
* **solved** — run a reconstruction solver (the paper's Section 4.3
  max-entropy by default).

The planner only classifies; the :mod:`repro.serve.engine` executes
the plan and owns the cache the *derived* path reads from.  The derived
path takes the smallest cached superset (fewest attributes, so the
cheapest projection), ties to the least recently used entry; a cached
entry equal to the target is not "derived" from itself.  The cache is
consulted only once no view covers the target.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.exceptions import DimensionError, QueryError
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable

#: planner paths, also used as ``/stats`` keys and obs counter suffixes
PATH_COVERED = "covered"
PATH_DERIVED = "derived"
PATH_SOLVED = "solved"
PATH_ERROR = "error"

PLANNER_PATHS = (PATH_COVERED, PATH_DERIVED, PATH_SOLVED, PATH_ERROR)


@dataclass(frozen=True)
class QueryPlan:
    """How one marginal request will be answered.

    Attributes
    ----------
    attrs:
        The normalised (sorted, de-duplicated is an error) target set.
    method:
        Solver used if the plan falls through to ``solved``.
    path:
        ``covered`` / ``derived`` / ``solved``.
    source:
        The attrs of the view (``covered``) or cached marginal
        (``derived``) the answer is projected from; None for
        ``solved``.
    parent:
        The cached table named by ``source`` on the ``derived`` path,
        held so eviction between planning and projecting cannot lose
        it; None otherwise.
    """

    attrs: tuple[int, ...]
    method: str
    path: str
    source: tuple[int, ...] | None = None
    parent: MarginalTable | None = field(default=None, repr=False, compare=False)


#: ``target -> (attrs, table)`` of the smallest cached superset of
#: ``target`` (ties to the least recently used), or None.
SupersetLookup = Callable[
    [tuple[int, ...]], "tuple[tuple[int, ...], MarginalTable] | None"
]


def _scan_supersets(
    target: tuple[int, ...], cached: Mapping[tuple[int, ...], MarginalTable]
) -> tuple[tuple[int, ...], MarginalTable] | None:
    """The :data:`SupersetLookup` rule over a ``{attrs: table}`` mapping
    by scanning it: ties go to the first superset in iteration order
    (an LRU snapshot lists the least recently used first)."""
    target_set = set(target)
    best: tuple[int, ...] | None = None
    for attrs in cached:
        if target_set.issubset(attrs) and (best is None or len(attrs) < len(best)):
            best = attrs
    return None if best is None else (best, cached[best])


class QueryPlanner:
    """Classifies attribute sets against the synopsis's views."""

    def __init__(self, views: list[MarginalTable], num_attributes: int):
        self._views = list(views)
        self._num_attributes = int(num_attributes)
        # One bitmask per view: the covered check is then a single
        # integer AND per view instead of a set.issubset, which is what
        # an uncovered (solved-path) query pays for every view.  Order
        # is preserved so the first match agrees with covering_view.
        self._view_masks = [
            (sum(1 << a for a in view.attrs), view.attrs)
            for view in self._views
        ]

    def validate(self, attrs) -> tuple[int, ...]:
        """Normalise ``attrs`` or raise :class:`QueryError`."""
        try:
            target = AttrSet(attrs)
        except (DimensionError, TypeError, ValueError) as exc:
            raise QueryError(f"bad attribute set {attrs!r}: {exc}") from exc
        if target and not (0 <= target[0] and target[-1] < self._num_attributes):
            raise QueryError(
                f"attribute set {target} out of range "
                f"0..{self._num_attributes - 1}"
            )
        return target

    def plan(
        self,
        attrs,
        method: str,
        cached_supersets: Mapping[tuple[int, ...], MarginalTable] | None = None,
        find_superset: SupersetLookup | None = None,
    ) -> QueryPlan:
        """Plan the query, preferring covered > derived > solved.

        The derived path's candidates are the completed same-method
        reconstructions, given either as a ``{attrs: table}`` snapshot
        (``cached_supersets``, scanned) or as a lookup
        (``find_superset``, the engine's attribute index).  Either is
        consulted only when no view covers the target.
        """
        target = self.validate(attrs)
        target_mask = 0
        for a in target:
            target_mask |= 1 << a
        for view_mask, view_attrs in self._view_masks:
            if target_mask & view_mask == target_mask:
                return QueryPlan(target, method, PATH_COVERED, view_attrs)
        if find_superset is not None:
            found = find_superset(target)
        elif cached_supersets:
            found = _scan_supersets(target, cached_supersets)
        else:
            found = None
        if found is not None and found[0] != target:
            return QueryPlan(target, method, PATH_DERIVED, found[0], found[1])
        return QueryPlan(target, method, PATH_SOLVED, None)
