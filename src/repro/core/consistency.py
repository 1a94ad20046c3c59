"""Overall consistency across noisy views (paper Section 4.4).

The procedure: collect every attribute set arising as an intersection
of views, process them in a topological order of the subset poset
(smallest first, the empty set leading), and at each set ``A`` replace
the projection of every view containing ``A`` by the average of those
projections.  By Lemma 1, later steps never break earlier ones, and
averaging reduces the noise variance on shared information.
"""

from __future__ import annotations

from repro import obs
from repro.marginals.table import MarginalTable


def intersection_closure(
    attr_sets: list[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    """All intersections of sub-families of ``attr_sets``, small first.

    The closure of a family under *pairwise* intersection contains the
    intersection of every sub-family, so a worklist over pairs
    suffices.  The empty tuple (shared total count) is always included
    and sorted first; the sets themselves are excluded — consistency on
    a full view with itself is a no-op.
    """
    base = [frozenset(a) for a in attr_sets]
    closure: set[frozenset[int]] = set()
    worklist = list(base)
    known = set(base)
    while worklist:
        current = worklist.pop()
        for other in base:
            inter = current & other
            if inter == current or inter == other:
                continue
            if inter not in known:
                known.add(inter)
                closure.add(inter)
                worklist.append(inter)
    # Views duplicated in the family still need consistency on their
    # common set (which is the view itself).
    seen: set[frozenset[int]] = set()
    for view in base:
        if view in seen:
            closure.add(view)
        seen.add(view)
    closure.add(frozenset())
    return sorted((tuple(sorted(s)) for s in closure), key=lambda s: (len(s), s))


def mutual_consistency(tables: list[MarginalTable], attrs: tuple[int, ...]) -> None:
    """Make ``tables`` agree on ``attrs`` (all must contain ``attrs``).

    Implements the two-step Section 4.4 update: average the projections
    (the minimum-variance combination when the tables share size and
    budget), then shift each table's cells to match the average.

    Binary and categorical tables alike: Section 4.7 applies this
    exact procedure to categorical attributes, as the paper notes.
    """
    if len(tables) < 2:
        return
    projections = [t.project(attrs) for t in tables]
    mean = projections[0]
    mean.counts = sum(p.counts for p in projections) / len(projections)
    for table in tables:
        table.consistency_update(mean)


def make_consistent(tables: list[MarginalTable]) -> list[tuple[int, ...]]:
    """Run overall consistency in place; returns the processed sets.

    After this call, for every pair of tables ``T_V, T_W`` the
    projections onto ``V ∩ W`` coincide (Definition 2), and shared
    information has been averaged across all views carrying it.
    """
    order = intersection_closure([t.attrs for t in tables])
    table_attr_sets = [frozenset(t.attrs) for t in tables]
    updates = 0
    for attrs in order:
        target = frozenset(attrs)
        involved = [
            t
            for t, attr_set in zip(tables, table_attr_sets)
            if target <= attr_set
        ]
        if len(involved) >= 2:
            updates += len(involved)
        mutual_consistency(involved, attrs)
    obs.incr("consistency.sets_processed", len(order))
    obs.incr("consistency.table_updates", updates)
    return order
