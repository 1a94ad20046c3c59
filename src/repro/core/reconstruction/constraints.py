"""Constraint extraction for k-way reconstruction (paper Section 4.3).

For a target attribute set ``A`` and a view ``V``, the view's marginal
projected onto ``B = V ∩ A`` imposes one linear constraint per cell
of ``T_B`` on the cells of ``T_A``.  Constraints from a ``B`` nested
inside another view's ``B'`` are implied once the views are
consistent, so only maximal intersections are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DimensionError, ReconstructionError
from repro.marginals.projection import (
    constraint_matrix,
    projection_index,
    subset_positions,
)
from repro.marginals.attrs import AttrSet
from repro.marginals.table import MarginalTable


@dataclass(frozen=True)
class MarginalConstraint:
    """``T_A[attrs] == target`` — one view's contribution."""

    attrs: tuple[int, ...]  # subset of the reconstruction target A
    target: np.ndarray  # one entry per cell of T_attrs

    @property
    def arity(self) -> int:
        return len(self.attrs)


def resolve_target(views: list[MarginalTable], target_attrs) -> AttrSet:
    """The target attribute set with the arities the views give it.

    A target over binary views stays binary (no arities attached).
    When a view or the target itself carries arities, every target
    attribute gets one: the target's own, else the arity of a view
    holding it.  Any disagreement — between two views, or between a
    view and the target — raises :class:`DimensionError`.
    """
    target = AttrSet(target_attrs)
    if target.arities is None and all(v.attrs.arities is None for v in views):
        return target
    known = dict(zip(target, target.radix)) if target.arities is not None else {}
    for view in views:
        for a, b in zip(view.attrs, view.attrs.radix):
            if a in target and known.setdefault(a, b) != b:
                raise DimensionError(
                    f"attribute {a} has arity {b} in view "
                    f"{tuple(view.attrs)} but {known[a]} elsewhere"
                )
    missing = [a for a in target if a not in known]
    if missing:
        raise DimensionError(
            f"no view gives the arity of attributes {missing} "
            f"of target {tuple(target)}"
        )
    return target.with_arities(known[a] for a in target)


def extract_constraints(
    views: list[MarginalTable],
    target_attrs,
    keep_maximal_only: bool = True,
) -> list[MarginalConstraint]:
    """Constraints on ``T_A`` induced by the given view marginals.

    With ``keep_maximal_only`` (the default, appropriate for mutually
    consistent views) a constraint set nested in another is dropped,
    and duplicate sets are collapsed to one (their targets agree after
    consistency; we average to also support raw views).
    """
    target = resolve_target(views, target_attrs)
    target_set = set(target)
    by_attrs: dict[tuple[int, ...], list[MarginalTable]] = {}
    for view in views:
        inter = tuple(sorted(target_set.intersection(view.attrs)))
        if not inter:
            continue
        by_attrs.setdefault(inter, []).append(view)

    if not by_attrs:
        raise ReconstructionError(
            f"no view intersects the target attributes {target}"
        )

    kept = list(by_attrs)
    if keep_maximal_only:
        as_sets = {b: frozenset(b) for b in by_attrs}
        kept = [
            b
            for b, b_set in as_sets.items()
            if not any(
                b_set < other for other in as_sets.values() if other is not b_set
            )
        ]
    # Dominated intersections are dropped *before* any projection runs
    # — on a wide synopsis most views lose to a larger overlap, and
    # projecting them first was the solved path's main fixed cost.
    radix = dict(zip(target, target.radix))
    constraints = []
    for attrs in sorted(kept, key=lambda a: (-len(a), a)):
        size = math.prod(radix[a] for a in attrs)
        projected = [
            np.bincount(
                projection_index(view.attrs, attrs)[1],
                weights=view.counts, minlength=size,
            )
            for view in by_attrs[attrs]
        ]
        merged = projected[0] if len(projected) == 1 else np.mean(
            projected, axis=0
        )
        constraints.append(MarginalConstraint(attrs, merged))
    return constraints


def covering_view(views: list[MarginalTable], target_attrs) -> MarginalTable | None:
    """The first view fully containing the target, if any (trivial case)."""
    target = set(AttrSet(target_attrs))
    for view in views:
        if target.issubset(view.attrs):
            return view
    return None


def build_constraint_system(
    constraints: list[MarginalConstraint],
    target_attrs,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack constraints into a dense system ``M x = b``.

    ``x`` is the flattened cell vector of the target marginal.
    Used by the LP and least-squares solvers; the max-entropy solver
    works directly on the structured constraints instead.
    """
    target = AttrSet(target_attrs)
    rows = []
    rhs = []
    for c in constraints:
        positions = subset_positions(target, c.attrs)
        rows.append(constraint_matrix(target.radix, positions))
        rhs.append(c.target)
    return np.vstack(rows), np.concatenate(rhs)
