"""The :class:`AttrSet` canonical attribute-set type.

Every public API in this library identifies a marginal by its
*attribute set* — which attributes of the dataset the table ranges
over.  Callers hand those in as tuples, lists, sets, frozensets,
ranges, generators or numpy arrays, in any order.  :class:`AttrSet`
is the single canonicalizer: it sorts, de-duplicates (rejecting
duplicates loudly), coerces to plain ints and optionally validates the
index range **once**, at the module boundary, so downstream code can
treat the value as a plain sorted tuple and never re-normalise.

``AttrSet`` subclasses :class:`tuple`, so existing code that compares,
hashes, slices or iterates attribute tuples keeps working unchanged —
an ``AttrSet`` equals (and hashes like) the equivalent bare tuple.

>>> AttrSet([3, 0, 5])
AttrSet(0, 3, 5)
>>> AttrSet({7, 2}) == (2, 7)
True
>>> AttrSet(np.array([4, 1]), num_attributes=4)
Traceback (most recent call last):
    ...
repro.exceptions.DimensionError: attribute 4 out of range (d=4)
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError


class AttrSet(tuple):
    """A sorted, validated, immutable attribute set.

    Parameters
    ----------
    attrs:
        Any iterable of integer attribute indices: tuple, list, set,
        frozenset, range, generator or integer ndarray.  An existing
        :class:`AttrSet` passes through without copying (unless a new
        ``num_attributes`` bound must be checked).
    num_attributes:
        When given, every index must lie in ``range(num_attributes)``;
        out-of-range indices raise :class:`DimensionError`.  Without
        it only non-negativity of the smallest index is *not* enforced
        — sortedness and uniqueness always are.
    arities:
        Optional per-attribute arities (number of values), aligned
        with the *input* ``attrs`` order and re-sorted alongside them.
        Arities never affect equality or hashing, so an ``AttrSet``
        with arities still equals the bare tuple; a cache keyed on
        attribute tuples must therefore add :attr:`radix` to its key.
        No arities means binary.
    """

    # No __slots__: tuple subclasses cannot carry nonempty slots, and
    # the optional arity metadata needs an instance attribute.  The
    # class-level default keeps arity-less instances dict-free-ish and
    # makes `_arities` always readable.
    _arities: tuple[int, ...] | None = None

    def __new__(
        cls,
        attrs=(),
        num_attributes: int | None = None,
        arities=None,
    ) -> "AttrSet":
        if isinstance(attrs, AttrSet) and arities is None:
            out = attrs
        else:
            if isinstance(attrs, np.ndarray):
                if attrs.ndim != 1:
                    raise DimensionError(
                        f"attribute array must be 1-D, got shape {attrs.shape}"
                    )
                if attrs.size and not np.issubdtype(attrs.dtype, np.integer):
                    raise DimensionError(
                        f"attribute array must be integral, got dtype {attrs.dtype}"
                    )
            try:
                raw = [int(a) for a in attrs]
            except (TypeError, ValueError) as exc:
                raise DimensionError(
                    f"attribute set {attrs!r} is not an iterable of integers"
                ) from exc
            if arities is None and isinstance(attrs, AttrSet):
                arities = attrs.arities
            if arities is not None:
                arity_list = [int(b) for b in arities]
                if len(arity_list) != len(raw):
                    raise DimensionError(
                        f"{len(arity_list)} arities for {len(raw)} attributes"
                    )
                if any(b < 2 for b in arity_list):
                    raise DimensionError(
                        f"arities must be >= 2, got {tuple(arity_list)}"
                    )
                pairs = sorted(zip(raw, arity_list))
                items = [a for a, _ in pairs]
                sorted_arities = tuple(b for _, b in pairs)
            else:
                items = sorted(raw)
                sorted_arities = None
            if any(a == b for a, b in zip(items, items[1:])):
                raise DimensionError(
                    f"attribute set {attrs!r} contains duplicates"
                )
            out = super().__new__(cls, items)
            if sorted_arities is not None:
                out._arities = sorted_arities
        if num_attributes is not None and out:
            if out[0] < 0 or out[-1] >= num_attributes:
                bad = out[0] if out[0] < 0 else out[-1]
                raise DimensionError(
                    f"attribute {bad} out of range (d={num_attributes})"
                )
        return out

    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of attributes — the ``k`` of a k-way marginal."""
        return len(self)

    @property
    def size(self) -> int:
        """Number of cells of a table over this set.

        ``prod(arities)`` when per-attribute arities are attached,
        the binary ``2**arity`` otherwise.
        """
        if self._arities is not None:
            out = 1
            for b in self._arities:
                out *= b
            return out
        return 1 << len(self)

    @property
    def arities(self) -> tuple[int, ...] | None:
        """Per-attribute arities aligned with the sorted attrs, if known."""
        return self._arities

    @property
    def radix(self) -> tuple[int, ...]:
        """Per-attribute arities, ``(2,) * arity`` when none are attached.

        The mixed-radix base of a table over this set: cell ``i``
        gives attribute ``j`` the value ``(i // stride_j) % radix[j]``
        (see :func:`repro.marginals.projection.strides`).  This is
        what every index helper takes, so a binary set is simply the
        all-2 case.
        """
        if self._arities is not None:
            return self._arities
        return (2,) * len(self)

    @property
    def is_binary(self) -> bool:
        """True when no arity metadata says otherwise."""
        return self._arities is None or all(b == 2 for b in self._arities)

    def with_arities(self, arities) -> "AttrSet":
        """A copy of this set carrying the given per-attribute arities."""
        return AttrSet(tuple(self), arities=tuple(arities))

    def issubset(self, other) -> bool:
        """True when every attribute also appears in ``other``.

        Both sides being sorted tuples, this is a linear merge rather
        than a set build.
        """
        it = iter(AttrSet(other))
        return all(any(a == b for b in it) for a in self)

    def union(self, other) -> "AttrSet":
        """The canonicalized union with another attribute collection."""
        return AttrSet(set(self) | set(AttrSet(other)))

    def intersection(self, other) -> "AttrSet":
        """The canonicalized intersection with another collection."""
        other_set = frozenset(AttrSet(other))
        return AttrSet(tuple(a for a in self if a in other_set))

    def __repr__(self) -> str:
        if self._arities is not None:
            spec = ", ".join(
                f"{a}:{b}" for a, b in zip(self, self._arities)
            )
            return f"AttrSet({spec})"
        return f"AttrSet({', '.join(map(str, self))})"


def as_attrs(attrs, num_attributes: int | None = None, arities=None) -> AttrSet:
    """Functional alias for :class:`AttrSet` construction."""
    return AttrSet(attrs, num_attributes, arities=arities)
