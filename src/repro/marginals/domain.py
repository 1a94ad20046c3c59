"""First-class mixed-type attribute domains.

PriView's production path was binary-only; real datasets mix binary
flags, categorical codes, ordinals and binned numeric columns.  A
:class:`Domain` describes one such schema: an ordered tuple of
:class:`Attribute` specs, each carrying its arity (number of discrete
values), a dtype *kind* and — for numeric attributes — the bin edges
used to discretise raw values.

The domain rides the whole pipeline: datasets encode raw columns into
mixed-radix codes against it, mechanisms record it on the synopsis,
:func:`~repro.core.serialization.save_synopsis` persists it inside the
``.npz`` payload (covered by the integrity digest), the store exposes
it in :class:`~repro.store.manifest.VersionInfo` metadata, and
:mod:`repro.synth` decodes sampled records back into labelled values.

Cell indexing stays the library-wide mixed-radix convention (see
:mod:`repro.marginals.projection`): a table over attributes with
arities ``(b_0, ..., b_{m-1})`` assigns attribute ``j`` the value
``(i // stride_j) % b_j`` in cell ``i`` — which degenerates to the
binary bit-``j`` convention when every arity is 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet

#: dtype kinds an :class:`Attribute` may declare.
ATTRIBUTE_KINDS = ("categorical", "ordinal", "numeric")


@dataclass(frozen=True)
class Attribute:
    """One column of a :class:`Domain`.

    Attributes
    ----------
    name:
        Column name, unique within its domain.
    arity:
        Number of discrete values (``>= 2``).
    kind:
        ``"categorical"`` (unordered codes), ``"ordinal"`` (ordered
        codes) or ``"numeric"`` (binned continuous values).
    bins:
        For ``numeric`` attributes: ``arity + 1`` increasing bin
        edges; raw value ``x`` encodes to the bin containing it
        (values outside the edges clamp into the first/last bin).
    labels:
        Optional human-readable value names (``arity`` of them).
    """

    name: str
    arity: int
    kind: str = "categorical"
    bins: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise DimensionError(f"attribute name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "arity", int(self.arity))
        if self.arity < 2:
            raise DimensionError(
                f"attribute {self.name!r} needs arity >= 2, got {self.arity}"
            )
        if self.kind not in ATTRIBUTE_KINDS:
            raise DimensionError(
                f"attribute {self.name!r} has unknown kind {self.kind!r} "
                f"(expected one of {ATTRIBUTE_KINDS})"
            )
        if self.bins is not None:
            bins = tuple(float(b) for b in self.bins)
            if len(bins) != self.arity + 1:
                raise DimensionError(
                    f"attribute {self.name!r} needs {self.arity + 1} bin "
                    f"edges for arity {self.arity}, got {len(bins)}"
                )
            if any(a >= b for a, b in zip(bins, bins[1:])):
                raise DimensionError(
                    f"attribute {self.name!r} bin edges must strictly "
                    f"increase, got {bins}"
                )
            object.__setattr__(self, "bins", bins)
        elif self.kind == "numeric":
            raise DimensionError(
                f"numeric attribute {self.name!r} needs bin edges"
            )
        if self.labels is not None:
            labels = tuple(str(v) for v in self.labels)
            if len(labels) != self.arity:
                raise DimensionError(
                    f"attribute {self.name!r} needs {self.arity} labels, "
                    f"got {len(labels)}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def is_binary(self) -> bool:
        return self.arity == 2

    # ------------------------------------------------------------------
    def encode(self, values) -> np.ndarray:
        """Raw column values → integer codes in ``range(arity)``.

        Numeric values are binned against ``bins`` (clamped into the
        outermost bins); labelled categorical/ordinal values map
        through ``labels``; bare integers are validated as codes.
        """
        values = np.asarray(values)
        if self.kind == "numeric":
            edges = np.asarray(self.bins, dtype=np.float64)
            codes = np.searchsorted(edges, values.astype(np.float64), side="right") - 1
            return np.clip(codes, 0, self.arity - 1).astype(np.int64)
        if self.labels is not None and values.dtype.kind in ("U", "S", "O"):
            lookup = {label: i for i, label in enumerate(self.labels)}
            try:
                return np.asarray(
                    [lookup[str(v)] for v in values.ravel()], dtype=np.int64
                ).reshape(values.shape)
            except KeyError as exc:
                raise DimensionError(
                    f"attribute {self.name!r} has no value {exc.args[0]!r} "
                    f"(labels: {self.labels})"
                ) from None
        codes = values.astype(np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= self.arity):
            raise DimensionError(
                f"attribute {self.name!r} codes outside range({self.arity})"
            )
        return codes

    def decode(self, codes) -> np.ndarray:
        """Integer codes → representative values.

        Labels when present, bin midpoints for numeric attributes,
        the codes themselves otherwise.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 0 or codes.max() >= self.arity):
            raise DimensionError(
                f"attribute {self.name!r} codes outside range({self.arity})"
            )
        if self.labels is not None:
            return np.asarray(self.labels, dtype=object)[codes]
        if self.kind == "numeric":
            edges = np.asarray(self.bins, dtype=np.float64)
            mids = (edges[:-1] + edges[1:]) / 2.0
            return mids[codes]
        return codes

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        blob = {"name": self.name, "arity": self.arity, "kind": self.kind}
        if self.bins is not None:
            blob["bins"] = list(self.bins)
        if self.labels is not None:
            blob["labels"] = list(self.labels)
        return blob

    @classmethod
    def from_json(cls, blob: dict) -> "Attribute":
        return cls(
            name=blob["name"],
            arity=int(blob["arity"]),
            kind=blob.get("kind", "categorical"),
            bins=tuple(blob["bins"]) if blob.get("bins") is not None else None,
            labels=(
                tuple(blob["labels"])
                if blob.get("labels") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class Domain:
    """An ordered schema of mixed-type attributes.

    Immutable and hashable; equality compares the full attribute
    specs.  Index with an integer (position) or a string (name).
    """

    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        attributes = tuple(self.attributes)
        for attr in attributes:
            if not isinstance(attr, Attribute):
                raise DimensionError(
                    f"Domain entries must be Attribute, got {type(attr).__name__}"
                )
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise DimensionError(f"duplicate attribute names in {names}")
        object.__setattr__(self, "attributes", attributes)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def binary(cls, num_attributes: int, names=None) -> "Domain":
        """The all-binary domain the legacy pipeline assumes."""
        names = names or [f"a{j}" for j in range(num_attributes)]
        return cls(tuple(Attribute(str(n), 2) for n in names))

    @classmethod
    def from_arities(cls, arities, names=None, kinds=None) -> "Domain":
        """A plain categorical domain from per-attribute arities."""
        arities = tuple(int(b) for b in arities)
        names = names or [f"a{j}" for j in range(len(arities))]
        kinds = kinds or ["categorical"] * len(arities)
        if len(names) != len(arities) or len(kinds) != len(arities):
            raise DimensionError(
                f"{len(arities)} arities but {len(names)} names / "
                f"{len(kinds)} kinds"
            )
        return cls(
            tuple(
                Attribute(str(n), b, kind=k)
                for n, b, k in zip(names, arities, kinds)
            )
        )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __getitem__(self, key) -> Attribute:
        if isinstance(key, str):
            for attr in self.attributes:
                if attr.name == key:
                    return attr
            raise DimensionError(
                f"domain has no attribute {key!r} (names: {self.names})"
            )
        return self.attributes[key]

    def index(self, name: str) -> int:
        for j, attr in enumerate(self.attributes):
            if attr.name == name:
                return j
        raise DimensionError(
            f"domain has no attribute {name!r} (names: {self.names})"
        )

    # ------------------------------------------------------------------
    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(a.arity for a in self.attributes)

    @property
    def is_binary(self) -> bool:
        """True when every attribute is binary — the legacy domain."""
        return all(a.arity == 2 for a in self.attributes)

    def size(self, attrs=None) -> int:
        """Cells of the (marginal) contingency table over ``attrs``."""
        if attrs is None:
            return math.prod(self.arities)
        return math.prod(self.attributes[a].arity for a in self.attr_set(attrs))

    def attr_set(self, attrs) -> AttrSet:
        """Canonicalize ``attrs`` (indices or names) with arities attached."""
        resolved = [
            self.index(a) if isinstance(a, str) else int(a) for a in attrs
        ]
        items = AttrSet(resolved, self.num_attributes)
        return items.with_arities(self.attributes[a].arity for a in items)

    # ------------------------------------------------------------------
    def encode_records(self, columns) -> np.ndarray:
        """Raw per-attribute columns → an ``(N, d)`` int64 code matrix.

        ``columns`` is a mapping (by attribute name) or a sequence (by
        position) of raw value arrays; each goes through its
        attribute's :meth:`Attribute.encode`.
        """
        if hasattr(columns, "keys"):
            columns = [columns[a.name] for a in self.attributes]
        columns = list(columns)
        if len(columns) != self.num_attributes:
            raise DimensionError(
                f"{len(columns)} columns for {self.num_attributes} attributes"
            )
        encoded = [
            attr.encode(col) for attr, col in zip(self.attributes, columns)
        ]
        return np.stack(encoded, axis=1)

    def decode_records(self, codes) -> dict[str, np.ndarray]:
        """An ``(N, d)`` code matrix → per-attribute decoded columns."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != self.num_attributes:
            raise DimensionError(
                f"codes must be (N, {self.num_attributes}), got {codes.shape}"
            )
        return {
            attr.name: attr.decode(codes[:, j])
            for j, attr in enumerate(self.attributes)
        }

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"attributes": [a.to_json() for a in self.attributes]}

    @classmethod
    def from_json(cls, blob: dict) -> "Domain":
        attributes = blob["attributes"]
        if not isinstance(attributes, (list, tuple)):
            raise DimensionError(
                f"domain schema 'attributes' must be a list, "
                f"got {type(attributes).__name__}"
            )
        return cls(tuple(Attribute.from_json(a) for a in attributes))

    def __repr__(self) -> str:
        spec = ", ".join(f"{a.name}:{a.arity}" for a in self.attributes)
        return f"Domain({spec})"


def as_domain(domain, num_attributes: int | None = None) -> Domain:
    """Coerce ``domain`` into a :class:`Domain`.

    Accepts a :class:`Domain` (pass-through), a sequence of arities, a
    JSON blob as produced by :meth:`Domain.to_json`, or ``None`` (with
    ``num_attributes``: the binary domain of that width).
    """
    if isinstance(domain, Domain):
        return domain
    if domain is None:
        if num_attributes is None:
            raise DimensionError("as_domain(None) needs num_attributes")
        return Domain.binary(num_attributes)
    if isinstance(domain, dict):
        return Domain.from_json(domain)
    return Domain.from_arities(domain)
