"""The synthetic record population and what analysts do with it.

:class:`SyntheticRecords` is an ``(N, d)`` integer code matrix plus
the :class:`~repro.marginals.domain.Domain` that gives the codes
meaning.  It answers the record-level questions a marginal synopsis
cannot: arbitrary filters, per-record export to CSV/JSON-lines, joins
into downstream tooling — all pure post-processing over an already
published artifact.
"""

from __future__ import annotations

import csv
import json
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DimensionError, SynthesisError
from repro.marginals.attrs import AttrSet
from repro.marginals.domain import Domain
from repro.marginals.projection import strides
from repro.marginals.table import MarginalTable


@dataclass
class SyntheticRecords:
    """A synthesised population over a mixed-type domain."""

    data: np.ndarray
    domain: Domain
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.int64)
        if data.ndim != 2:
            raise DimensionError(f"records must be 2-D, got {data.shape}")
        if data.shape[1] != self.domain.num_attributes:
            raise DimensionError(
                f"records have {data.shape[1]} columns but the domain "
                f"has {self.domain.num_attributes} attributes"
            )
        self.data = data

    @property
    def num_records(self) -> int:
        return self.data.shape[0]

    @property
    def num_attributes(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.num_records

    def __repr__(self) -> str:
        return (
            f"SyntheticRecords(N={self.num_records}, "
            f"domain={self.domain!r})"
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def marginal(self, attrs) -> MarginalTable:
        """The population's exact marginal over ``attrs`` (indices or
        names), with the domain's arities on its attribute set."""
        resolved = AttrSet(self.domain.attr_set(attrs))
        resolved = resolved.with_arities(self.domain.arities[a] for a in resolved)
        idx = self.data[:, list(resolved)] @ np.array(
            strides(resolved.radix), dtype=np.int64
        )
        counts = np.bincount(idx, minlength=resolved.size).astype(np.float64)
        return MarginalTable(resolved, counts)

    def count(self, **conditions) -> int:
        """Records matching every ``name=value`` condition.

        Values may be integer codes, attribute labels, or — for
        numeric attributes — raw values (binned through the domain).
        """
        mask = np.ones(self.num_records, dtype=bool)
        for name, value in conditions.items():
            j = self.domain.index(name)
            code = int(self.domain[j].encode(np.asarray([value]))[0])
            mask &= self.data[:, j] == code
        return int(mask.sum())

    def fraction(self, **conditions) -> float:
        """``count(...) / N`` (0.0 on an empty population)."""
        if self.num_records == 0:
            return 0.0
        return self.count(**conditions) / self.num_records

    # ------------------------------------------------------------------
    # Sampling / decoding
    # ------------------------------------------------------------------
    def sample(self, k: int, seed=None) -> np.ndarray:
        """``k`` record rows drawn with replacement (codes, ``(k, d)``)."""
        if k < 0:
            raise SynthesisError(f"sample size must be >= 0, got {k}")
        if self.num_records == 0:
            raise SynthesisError("cannot sample from an empty population")
        rng = np.random.default_rng(seed)
        return self.data[rng.integers(0, self.num_records, size=int(k))]

    def decode(self) -> dict[str, np.ndarray]:
        """Per-attribute decoded columns (labels / bin midpoints)."""
        return self.domain.decode_records(self.data)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self, path: str | os.PathLike, decode: bool = True) -> pathlib.Path:
        """Write the population as CSV (decoded values by default)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (
            self.decode()
            if decode
            else {n: self.data[:, j] for j, n in enumerate(self.domain.names)}
        )
        names = self.domain.names
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            writer.writerows(
                zip(*(columns[n].tolist() for n in names))
            )
        return path

    def to_jsonl(self, path: str | os.PathLike, decode: bool = True) -> pathlib.Path:
        """Write the population as JSON-lines, one object per record."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (
            self.decode()
            if decode
            else {n: self.data[:, j] for j, n in enumerate(self.domain.names)}
        )
        names = self.domain.names
        lists = [columns[n].tolist() for n in names]
        with open(path, "w") as handle:
            for row in zip(*lists):
                handle.write(json.dumps(dict(zip(names, row))) + "\n")
        return path
