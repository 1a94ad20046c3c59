"""Bit-plane packed datasets for mixed categorical domains.

The binary kernels (:mod:`repro.kernels.packed`) store one bit row
per attribute.  A :class:`PackedCategoricalDataset` generalises this
to arbitrary arities by *bit-slicing each attribute's code*: an
attribute with arity ``b`` is stored as ``ceil(log2(b))`` packed
binary bit-planes (LSB first), so the whole dataset is one
``(sum_j nbits_j, ceil(N/64))`` uint64 array — the same layout the
binary transpose-histogram kernel streams over.

Marginal extraction reuses that kernel end to end.  For a target
attribute set whose planes total ``B <= 8`` bits, one
:func:`~repro.kernels.packed.bit_histogram` pass yields counts over
the ``2**B`` binary-coded cells; a cached fold map then collapses each
binary code ``(digit_0 | digit_1 << nbits_0 | ...)`` onto its
mixed-radix cell ``sum_j digit_j * stride_j``, dropping the invalid
codes (``digit_j >= b_j``), which hold zero records by construction.
Wider targets fall back to a chunked unpack + ``bincount`` — still
streaming, still exact.

Results are **bitwise identical** to the naive
:meth:`repro.categorical.dataset.CategoricalDataset.marginal` path —
property-tested in ``tests/kernels/test_packed_cat.py``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro import obs
from repro.exceptions import DimensionError
from repro.kernels.packed import DEFAULT_CHUNK_WORDS, bit_histogram, pack_columns
from repro.marginals.attrs import AttrSet
from repro.marginals.domain import Domain, as_domain
from repro.marginals.projection import strides
from repro.marginals.table import MarginalTable


def plane_count(arity: int) -> int:
    """Bit-planes needed for codes in ``range(arity)``."""
    return max(1, (int(arity) - 1).bit_length())


@functools.lru_cache(maxsize=4096)
def _code_fold(sel_arities: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Map binary bit-plane codes onto mixed-radix cells.

    For selected arities ``(b_0, ..., b_{m-1})`` with plane widths
    ``nb_j``, returns ``(valid, cell)``: the binary codes whose every
    digit is in range, and the mixed-radix cell each folds onto.
    """
    nbits = [plane_count(b) for b in sel_arities]
    total_bits = sum(nbits)
    codes = np.arange(1 << total_bits, dtype=np.int64)
    cell = np.zeros(codes.size, dtype=np.int64)
    ok = np.ones(codes.size, dtype=bool)
    cell_strides = strides(sel_arities)
    offset = 0
    for b, nb, stride in zip(sel_arities, nbits, cell_strides):
        digit = (codes >> offset) & ((1 << nb) - 1)
        ok &= digit < b
        cell += digit * stride
        offset += nb
    valid = np.flatnonzero(ok)
    out_cell = cell[valid]
    valid.setflags(write=False)
    out_cell.setflags(write=False)
    return valid, out_cell


class PackedCategoricalDataset:
    """A bit-plane packed ``N x d`` mixed categorical dataset.

    Drop-in for :class:`~repro.categorical.dataset.CategoricalDataset`
    in every marginal-extraction role (``num_records``,
    ``num_attributes``, ``arities``, ``marginal``), with bitwise
    identical results.  For an all-binary domain the layout reduces
    exactly to :class:`~repro.kernels.packed.PackedDataset`'s.

    Parameters
    ----------
    words:
        ``(sum_j nbits_j, ceil(N/64))`` uint64 bit-plane rows, as
        built by :meth:`from_array`; padding bits past ``N`` are zero.
    num_records:
        ``N``.
    domain:
        The :class:`~repro.marginals.domain.Domain` (or arities /
        JSON blob accepted by :func:`~repro.marginals.domain.as_domain`).
    """

    def __init__(
        self,
        words: np.ndarray,
        num_records: int,
        domain,
        name: str = "packed-cat",
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ):
        self.domain = as_domain(domain)
        words = np.ascontiguousarray(words, dtype=np.uint64)
        nbits = [plane_count(b) for b in self.domain.arities]
        offsets = np.concatenate([[0], np.cumsum(nbits)])
        if words.ndim != 2 or words.shape[0] != offsets[-1]:
            raise DimensionError(
                f"words shape {words.shape} inconsistent with domain "
                f"{self.domain!r} ({offsets[-1]} bit-planes)"
            )
        if num_records < 0 or words.shape[1] != (num_records + 63) // 64:
            raise DimensionError(
                f"words shape {words.shape} inconsistent with N={num_records}"
            )
        if chunk_words < 1:
            raise DimensionError(f"chunk_words must be >= 1, got {chunk_words}")
        self._words = words
        self._num_records = int(num_records)
        self._nbits = tuple(nbits)
        self._offsets = tuple(int(o) for o in offsets[:-1])
        self.name = name
        self.chunk_words = int(chunk_words)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_array(
        cls,
        data,
        domain,
        name: str = "packed-cat",
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ) -> "PackedCategoricalDataset":
        """Pack an ``(N, d)`` integer code matrix against ``domain``."""
        domain = as_domain(domain)
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
        if arr.shape[1] != domain.num_attributes:
            raise DimensionError(
                f"data has {arr.shape[1]} columns, domain has "
                f"{domain.num_attributes} attributes"
            )
        planes = []
        for j, b in enumerate(domain.arities):
            column = arr[:, j]
            if column.size and (column.min() < 0 or column.max() >= b):
                raise DimensionError(
                    f"column {j} has values outside range({b})"
                )
            for k in range(plane_count(b)):
                planes.append((column >> k) & 1)
        with obs.span("kernel.pack"):
            words = pack_columns(
                np.stack(planes, axis=1).astype(np.uint8)
                if planes
                else np.zeros((arr.shape[0], 0), dtype=np.uint8)
            )
        return cls(words, arr.shape[0], domain, name=name, chunk_words=chunk_words)

    @classmethod
    def from_dataset(
        cls,
        dataset,
        domain=None,
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ) -> "PackedCategoricalDataset":
        """Pack a :class:`CategoricalDataset` (values already validated)."""
        domain = as_domain(
            domain
            if domain is not None
            else getattr(dataset, "domain", None) or dataset.arities
        )
        return cls.from_array(
            dataset.data,
            domain,
            name=getattr(dataset, "name", "packed-cat"),
            chunk_words=chunk_words,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def words(self) -> np.ndarray:
        """The packed bit-plane rows (read-only view)."""
        view = self._words.view()
        view.setflags(write=False)
        return view

    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_attributes(self) -> int:
        return self.domain.num_attributes

    @property
    def arities(self) -> tuple[int, ...]:
        return self.domain.arities

    def __len__(self) -> int:
        return self._num_records

    def __repr__(self) -> str:
        return (
            f"PackedCategoricalDataset(name={self.name!r}, "
            f"N={self.num_records}, arities={self.arities})"
        )

    def _plane_rows(self, attrs) -> tuple[list[int], tuple[int, ...]]:
        """Bit-plane row indices (LSB-first, attr-major) for ``attrs``."""
        rows: list[int] = []
        sel_arities = []
        for a in attrs:
            rows.extend(range(self._offsets[a], self._offsets[a] + self._nbits[a]))
            sel_arities.append(self.arities[a])
        return rows, tuple(sel_arities)

    def unpacked(self) -> np.ndarray:
        """The dataset back as an ``(N, d)`` int64 code matrix."""
        from repro.kernels.packed import unpack_columns

        bits = unpack_columns(self._words, self._num_records)
        out = np.zeros((self._num_records, self.num_attributes), dtype=np.int64)
        for j in range(self.num_attributes):
            for k in range(self._nbits[j]):
                out[:, j] |= bits[:, self._offsets[j] + k].astype(np.int64) << k
        return out

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def cell_counts(self, attrs) -> np.ndarray:
        """Exact mixed-radix cell counts of the marginal over ``attrs``."""
        attrs = AttrSet(attrs, self.num_attributes)
        rows, sel_arities = self._plane_rows(attrs)
        size = math.prod(sel_arities)
        with obs.span("kernel.marginal"):
            if not rows:
                counts = np.array([float(self._num_records)])
            elif len(rows) <= 8:
                codes = bit_histogram(
                    self._words[rows], self._num_records, self.chunk_words
                )
                valid, cell = _code_fold(sel_arities)
                counts = np.zeros(size)
                np.add.at(counts, cell, codes[valid])
            else:
                counts = self._wide_counts(rows, sel_arities)
        obs.incr("kernel.packed_cat_marginals")
        return counts

    def _wide_counts(self, rows, sel_arities) -> np.ndarray:
        """Chunked unpack + bincount for targets wider than 8 planes."""
        cell_strides = strides(sel_arities)
        counts = np.zeros(math.prod(sel_arities), dtype=np.int64)
        nwords = self._words.shape[1]
        plane_rows = self._words[rows]
        nbits = [plane_count(b) for b in sel_arities]
        for start in range(0, nwords, self.chunk_words):
            stop = min(start + self.chunk_words, nwords)
            bits = np.unpackbits(
                np.ascontiguousarray(plane_rows[:, start:stop]).view(np.uint8),
                axis=1,
                bitorder="little",
            )
            lo = start * 64
            hi = min(stop * 64, self._num_records)
            if hi <= lo:
                break
            bits = bits[:, : hi - lo]
            idx = np.zeros(bits.shape[1], dtype=np.int64)
            row = 0
            for nb, stride in zip(nbits, cell_strides):
                digit = np.zeros(bits.shape[1], dtype=np.int64)
                for k in range(nb):
                    digit |= bits[row + k].astype(np.int64) << k
                idx += digit * stride
                row += nb
            counts += np.bincount(idx, minlength=counts.size)
        return counts.astype(np.float64)

    def marginal(self, attrs) -> MarginalTable:
        """The exact (non-private) marginal table over ``attrs``.

        Bitwise identical to ``CategoricalDataset.marginal`` on the
        same records.
        """
        attrs = AttrSet(attrs, self.num_attributes)
        _, sel_arities = self._plane_rows(attrs)
        return MarginalTable(
            attrs.with_arities(sel_arities), self.cell_counts(attrs)
        )

    def marginals(self, attr_sets) -> list[MarginalTable]:
        return [self.marginal(attrs) for attrs in attr_sets]


def as_packed_categorical(
    dataset, domain=None, chunk_words: int = DEFAULT_CHUNK_WORDS
):
    """``dataset`` as a :class:`PackedCategoricalDataset` (pass-through
    if already packed)."""
    if isinstance(dataset, PackedCategoricalDataset):
        return dataset
    return PackedCategoricalDataset.from_dataset(
        dataset, domain=domain, chunk_words=chunk_words
    )
