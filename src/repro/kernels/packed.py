"""Bit-plane packed datasets and popcount marginal kernels.

A :class:`PackedDataset` bit-slices each attribute's code into
``ceil(log2(b))`` bit-planes for an attribute of arity ``b`` (LSB
first), and stores every plane as a row of ``ceil(N / 64)`` uint64
words — record ``r``'s bit is bit ``r % 64`` of word ``r // 64``
(little-endian bit order).  A binary attribute is one plane, so a
binary dataset is one row per attribute, 8x smaller than the uint8
matrix, and the marginal kernel touches 64 records per machine word.

The marginal over ``attrs`` has two kernels:

1. **Transpose histogram** (the selected attributes span ``<= 16``
   planes — every binary view width in use, up to the ``l = 11``
   designs of Figure 6).  The packed bytes of each group of up to 8
   planes are interleaved so that every 8 bytes form an 8x8 bit matrix
   (plane x record) inside one uint64; three vectorized mask/shift
   steps (the classic 8x8 bit-matrix transpose) flip every matrix at
   once, after which byte ``i`` of each word *is* record ``i``'s code
   over that group's planes.  A second group (9 to 16 planes) supplies
   the code's high byte.  One ``np.bincount`` counts the codes, and a
   cached fold (:func:`_code_fold`) gathers each mixed-radix cell's
   code — skipped when every attribute is binary, where code and cell
   coincide; codes with an out-of-range digit hold no records and are
   dropped.  Cost is ~25 ufunc passes over ``N`` bytes per group of 8
   planes, independent of the cell count.
2. **Chunked unpack + bincount** (more than 16 planes): unpack a chunk
   of the selected planes, rebuild each record's cell index, and
   bincount it.

Both kernels stream over chunks of words (:data:`DEFAULT_CHUNK_WORDS`)
so their working sets stay cache-resident at any ``N``.

The result is **bitwise identical** to
:meth:`repro.marginals.dataset.Dataset.marginal` (both count exactly,
in int-exact arithmetic) — property-tested on binary and mixed
domains in ``tests/kernels/test_packed.py``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro import obs
from repro.exceptions import DimensionError
from repro.marginals.attrs import AttrSet
from repro.marginals.projection import strides
from repro.marginals.table import MarginalTable

#: Words per streaming chunk.  1024 words keeps the transpose
#: histogram's working set (~3 buffers of ``8 * chunk`` bytes, ~24 KiB)
#: inside L2.  Measured best or tied-best from N=200k to N=1M; larger
#: chunks spill to L3/DRAM and cost 10-50%.
DEFAULT_CHUNK_WORDS = 1024

#: 8x8 bit-matrix transpose as three vectorized mask/shift steps
#: (Hacker's Delight §7-3): each ``(keep, move, shift)`` swaps the
#: off-diagonal blocks at one granularity, so bit ``8a + b`` of every
#: uint64 ends up at position ``8b + a``.
_TRANSPOSE_STEPS = (
    (np.uint64(0xAA55AA55AA55AA55), np.uint64(0x00AA00AA00AA00AA), np.uint64(7)),
    (np.uint64(0xCCCC3333CCCC3333), np.uint64(0x0000CCCC0000CCCC), np.uint64(14)),
    (np.uint64(0xF0F0F0F00F0F0F0F), np.uint64(0x00000000F0F0F0F0), np.uint64(28)),
)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

if not _HAS_BITWISE_COUNT:  # pragma: no cover - exercised via monkeypatch
    _POPCOUNT_LUT = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint64
    )


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across a uint64 array.

    Uses ``np.bitwise_count`` (numpy >= 2.0) when available, falling
    back to an 8-bit lookup table over the byte view otherwise — same
    result, roughly 3x slower, no extra dependency.
    """
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum(dtype=np.uint64))
    return int(_POPCOUNT_LUT[words.view(np.uint8)].sum(dtype=np.uint64))


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a contiguous 2-D uint64 array."""
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=1, dtype=np.uint64)
    return (
        _POPCOUNT_LUT[words.view(np.uint8)]
        .reshape(words.shape[0], -1)
        .sum(axis=1, dtype=np.uint64)
    )


def pack_columns(data: np.ndarray) -> np.ndarray:
    """Pack an ``(N, d)`` 0/1 matrix into ``(d, ceil(N/64))`` words.

    Bit ``r % 64`` (little-endian) of word ``r // 64`` of row ``j``
    holds record ``r``'s value for attribute ``j``; the final word is
    zero-padded past ``N``.
    """
    arr = np.asarray(data, dtype=np.uint8)
    if arr.ndim != 2:
        raise DimensionError(f"data must be 2-D, got shape {arr.shape}")
    n, d = arr.shape
    nwords = (n + 63) // 64
    bits = np.packbits(np.ascontiguousarray(arr.T), axis=1, bitorder="little")
    nbytes = nwords * 8
    if bits.shape[1] < nbytes:
        bits = np.concatenate(
            [bits, np.zeros((d, nbytes - bits.shape[1]), np.uint8)], axis=1
        )
    return np.ascontiguousarray(bits).view(np.uint64)


def unpack_columns(words: np.ndarray, num_records: int) -> np.ndarray:
    """Inverse of :func:`pack_columns`: back to an ``(N, d)`` matrix."""
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little"
    )
    return np.ascontiguousarray(bits[:, :num_records].T)


def bit_histogram(
    rows: np.ndarray,
    num_records: int,
    chunk_words: int = DEFAULT_CHUNK_WORDS,
) -> np.ndarray:
    """Counts over the ``2**m`` binary codes of ``m`` packed bit rows.

    ``rows`` is an ``(m, ceil(N/64))`` uint64 array (``m <= 16``) whose
    padding bits past ``N`` are zero; code bit ``j`` of record ``r`` is
    bit ``r`` of row ``j``.  This is the transpose-histogram kernel
    of :meth:`PackedDataset.cell_counts`: interleave the packed bytes
    of each group of up to 8 rows into 8x8 bit matrices, transpose
    each with :data:`_TRANSPOSE_STEPS`, join the per-record code bytes
    of the (at most two) groups, and bincount the codes.  Padding
    records land on code 0 and are subtracted.
    """
    m = rows.shape[0]
    if not 0 < m <= 16:
        raise DimensionError(f"bit_histogram needs 1..16 rows, got {m}")
    counts = np.zeros(1 << m, dtype=np.int64)
    nwords = rows.shape[1]
    for start in range(0, nwords, chunk_words):
        stop = min(start + chunk_words, nwords)
        cols = np.ascontiguousarray(rows[:, start:stop]).view(np.uint8)
        code = None
        for group in range(0, m, 8):
            interleaved = np.zeros((cols.shape[1], 8), dtype=np.uint8)
            interleaved[:, : min(8, m - group)] = cols[group : group + 8].T
            w = interleaved.view(np.uint64).ravel()
            for keep, move, shift in _TRANSPOSE_STEPS:
                w = (w & keep) | ((w & move) << shift) | ((w >> shift) & move)
            byte = w.view(np.uint8)
            code = byte if code is None else code | (byte.astype(np.uint16) << 8)
        counts += np.bincount(code, minlength=counts.size)
    counts[0] -= nwords * 64 - num_records
    return counts.astype(np.float64)


def plane_count(arity: int) -> int:
    """Bit-planes needed for codes in ``range(arity)``."""
    return max(1, (int(arity) - 1).bit_length())


@functools.lru_cache(maxsize=4096)
def _code_fold(radix: tuple[int, ...]) -> np.ndarray:
    """The binary plane code of every mixed-radix cell over ``radix``.

    Entry ``c`` is ``digit_0 | digit_1 << nbits_0 | ...`` for cell
    ``c``'s digits, so indexing the code histogram with this array
    yields the cell counts.
    """
    cells = np.arange(math.prod(radix), dtype=np.int64)
    code = np.zeros_like(cells)
    offset = 0
    for b, stride in zip(radix, strides(radix)):
        code |= ((cells // stride) % b) << offset
        offset += plane_count(b)
    code.setflags(write=False)
    return code


def _bit_planes(data: np.ndarray, arities) -> np.ndarray:
    """The ``(N, planes)`` 0/1 matrix :func:`pack_columns` stores.

    A binary matrix is its own planes; codes under ``arities`` split
    into each attribute's bits, LSB first, written plane by plane into
    one uint8 matrix so no full-width temporary outlives its column.
    """
    if not arities:
        return data
    nbits = [plane_count(b) for b in arities]
    planes = np.empty((data.shape[0], sum(nbits)), dtype=np.uint8)
    column = 0
    for j, bits in enumerate(nbits):
        for k in range(bits):
            planes[:, column] = (data[:, j] >> k) & 1
            column += 1
    return planes


class PackedDataset:
    """A bit-plane packed ``N x d`` dataset.

    Drop-in for :class:`~repro.marginals.dataset.Dataset` in every
    marginal-extraction role: exposes ``num_records``,
    ``num_attributes``, ``arities``, ``marginal``, ``marginals`` and
    ``attribute_means`` with identical (bitwise) results, at a
    fraction of the memory and typically an order of magnitude faster
    extraction.

    Parameters
    ----------
    words:
        ``(planes, ceil(N/64))`` uint64 array as built by
        :func:`pack_columns` — one plane per binary attribute,
        ``plane_count(b)`` per attribute of arity ``b``.  Padding bits
        past ``N`` must be zero.
    num_records:
        ``N`` — recoverable neither from ``words``' shape alone nor
        from its content (trailing all-zero records are legal).
    name:
        Human-readable name used in reports.
    chunk_words:
        Streaming chunk width for the marginal kernels (see module
        docstring); mostly a tuning/testing knob.
    arities:
        Per-attribute arities; ``None`` means every attribute is binary.
    domain:
        Optional :class:`~repro.marginals.domain.Domain` schema carried
        along for the fit, as on the unpacked dataset.
    """

    def __init__(
        self,
        words: np.ndarray,
        num_records: int,
        name: str = "packed",
        chunk_words: int = DEFAULT_CHUNK_WORDS,
        arities=None,
        domain=None,
    ):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise DimensionError(f"words must be 2-D, got shape {words.shape}")
        if arities is not None:
            arities = tuple(int(b) for b in arities)
        nbits = [1] * words.shape[0] if arities is None else [
            plane_count(b) for b in arities
        ]
        if sum(nbits) != words.shape[0]:
            raise DimensionError(
                f"words shape {words.shape} inconsistent with arities "
                f"{arities} ({sum(nbits)} bit-planes)"
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
        self._offsets = tuple(int(o) for o in np.cumsum([0] + nbits[:-1]))
        self.arities = arities
        self.domain = domain
        self.name = name
        self.chunk_words = int(chunk_words)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_array(
        cls,
        data,
        arities=None,
        name: str = "packed",
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ) -> "PackedDataset":
        """Pack an ``(N, d)`` array of 0/1 values, or of codes under
        ``arities``."""
        from repro.marginals.dataset import Dataset

        return cls.from_dataset(Dataset(data, arities, name=name), chunk_words)

    @classmethod
    def from_dataset(
        cls,
        dataset,
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ) -> "PackedDataset":
        """Pack a :class:`~repro.marginals.dataset.Dataset` (values
        already validated)."""
        with obs.span("kernel.pack"):
            words = pack_columns(_bit_planes(dataset.data, dataset.arities))
        return cls(
            words,
            dataset.num_records,
            name=dataset.name,
            chunk_words=chunk_words,
            arities=dataset.arities,
            domain=dataset.domain,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def words(self) -> np.ndarray:
        """The ``(planes, ceil(N/64))`` uint64 words (read-only view)."""
        view = self._words.view()
        view.setflags(write=False)
        return view

    @property
    def num_records(self) -> int:
        """``N``, the number of tuples."""
        return self._num_records

    @property
    def num_attributes(self) -> int:
        """``d``, the number of attributes."""
        return len(self._nbits)

    @property
    def num_words(self) -> int:
        """Words per plane, ``ceil(N / 64)``."""
        return self._words.shape[1]

    def __len__(self) -> int:
        return self._num_records

    def __repr__(self) -> str:
        kind = "" if self.arities is None else f", arities={self.arities}"
        return (
            f"PackedDataset(name={self.name!r}, N={self.num_records}, "
            f"d={self.num_attributes}{kind})"
        )

    def unpacked(self) -> np.ndarray:
        """The dataset back as an ``(N, d)`` matrix: uint8 0/1 values,
        or int64 codes under ``arities``."""
        bits = unpack_columns(self._words, self._num_records)
        if self.arities is None:
            return bits
        out = np.zeros((self._num_records, self.num_attributes), dtype=np.int64)
        for j, (offset, nb) in enumerate(zip(self._offsets, self._nbits)):
            for k in range(nb):
                out[:, j] |= bits[:, offset + k].astype(np.int64) << k
        return out

    def attribute_means(self) -> np.ndarray:
        """Per-attribute mean code (the fraction of ones when binary)."""
        if self._num_records == 0 or not self._nbits:
            return np.zeros(self.num_attributes)
        ones = popcount_rows(self._words).astype(np.float64)
        weights = [float(1 << k) for nb in self._nbits for k in range(nb)]
        return np.add.reduceat(ones * weights, self._offsets) / self._num_records

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def _attrs(self, attrs) -> AttrSet:
        """``attrs`` validated, with the dataset's arities attached."""
        attrs = AttrSet(attrs, self.num_attributes)
        if self.arities is None:
            return attrs
        return attrs.with_arities(self.arities[a] for a in attrs)

    def cell_counts(self, attrs) -> np.ndarray:
        """Exact cell counts of the marginal over ``attrs``."""
        attrs = self._attrs(attrs)
        rows = [
            row
            for a in attrs
            for row in range(self._offsets[a], self._offsets[a] + self._nbits[a])
        ]
        with obs.span("kernel.marginal"):
            if not rows:
                counts = np.array([float(self._num_records)])
            elif len(rows) <= 16:
                counts = bit_histogram(
                    self._words[rows], self._num_records, self.chunk_words
                )
                if attrs.arities is not None:
                    counts = counts[_code_fold(attrs.radix)]
            else:
                counts = self._wide_counts(rows, attrs.radix)
        obs.incr("kernel.packed_marginals")
        return counts

    def _wide_counts(self, rows, radix) -> np.ndarray:
        """Chunked unpack + bincount for targets wider than 16 planes."""
        counts = np.zeros(math.prod(radix), dtype=np.int64)
        plane_rows = self._words[rows]
        for start in range(0, self.num_words, self.chunk_words):
            stop = min(start + self.chunk_words, self.num_words)
            width = min(stop * 64, self._num_records) - start * 64
            bits = np.unpackbits(
                np.ascontiguousarray(plane_rows[:, start:stop]).view(np.uint8),
                axis=1,
                bitorder="little",
            )[:, :width].astype(np.int64)
            idx = np.zeros(width, dtype=np.int64)
            row = 0
            for b, stride in zip(radix, strides(radix)):
                for k in range(plane_count(b)):
                    idx += (bits[row] << k) * stride
                    row += 1
            counts += np.bincount(idx, minlength=counts.size)
        return counts.astype(np.float64)

    def marginal(self, attrs) -> MarginalTable:
        """The exact (non-private) marginal table over ``attrs``.

        Bitwise identical to ``Dataset.marginal`` on the same records.
        """
        attrs = self._attrs(attrs)
        return MarginalTable(attrs, self.cell_counts(attrs))

    def marginals(self, attr_sets) -> list[MarginalTable]:
        """Exact marginals for every attribute set in ``attr_sets``."""
        return [self.marginal(attrs) for attrs in attr_sets]


def as_packed(dataset, chunk_words: int = DEFAULT_CHUNK_WORDS):
    """``dataset`` as a :class:`PackedDataset` (pass-through if already).

    :class:`~repro.marginals.dataset.Dataset` instances cache the
    packed form on first use (see its ``packed``), so repeated fits
    don't re-pack.
    """
    if isinstance(dataset, PackedDataset):
        return dataset
    packer = getattr(dataset, "packed", None)
    if packer is not None:
        return packer(chunk_words=chunk_words)
    return PackedDataset.from_array(
        np.asarray(getattr(dataset, "data", dataset)), chunk_words=chunk_words
    )
