"""Tests for the bit-plane marginal kernels.

The load-bearing property: ``PackedDataset.marginal`` is *bitwise*
identical to ``Dataset.marginal`` for every (N, arities, attrs) — both
count exactly, so the assertion is ``array_equal``, never
``allclose``.  Each equality check runs on an all-binary dataset and a
mixed-arity one, including targets wider than 8 and 16 bit-planes (the
two-group transpose histogram and the chunked unpack path).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.packed as packed_mod
from repro import obs
from repro.exceptions import DimensionError
from repro.kernels.packed import (
    DEFAULT_CHUNK_WORDS,
    PackedDataset,
    as_packed,
    pack_columns,
    plane_count,
    popcount_words,
    unpack_columns,
)
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Domain


def _random_dataset(seed: int, n: int, d: int, mixed: bool = False) -> Dataset:
    """Binary data of a random density, or uniform codes of random
    arities 2..8 when ``mixed``."""
    rng = np.random.default_rng(seed)
    if mixed:
        arities = tuple(int(b) for b in rng.integers(2, 9, size=d))
        return Dataset.random(n, arities, rng=rng)
    density = rng.uniform(0.05, 0.95)
    return Dataset((rng.random((n, d)) < density).astype(np.uint8))


def _both_kinds(seed: int, n: int, d: int):
    """The all-binary and the mixed-arity dataset for one case."""
    return [_random_dataset(seed, n, d, mixed) for mixed in (False, True)]


def _assert_same(packed, dataset, attrs) -> None:
    got = packed.marginal(attrs)
    expected = dataset.marginal(attrs)
    assert got.attrs == expected.attrs
    assert got.attrs.arities == expected.attrs.arities
    assert np.array_equal(got.counts, expected.counts)


class TestPackUnpack:
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 300), d=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, seed, n, d):
        data = _random_dataset(seed, n, d).data
        words = pack_columns(data)
        assert words.shape == (d, (n + 63) // 64)
        assert np.array_equal(unpack_columns(words, n), data)

    def test_padding_bits_are_zero(self):
        data = np.ones((65, 2), dtype=np.uint8)
        words = pack_columns(data)
        # 65 records -> 2 words; the upper 63 bits of word 1 must be 0
        assert words[0, 1] == 1 and words[1, 1] == 1

    def test_bit_layout(self):
        # record r, attribute j -> bit r % 64 of word r // 64 of row j
        data = np.zeros((70, 2), dtype=np.uint8)
        data[3, 0] = 1
        data[66, 1] = 1
        words = pack_columns(data)
        assert words[0, 0] == np.uint64(1) << np.uint64(3)
        assert words[1, 1] == np.uint64(1) << np.uint64(66 - 64)

    def test_rejects_one_dimensional(self):
        with pytest.raises(DimensionError):
            pack_columns(np.array([0, 1, 0]))


class TestPlaneCount:
    def test_matches_bit_length(self):
        for arity in range(2, 40):
            assert plane_count(arity) == (arity - 1).bit_length()


class TestPopcount:
    def test_counts_bits(self):
        words = np.array([0, 1, 0xFF, ~np.uint64(0)], dtype=np.uint64)
        assert popcount_words(words) == 0 + 1 + 8 + 64

    def test_fallback_lut_matches(self, monkeypatch):
        lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint64)
        monkeypatch.setattr(packed_mod, "_HAS_BITWISE_COUNT", False)
        monkeypatch.setattr(packed_mod, "_POPCOUNT_LUT", lut, raising=False)
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, 257, dtype=np.uint64)
        expected = sum(bin(int(w)).count("1") for w in words)
        assert popcount_words(words) == expected

    def test_fallback_marginal_identical(self, monkeypatch):
        lut = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint64)
        monkeypatch.setattr(packed_mod, "_HAS_BITWISE_COUNT", False)
        monkeypatch.setattr(packed_mod, "_POPCOUNT_LUT", lut, raising=False)
        for dataset in _both_kinds(7, 500, 8):
            packed = PackedDataset.from_dataset(dataset)
            for attrs in [(0,), (1, 4), (0, 2, 5, 7)]:
                _assert_same(packed, dataset, attrs)
            np.testing.assert_allclose(
                packed.attribute_means(), dataset.attribute_means()
            )


class TestMarginalEquality:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(0, 400),
        d=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_unpacked(self, seed, n, d, data):
        arity = data.draw(st.integers(0, min(d, 5)))
        attrs = tuple(
            data.draw(
                st.lists(
                    st.integers(0, d - 1), min_size=arity, max_size=arity, unique=True
                )
            )
        )
        for dataset in _both_kinds(seed, n, d):
            _assert_same(PackedDataset.from_dataset(dataset), dataset, attrs)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129, 1000])
    def test_word_boundary_sizes(self, n):
        for dataset in _both_kinds(n + 1, n, 10):
            packed = PackedDataset.from_dataset(dataset)
            # the last target spans more than 8 bit-planes on both kinds
            for attrs in [(), (0,), (1, 3), (0, 2, 4, 5), tuple(range(10))]:
                _assert_same(packed, dataset, attrs)

    @pytest.mark.parametrize("planes", [8, 9, 16, 17])
    def test_kernel_boundaries(self, planes):
        """Targets at the edges of the one- and two-group transpose
        histogram (up to 16 bit-planes) and of the unpack path above."""
        rng = np.random.default_rng(planes)
        binary = Dataset.random(1000, 17, rng=rng)
        _assert_same(binary.packed(chunk_words=5), binary, tuple(range(planes)))
        # eight 2-plane attributes and one binary one
        mixed = Dataset.random(1000, (3,) * 8 + (2,), rng=rng)
        attrs = tuple(range(planes // 2)) + ((8,) if planes % 2 else ())
        _assert_same(mixed.packed(chunk_words=5), mixed, attrs)

    def test_chunked_streaming_equal(self):
        for dataset in _both_kinds(3, 5000, 12):
            whole = PackedDataset.from_dataset(dataset)
            chunked = PackedDataset.from_dataset(dataset, chunk_words=3)
            for attrs in [(0, 2, 3, 6, 7), (0, 1, 2, 4, 5, 8, 9, 10, 11)]:
                assert np.array_equal(
                    chunked.marginal(attrs).counts, whole.marginal(attrs).counts
                )
                _assert_same(chunked, dataset, attrs)

    def test_empty_attrs_is_total(self):
        for dataset in _both_kinds(0, 321, 4):
            packed = PackedDataset.from_dataset(dataset)
            assert packed.marginal(()).counts.tolist() == [321.0]

    def test_marginals_plural(self):
        blocks = [(0, 1), (2, 4)]
        for dataset in _both_kinds(5, 200, 5):
            packed = PackedDataset.from_dataset(dataset)
            for got, expected in zip(
                packed.marginals(blocks), dataset.marginals(blocks)
            ):
                assert np.array_equal(got.counts, expected.counts)

    def test_attribute_means(self):
        for dataset in _both_kinds(9, 777, 6):
            packed = PackedDataset.from_dataset(dataset)
            np.testing.assert_allclose(
                packed.attribute_means(), dataset.attribute_means()
            )


class TestPackedEqualsNaive:
    """Mixed categorical domains: arities from 2 to 8 per attribute."""

    @pytest.mark.parametrize("trial", range(5))
    def test_random_mixed_domains(self, trial):
        """Property: every k-way marginal of a packed dataset is
        bitwise identical to the naive extractor's, across random
        mixed domains and record counts straddling word boundaries."""
        rng = np.random.default_rng(100 + trial)
        d = int(rng.integers(4, 9))
        arities = tuple(int(b) for b in rng.integers(2, 9, size=d))
        n = int(rng.integers(50, 400))
        dataset = Dataset.random(n, arities, rng=rng)
        packed = as_packed(dataset)
        assert packed.arities == arities
        for k in (1, 2, 3):
            for attrs in itertools.combinations(range(d), k):
                _assert_same(packed, dataset, attrs)

    def test_word_boundary_sizes(self):
        rng = np.random.default_rng(0)
        for n in (63, 64, 65, 128, 129):
            dataset = Dataset.random(n, (3, 5, 2), rng=rng)
            packed = as_packed(dataset)
            for attrs in ((0,), (1, 2), (0, 1, 2)):
                _assert_same(packed, dataset, attrs)

    def test_unpacked_round_trip(self):
        rng = np.random.default_rng(1)
        dataset = Dataset.random(200, (4, 3, 7), rng=rng)
        packed = as_packed(dataset)
        np.testing.assert_array_equal(packed.unpacked(), dataset.data)

    def test_as_packed_passthrough(self):
        rng = np.random.default_rng(2)
        dataset = Dataset.random(64, (3, 3), rng=rng)
        packed = as_packed(dataset)
        assert as_packed(packed) is packed

    def test_domain_rides_along(self):
        dom = Domain.from_arities((3, 4))
        dataset = Dataset.random(100, dom, rng=np.random.default_rng(3))
        packed = as_packed(dataset)
        assert isinstance(packed, PackedDataset)
        assert packed.domain == dom


class TestConstructionAndValidation:
    def test_from_array_rejects_non_binary(self):
        with pytest.raises(DimensionError):
            PackedDataset.from_array(np.array([[0, 2]]))
        with pytest.raises(DimensionError):
            PackedDataset.from_array(np.array([[0, 3]]), arities=(2, 3))

    def test_words_shape_must_match_n(self):
        with pytest.raises(DimensionError):
            PackedDataset(np.zeros((3, 2), np.uint64), num_records=300)
        with pytest.raises(DimensionError):
            PackedDataset(np.zeros((3, 1), np.uint64), 10, arities=(5, 2))

    def test_chunk_words_positive(self):
        with pytest.raises(DimensionError):
            PackedDataset(np.zeros((3, 1), np.uint64), 10, chunk_words=0)

    def test_words_read_only(self):
        packed = PackedDataset.from_array(np.zeros((10, 3), np.uint8))
        with pytest.raises(ValueError):
            packed.words[0, 0] = 1

    def test_unpacked_roundtrip(self):
        for dataset in _both_kinds(2, 150, 7):
            packed = PackedDataset.from_dataset(dataset)
            assert packed.unpacked().dtype == dataset.data.dtype
            assert np.array_equal(packed.unpacked(), dataset.data)

    def test_out_of_range_attrs_rejected(self):
        for arities in (None, (3, 2, 5)):
            packed = PackedDataset.from_array(np.zeros((10, 3), np.uint8), arities)
            for attrs in [(0, 3), (0, -1)]:
                with pytest.raises(DimensionError):
                    packed.marginal(attrs)


class TestAsPacked:
    def test_passthrough(self):
        packed = PackedDataset.from_array(np.zeros((4, 2), np.uint8))
        assert as_packed(packed) is packed

    def test_dataset_packed_is_cached(self):
        for dataset in _both_kinds(1, 100, 4):
            assert dataset.packed() is dataset.packed()
            assert as_packed(dataset) is dataset.packed()
            assert dataset.packed().chunk_words == DEFAULT_CHUNK_WORDS

    def test_chunk_override_rebuilds_wrapper_not_words(self):
        for dataset in _both_kinds(1, 100, 4):
            base = dataset.packed()
            tuned = dataset.packed(chunk_words=16)
            assert tuned.chunk_words == 16
            assert tuned.arities == base.arities
            assert np.array_equal(tuned.words, base.words)

    def test_raw_array_accepted(self):
        data = np.eye(5, dtype=np.uint8)
        packed = as_packed(data)
        assert np.array_equal(
            packed.marginal((0, 1)).counts,
            Dataset(data).marginal((0, 1)).counts,
        )


class TestObservability:
    def test_kernel_counters_and_spans(self):
        for dataset in _both_kinds(4, 300, 5):
            with obs.session() as sess:
                packed = PackedDataset.from_dataset(dataset)
                packed.marginal((0, 2))
                packed.marginal((1, 3, 4))
                snapshot = sess.metrics.snapshot()
            assert snapshot["counters"]["kernel.packed_marginals"] == 2
