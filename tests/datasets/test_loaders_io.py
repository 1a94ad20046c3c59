"""Tests for dataset loaders and persistence."""

import numpy as np
import pytest

from repro.datasets.io import load_dataset, save_dataset
from repro.datasets.loaders import (
    load_fimi_transactions,
    load_msnbc_sequences,
    load_or_synthesize,
)
from repro.exceptions import DatasetError
from repro.marginals.dataset import Dataset


class TestFimiLoader:
    def test_parses_and_keeps_top_items(self, tmp_path):
        path = tmp_path / "toy.dat"
        path.write_text("1 2 3\n2 3\n3\n2 3 9\n")
        ds = load_fimi_transactions(path, num_attributes=2)
        assert ds.num_records == 4
        # items by frequency: 3 (4x), 2 (3x) -> indices 0, 1
        assert np.array_equal(
            ds.data, [[1, 1], [1, 1], [1, 0], [1, 1]]
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_fimi_transactions(tmp_path / "nope.dat", 5)


class TestMsnbcLoader:
    def test_parses_sequences(self, tmp_path):
        path = tmp_path / "msnbc.seq"
        path.write_text("% comment\n1 1 2\n2 3\n1\n")
        ds = load_msnbc_sequences(path, num_attributes=2)
        assert ds.num_records == 3
        # categories by frequency: 1 (2 users), 2 (2 users) -> ties fine
        assert ds.num_attributes == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_msnbc_sequences(tmp_path / "nope.seq")


class TestLoadOrSynthesize:
    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            load_or_synthesize("census")

    def test_synthesizes_without_data_dir(self, rng, monkeypatch):
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        ds = load_or_synthesize("msnbc", num_records=200, rng=rng)
        assert ds.num_records == 200
        assert ds.num_attributes == 9

    def test_prefers_real_file(self, tmp_path, rng):
        (tmp_path / "kosarak.dat").write_text("1 2\n2 3\n" * 50)
        ds = load_or_synthesize("kosarak", data_dir=tmp_path)
        assert ds.name == "kosarak"
        assert ds.num_records == 100

    def test_truncates_real_file(self, tmp_path):
        (tmp_path / "kosarak.dat").write_text("1 2\n2 3\n" * 50)
        ds = load_or_synthesize("kosarak", data_dir=tmp_path, num_records=10)
        assert ds.num_records == 10


class TestDatasetIO:
    def test_round_trip(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny.npz")
        again = load_dataset(path)
        assert np.array_equal(again.data, tiny_dataset.data)
        assert again.name == tiny_dataset.name

    def test_round_trip_odd_width(self, tmp_path, rng):
        """d not divisible by 8 exercises the bit-packing edge."""
        ds = Dataset.random(40, 13, rng=rng)
        path = save_dataset(ds, tmp_path / "odd.npz")
        assert np.array_equal(load_dataset(path).data, ds.data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "missing.npz")
