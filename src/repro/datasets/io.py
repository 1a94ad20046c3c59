"""Persisting binary datasets (compressed .npz)."""

from __future__ import annotations

import os
import pathlib

import numpy as np

from repro.exceptions import DatasetError
from repro.marginals.dataset import Dataset


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> pathlib.Path:
    """Write a dataset to ``path`` (.npz, bit-packed)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    packed = np.packbits(dataset.data, axis=1)
    np.savez_compressed(
        path,
        packed=packed,
        num_attributes=dataset.num_attributes,
        name=np.array(dataset.name),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Load a dataset written by :func:`save_dataset`."""
    path = pathlib.Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise DatasetError(f"missing dataset file {path}")
    with np.load(path, allow_pickle=False) as archive:
        packed = archive["packed"]
        d = int(archive["num_attributes"])
        name = str(archive["name"])
    data = np.unpackbits(packed, axis=1)[:, :d]
    return Dataset(data, name=name)
