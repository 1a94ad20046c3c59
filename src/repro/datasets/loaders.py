"""Loaders for the original evaluation datasets (when available).

Supply the files via the ``REPRO_DATA_DIR`` environment variable or an
explicit path; :func:`load_or_synthesize` then prefers the real data
and otherwise falls back to the synthetic stand-ins of
:mod:`repro.datasets.clickstream`, applying the same preprocessing the
paper describes (top-32 pages for Kosarak, 9 attributes for MSNBC).
"""

from __future__ import annotations

import collections
import os
import pathlib

import numpy as np

from repro.datasets import clickstream
from repro.exceptions import DatasetError
from repro.marginals.dataset import Dataset

#: filename conventions checked inside REPRO_DATA_DIR
_FILENAMES = {
    "kosarak": "kosarak.dat",
    "aol": "aol_categories.dat",
    "msnbc": "msnbc990928.seq",
}


def load_fimi_transactions(
    path: str | os.PathLike,
    num_attributes: int,
    name: str = "fimi",
) -> Dataset:
    """Parse a FIMI ``.dat`` file, keeping the top-N most frequent items.

    Each line is a whitespace-separated list of item ids.  The paper's
    Kosarak preprocessing keeps the 32 most popular pages; items are
    re-indexed by decreasing frequency.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise DatasetError(f"missing FIMI file {path}")
    frequency: collections.Counter[int] = collections.Counter()
    transactions: list[list[int]] = []
    with path.open() as handle:
        for line in handle:
            items = [int(tok) for tok in line.split()]
            if items:
                transactions.append(items)
                frequency.update(set(items))
    top = [item for item, _ in frequency.most_common(num_attributes)]
    remap = {item: idx for idx, item in enumerate(top)}
    rows = np.zeros((len(transactions), num_attributes), dtype=np.uint8)
    for r, items in enumerate(transactions):
        for item in items:
            idx = remap.get(item)
            if idx is not None:
                rows[r, idx] = 1
    return Dataset(rows, name=name)


def load_msnbc_sequences(
    path: str | os.PathLike,
    num_attributes: int = 9,
    name: str = "msnbc",
) -> Dataset:
    """Parse the UCI MSNBC sequence file into binary page-visit rows.

    The UCI file lists, per user line, the categories (1..17) of
    visited pages; the paper keeps 9 attributes, which we take to be
    the 9 most visited categories.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise DatasetError(f"missing MSNBC file {path}")
    sequences: list[list[int]] = []
    with path.open() as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or not stripped[0].isdigit():
                continue  # header / comment lines
            sequences.append([int(tok) for tok in stripped.split()])
    frequency: collections.Counter[int] = collections.Counter()
    for seq in sequences:
        frequency.update(set(seq))
    top = [cat for cat, _ in frequency.most_common(num_attributes)]
    remap = {cat: idx for idx, cat in enumerate(top)}
    rows = np.zeros((len(sequences), num_attributes), dtype=np.uint8)
    for r, seq in enumerate(sequences):
        for cat in seq:
            idx = remap.get(cat)
            if idx is not None:
                rows[r, idx] = 1
    return Dataset(rows, name=name)


def load_or_synthesize(
    name: str,
    data_dir: str | os.PathLike | None = None,
    num_records: int | None = None,
    rng: np.random.Generator | None = None,
) -> Dataset:
    """Real dataset if its file is present, synthetic stand-in otherwise.

    ``name`` is ``"kosarak"``, ``"aol"`` or ``"msnbc"``.  The data
    directory defaults to ``$REPRO_DATA_DIR``.  ``num_records``
    truncates / sizes the dataset (handy for quick experiment scales).
    """
    if name not in _FILENAMES:
        raise DatasetError(
            f"unknown dataset {name!r}; choose from {sorted(_FILENAMES)}"
        )
    directory = data_dir or os.environ.get("REPRO_DATA_DIR")
    if directory:
        path = pathlib.Path(directory) / _FILENAMES[name]
        if path.exists():
            if name == "kosarak":
                dataset = load_fimi_transactions(path, 32, name="kosarak")
            elif name == "aol":
                dataset = load_fimi_transactions(path, 45, name="aol")
            else:
                dataset = load_msnbc_sequences(path, 9, name="msnbc")
            if num_records is not None and num_records < dataset.num_records:
                dataset = Dataset(
                    dataset.data[:num_records], name=dataset.name
                )
            return dataset

    generator = {
        "kosarak": clickstream.kosarak_like,
        "aol": clickstream.aol_like,
        "msnbc": clickstream.msnbc_like,
    }[name]
    if num_records is None:
        return generator(rng=rng)
    return generator(num_records=num_records, rng=rng)
