"""Seeded golden outputs of ``Synthesizer.fit``.

Each case fits a synopsis under fixed seeds, synthesises from it and
compares the population's content hash and the fit's ``meta``
(``history``, ``records_moved``, ``rounds``, ``alpha``) with the
values committed in ``synth.json``.  A change to the synthesizer that
claims bit-identical output must leave every case passing unchanged.

The cases cover the cell-code widths the update loop uses: a binary
synopsis whose views have exactly 256 cells, a categorical synopsis
with views of more than 256 cells, and an explicit population size
that differs from the synopsis total and reverts some rounds.

Regenerate the fixture (only when an output change is intended, and
say so in the change log) with::

    PYTHONPATH=src python tests/golden/test_synth_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro import obs
from repro.core.priview import PriView
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Domain
from repro.synth import Synthesizer

FIXTURE = pathlib.Path(__file__).with_name("synth.json")


def _binary_256():
    data = Dataset.random(4000, 10, rng=np.random.default_rng(1))
    return PriView(epsilon=1.0, view_width=8, seed=2).fit(data), None


def _categorical():
    domain = Domain.from_arities((2, 3, 4, 5, 6, 7, 8, 2))
    data = Dataset.random(5000, domain, rng=np.random.default_rng(4))
    return PriView(epsilon=1.0, seed=5).fit(data), None


def _explicit_num_records():
    synopsis, _ = _categorical()
    return synopsis, 3001


CASES = {
    "binary_256_cell_views": _binary_256,
    "categorical_wide_views": _categorical,
    "explicit_num_records": _explicit_num_records,
}


def outcome(case: str) -> dict:
    """The golden record of one case: hash of the population plus meta."""
    synopsis, num_records = CASES[case]()
    with obs.session() as sess:
        records = Synthesizer(seed=3).fit(synopsis, num_records=num_records)
        reverted = sess.metrics.counter("synth.rounds_reverted")
    data = np.ascontiguousarray(records.data)
    meta = records.meta
    return {
        "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
        "shape": list(data.shape),
        "dtype": str(data.dtype),
        "view_cells": sorted(int(np.size(v.counts)) for v in synopsis.views),
        "history": meta["history"],
        "records_moved": meta["records_moved"],
        "rounds": meta["rounds"],
        "rounds_reverted": int(reverted),
        "alpha": meta["alpha"],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_synthesis_matches_golden(case, golden):
    assert outcome(case) == golden[case]


def test_cases_cover_both_code_widths(golden):
    cells = [c for case in golden.values() for c in case["view_cells"]]
    assert golden["binary_256_cell_views"]["view_cells"] == [256] * len(
        golden["binary_256_cell_views"]["view_cells"]
    )
    assert max(cells) > 256
    explicit = golden["explicit_num_records"]
    assert explicit["shape"][0] != golden["categorical_wide_views"]["shape"][0]
    assert explicit["rounds_reverted"] >= 1


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({case: outcome(case) for case in sorted(CASES)}, indent=2)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
