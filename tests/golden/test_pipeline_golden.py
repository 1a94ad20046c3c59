"""Seeded golden outputs of the fit → answer pipeline.

Three slices, each in its own fixture next to this file:

* ``binary.json`` — sha256 of the views of a seeded binary ``PriView``
  fit, serially and on two workers, and of its answers
  on a fixed query set: covered targets, plus solved targets for every
  reconstruction method, one at a time and through ``marginals()``
  (the two must hash alike);
* ``categorical.json`` — sha256 of the views of a seeded
  ``PriView`` fit and of its covered answers, plus the
  stored cells of its uncovered ``maxent`` answers.  Those are
  compared with a tolerance rather than a hash: the solver's
  constraint order may move them by round-off.  Each stored answer
  records whether it met its view constraints to ``CONSTRAINT_TOL``;
  an answer that did not must now say so in ``meta["maxent"]``;
* ``stream.json`` — sha256 of the views of one window released by
  ``repro.stream``.

A change that claims bit-identical output must leave every case
passing unchanged.  Regenerate the fixtures (only when an output
change is intended, and say so in the change log) with::

    PYTHONPATH=src python tests/golden/test_pipeline_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import tempfile

import numpy as np
import pytest

from repro.core.priview import PriView
from repro.kernels.fit import generate_noisy_views
from repro.marginals.dataset import Dataset
from repro.store import SynopsisStore
from repro.stream import BudgetSchedule, CountWindowPolicy, WindowScheduler

HERE = pathlib.Path(__file__).parent
METHODS = ("maxent", "residual", "lsq", "lp", "maxent-dual")

#: relative L1 below which a stored answer counts as meeting its
#: constraints, and within which a re-solved answer must agree
CONSTRAINT_TOL = 1e-9

FITS = {"default": {}, "workers2": {"workers": 2}}

CATEGORICAL_ARITIES = (3, 2, 4, 3, 2, 5, 3, 2)


def tables_sha256(tables) -> str:
    """sha256 over every table's attrs and float64 counts, in order."""
    digest = hashlib.sha256()
    for table in tables:
        digest.update(repr(tuple(int(a) for a in table.attrs)).encode())
        digest.update(
            np.ascontiguousarray(table.counts, dtype=np.float64).tobytes()
        )
    return digest.hexdigest()


def _query_sets(synopsis, d: int, k: int, count: int):
    """The first ``count`` covered and uncovered k-sets, in order."""
    covered, uncovered = [], []
    for attrs in itertools.combinations(range(d), k):
        bucket = covered if synopsis.is_covered(attrs) else uncovered
        if len(bucket) < count:
            bucket.append(attrs)
    return covered, uncovered


# ----------------------------------------------------------------------
# binary
# ----------------------------------------------------------------------
def _binary_data():
    return Dataset.random(3000, 9, rng=np.random.default_rng(11))


def _binary_fit(**options):
    return PriView(epsilon=1.0, view_width=5, seed=3, **options).fit(_binary_data())


def binary_outcome() -> dict:
    fits = {name: _binary_fit(**kw) for name, kw in FITS.items()}
    synopsis = fits["default"]
    covered, uncovered = _query_sets(synopsis, 9, 3, 4)
    answers = {
        "covered": tables_sha256(synopsis.marginal(a) for a in covered)
    }
    for method in METHODS:
        answers[f"{method}/single"] = tables_sha256(
            synopsis.marginal(a, method=method) for a in uncovered
        )
        answers[f"{method}/batch"] = tables_sha256(
            synopsis.marginals(uncovered, method=method)
        )
    return {
        "views": {name: tables_sha256(s.views) for name, s in fits.items()},
        "covered": [list(a) for a in covered],
        "uncovered": [list(a) for a in uncovered],
        "answers": answers,
    }


# ----------------------------------------------------------------------
# categorical
# ----------------------------------------------------------------------
def _categorical_fit():
    rng = np.random.default_rng(21)
    n = 6000
    columns = [rng.integers(0, CATEGORICAL_ARITIES[0], n)]
    for b in CATEGORICAL_ARITIES[1:]:
        # each attribute leans on the previous one, so max-entropy has
        # real structure to recover
        follow = rng.random(n) < 0.6
        columns.append(
            np.where(follow, columns[-1] % b, rng.integers(0, b, n))
        )
    data = Dataset(np.stack(columns, axis=1), CATEGORICAL_ARITIES)
    return PriView(epsilon=1.0, max_cells=40, seed=5).fit(data)


def constraint_gap(synopsis, table) -> float:
    """Largest relative L1 gap between ``table`` and a view on their
    shared attributes."""
    total = synopsis.total_count()
    gap = 0.0
    for view in synopsis.views:
        shared = tuple(a for a in table.attrs if a in view.attrs)
        if shared:
            diff = table.project(shared).counts - view.project(shared).counts
            gap = max(gap, float(np.abs(diff).sum()) / total)
    return gap


def categorical_outcome() -> dict:
    synopsis = _categorical_fit()
    d = len(CATEGORICAL_ARITIES)
    covered2, _ = _query_sets(synopsis, d, 2, 6)
    covered3, uncovered3 = _query_sets(synopsis, d, 3, 8)
    _, uncovered4 = _query_sets(synopsis, d, 4, 6)
    covered = covered2 + covered3
    solved = []
    for attrs in uncovered3 + uncovered4:
        table = synopsis.marginal(attrs, method="maxent")
        solved.append({
            "attrs": list(attrs),
            "counts": table.counts.tolist(),
            "met": constraint_gap(synopsis, table) <= CONSTRAINT_TOL,
        })
    return {
        "views": tables_sha256(synopsis.views),
        "view_cells": [int(np.size(v.counts)) for v in synopsis.views],
        "covered": [list(a) for a in covered],
        "covered_sha256": tables_sha256(
            synopsis.marginal(a) for a in covered
        ),
        "maxent": solved,
    }


# ----------------------------------------------------------------------
# stream window
# ----------------------------------------------------------------------
def stream_outcome() -> dict:
    rng = np.random.default_rng(31)
    events = [
        [int(x) for x in np.nonzero(rng.random(6) < 0.4)[0]]
        for _ in range(400)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        store = SynopsisStore(pathlib.Path(tmp) / "store")
        released = WindowScheduler(
            store, "clicks", 6, BudgetSchedule(1.0), CountWindowPolicy(200),
            view_width=4, seed=42,
        ).run(events)
        window = store.load_version(
            store.resolve(f"clicks@{released[-1].version}")
        )
    return {
        "windows": len(released),
        "views": tables_sha256(window.views),
    }


OUTCOMES = {
    "binary": binary_outcome,
    "categorical": categorical_outcome,
    "stream": stream_outcome,
}


def _fixture(name: str) -> dict:
    return json.loads((HERE / f"{name}.json").read_text())


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def binary():
    return binary_outcome()


@pytest.fixture(scope="module")
def categorical():
    return categorical_outcome()


@pytest.mark.parametrize("fit", sorted(FITS))
def test_binary_views_match_golden(fit, binary):
    assert binary["views"][fit] == _fixture("binary")["views"][fit]


def test_binary_fits_agree_across_workers_and_packing():
    views = _fixture("binary")["views"]
    assert views["default"] == views["workers2"]
    # the same per-view streams over Dataset.marginal release the same views
    data = _binary_data()
    mechanism = PriView(epsilon=1.0, view_width=5, seed=3)
    blocks = mechanism.choose_design(data).blocks
    unpacked = generate_noisy_views(
        data, blocks, 1.0, len(blocks), root_seed=np.random.SeedSequence(3)
    )
    assert tables_sha256(mechanism.post_process(unpacked)) == views["default"]


def test_binary_query_sets_match_golden(binary):
    golden = _fixture("binary")
    assert binary["covered"] == golden["covered"]
    assert binary["uncovered"] == golden["uncovered"]


@pytest.mark.parametrize(
    "answer",
    ["covered"] + [f"{m}/{mode}" for m in METHODS for mode in ("single", "batch")],
)
def test_binary_answers_match_golden(answer, binary):
    assert binary["answers"][answer] == _fixture("binary")["answers"][answer]


@pytest.mark.parametrize("method", METHODS)
def test_binary_batch_answers_equal_single(method, binary):
    """An answer depends only on the synopsis, the target and the
    method, never on the rest of its batch."""
    for answers in (binary["answers"], _fixture("binary")["answers"]):
        assert answers[f"{method}/batch"] == answers[f"{method}/single"]


def test_categorical_views_match_golden(categorical):
    golden = _fixture("categorical")
    assert categorical["views"] == golden["views"]
    assert categorical["view_cells"] == golden["view_cells"]


def test_categorical_covered_answers_match_golden(categorical):
    golden = _fixture("categorical")
    assert categorical["covered"] == golden["covered"]
    assert categorical["covered_sha256"] == golden["covered_sha256"]


def test_categorical_maxent_answers_match_golden():
    golden = _fixture("categorical")["maxent"]
    assert golden, "the fixture must hold uncovered targets"
    synopsis = _categorical_fit()
    for record in golden:
        table = synopsis.marginal(tuple(record["attrs"]), method="maxent")
        stored = np.asarray(record["counts"])
        assert table.counts.shape == stored.shape
        if record["met"]:
            gap = np.abs(table.counts - stored).sum() / stored.sum()
            assert gap <= CONSTRAINT_TOL, (record["attrs"], gap)
        else:
            info = table.meta["maxent"]
            assert {"converged", "damped"} <= set(info), record["attrs"]


def test_stream_window_matches_golden():
    assert stream_outcome() == _fixture("stream")


if __name__ == "__main__":
    for name, outcome in OUTCOMES.items():
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(outcome(), indent=2) + "\n")
        print(f"wrote {path}")
