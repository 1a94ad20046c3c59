"""Synopses written by an earlier release still load and verify.

``parent_format/`` holds a loose binary and a loose categorical
``.npz`` plus a small store with one version of each, all written by
the release before the binary and categorical table types merged.
Loading must pass both integrity checks (the store's file sha256 and
the header's ``payload_sha256``), give back the same views, and keep
binary views free of arity metadata.  Re-saving a loaded file must
write the parent's header and arrays back unchanged.

The files are fixtures of *that* release's output: do not regenerate
them with current code.  ``python tests/golden/test_parent_format.py``
is how they were made, and is kept only for the record.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.core.serialization import load_synopsis, payload_digest, save_synopsis
from repro.store import SynopsisStore

FIXTURES = pathlib.Path(__file__).with_name("parent_format")


def _expected() -> dict:
    return json.loads((FIXTURES / "expected.json").read_text())


def _check(synopsis, expected: dict) -> None:
    # The kind the parent recorded as a class name: binary synopses
    # carry no arities, categorical ones the arities of their views.
    if expected["type"] == "CategoricalSynopsis":
        arities = {
            a: b
            for attrs, view_arities in zip(
                expected["view_attrs"], expected["view_arities"]
            )
            for a, b in zip(attrs, view_arities)
        }
        assert synopsis.arities == tuple(arities[a] for a in sorted(arities))
    else:
        assert synopsis.arities is None
    assert [list(v.attrs) for v in synopsis.views] == expected["view_attrs"]
    for view, total in zip(synopsis.views, expected["view_totals"]):
        assert view.total() == total
    assert [
        None if v.attrs.arities is None else list(v.attrs.arities)
        for v in synopsis.views
    ] == expected["view_arities"]
    kind = "categorical" if expected["type"] == "CategoricalSynopsis" else "priview"
    assert payload_digest(
        synopsis.views, synopsis.domain, kind
    ) == expected["payload_sha256"]


@pytest.mark.parametrize("name", ["binary", "categorical"])
def test_loose_npz_loads_and_verifies(name):
    synopsis = load_synopsis(FIXTURES / f"{name}.npz", verify=True)
    _check(synopsis, _expected()[name])


@pytest.mark.parametrize("name", ["binary", "categorical"])
def test_store_version_loads_and_verifies(name, tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "store", root)
    synopsis = SynopsisStore(root, create=False).get(f"{name}@1", verify=True)
    _check(synopsis, _expected()[name])


@pytest.mark.parametrize("name", ["binary", "categorical"])
def test_resave_reproduces_parent_file(name, tmp_path):
    """The one writer gives back the parent's header and arrays."""
    original = FIXTURES / f"{name}.npz"
    copy = save_synopsis(load_synopsis(original), tmp_path / f"{name}.npz")
    with np.load(original) as before, np.load(copy) as after:
        assert str(after["header"]) == str(before["header"])
        assert sorted(after.files) == sorted(before.files)
        for key in before.files:
            assert np.array_equal(after[key], before[key])


def test_binary_views_carry_no_arities():
    synopsis = load_synopsis(FIXTURES / "binary.npz")
    assert all(getattr(v, "arities", None) is None for v in synopsis.views)


def _write_fixtures() -> None:  # pragma: no cover - provenance only
    from repro.categorical.dataset import CategoricalDataset
    from repro.categorical.priview import CategoricalPriView
    from repro.core.priview import PriView
    from repro.core.serialization import save_synopsis
    from repro.marginals.dataset import BinaryDataset
    from repro.marginals.domain import Domain

    synopses = {
        "binary": PriView(epsilon=1.0, view_width=4, seed=1).fit(
            BinaryDataset.random(500, 6, rng=np.random.default_rng(1))
        ),
        "categorical": CategoricalPriView(
            epsilon=1.0, max_cells=24, seed=2
        ).fit(CategoricalDataset.random(
            500, Domain.from_arities((3, 2, 4, 2)),
            rng=np.random.default_rng(2),
        )),
    }
    if FIXTURES.exists():
        shutil.rmtree(FIXTURES)
    store = SynopsisStore(FIXTURES / "store")
    expected = {}
    for name, synopsis in synopses.items():
        save_synopsis(synopsis, FIXTURES / f"{name}.npz")
        store.publish(name, synopsis)
        kind = "priview" if name == "binary" else "categorical"
        expected[name] = {
            "type": type(synopsis).__name__,
            "view_attrs": [list(v.attrs) for v in synopsis.views],
            "view_arities": [
                None if getattr(v, "arities", None) is None
                else [int(b) for b in v.arities]
                for v in synopsis.views
            ],
            "view_totals": [v.total() for v in synopsis.views],
            "payload_sha256": payload_digest(
                synopsis.views, synopsis.domain, kind
            ),
        }
    (FIXTURES / "expected.json").write_text(
        json.dumps(expected, indent=2) + "\n"
    )
    print(f"wrote {FIXTURES}")


if __name__ == "__main__":
    _write_fixtures()
