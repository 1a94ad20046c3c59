"""Domain schemas through save/load and the synopsis store."""

import json

import numpy as np
import pytest

from repro.core.priview import PriView
from repro.core.serialization import load_synopsis, save_synopsis
from repro.core.synopsis import PriViewSynopsis
from repro.exceptions import SynopsisIntegrityError
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Attribute, Domain
from repro.store import SynopsisStore


@pytest.fixture(scope="module")
def domain() -> Domain:
    return Domain((
        Attribute("age", 4, kind="numeric", bins=(0.0, 25, 45, 65, 100)),
        Attribute("job", 3, labels=("none", "blue", "white")),
        Attribute("flag", 2),
        Attribute("kids", 4, kind="ordinal"),
    ))


@pytest.fixture(scope="module")
def cat_synopsis(domain) -> PriViewSynopsis:
    ds = Dataset.random(8000, domain, rng=np.random.default_rng(1))
    return PriView(epsilon=2.0, seed=2).fit(ds)


def _rewrite_header(path, mutate):
    """Re-save the .npz with a mutated header, arrays untouched."""
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(str(archive["header"]))
        arrays = {
            name: archive[name] for name in archive.files if name != "header"
        }
    mutate(header)
    np.savez_compressed(path, header=json.dumps(header), **arrays)


class TestCategoricalRoundTrip:
    def test_save_load_preserves_everything(self, cat_synopsis, tmp_path):
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")
        again = load_synopsis(path)
        assert isinstance(again, PriViewSynopsis)
        assert again.arities == cat_synopsis.arities
        assert again.domain == cat_synopsis.domain
        assert again.num_views == cat_synopsis.num_views
        for a, b in zip(again.views, cat_synopsis.views):
            assert a.attrs == b.attrs
            assert a.arities == b.arities
            np.testing.assert_array_equal(a.counts, b.counts)

    def test_reconstruction_survives_round_trip(self, cat_synopsis, tmp_path):
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")
        again = load_synopsis(path)
        target = cat_synopsis.views[0].attrs[:2]
        np.testing.assert_allclose(
            again.marginal(target).counts,
            cat_synopsis.marginal(target).counts,
        )

    def test_binary_synopsis_with_domain(self, tmp_path):
        dom = Domain.binary(6, names=tuple("abcdef"))
        ds = Dataset.random(4000, 6, rng=np.random.default_rng(0))
        ds.domain = dom
        synopsis = PriView(epsilon=1.0, seed=1).fit(ds)
        assert synopsis.domain is dom
        again = load_synopsis(save_synopsis(synopsis, tmp_path / "b.npz"))
        assert again.domain == dom

    def test_domainless_files_still_load(self, cat_synopsis, tmp_path):
        bare = PriViewSynopsis(
            views=cat_synopsis.views,
            arities=cat_synopsis.arities,
            epsilon=cat_synopsis.epsilon,
        )
        again = load_synopsis(save_synopsis(bare, tmp_path / "bare.npz"))
        assert again.domain is None


class TestTampering:
    def test_tampered_domain_fails_digest(self, cat_synopsis, tmp_path):
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")

        def mutate(header):
            # valid schema, silently different binning — the payload
            # digest covers the schema, so this must not load
            header["domain"]["attributes"][0]["bins"][1] = 30.0

        _rewrite_header(path, mutate)
        with pytest.raises(SynopsisIntegrityError):
            load_synopsis(path)

    def test_undecodable_domain_schema_raises(self, cat_synopsis, tmp_path):
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")
        _rewrite_header(
            path, lambda header: header.update(domain={"garbage": 1})
        )
        with pytest.raises(SynopsisIntegrityError):
            load_synopsis(path)

    def test_unknown_kind_raises(self, cat_synopsis, tmp_path):
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")
        _rewrite_header(path, lambda header: header.update(kind="exotic"))
        with pytest.raises(SynopsisIntegrityError):
            load_synopsis(path)


class TestStoreIntegration:
    def test_publish_and_load_categorical(self, cat_synopsis, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")
        info = store.publish("mixed", path)
        assert info.domain is not None
        assert [a["name"] for a in info.domain["attributes"]] == [
            "age", "job", "flag", "kids",
        ]
        again = store.get("mixed")
        assert isinstance(again, PriViewSynopsis)
        assert again.domain == cat_synopsis.domain

    def test_manifest_domain_round_trips(self, cat_synopsis, tmp_path):
        store = SynopsisStore(tmp_path / "store")
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")
        store.publish("mixed", path)
        reopened = SynopsisStore(tmp_path / "store", create=False)
        info = reopened.resolve("mixed")
        assert Domain.from_json(info.domain) == cat_synopsis.domain
