"""Mechanism / MarginalSource protocol conformance.

Everything that claims to be a mechanism (PriView, every baseline)
must satisfy the structural protocols in ``repro.baselines.base``, so
experiment drivers and ``repro.serve`` host them interchangeably
without isinstance special-cases.
"""

import numpy as np
import pytest

from repro import MarginalSource, Mechanism, PriView
from repro.baselines import (
    DataCubeMethod,
    DirectMethod,
    FlatMethod,
    FourierLPMethod,
    FourierMethod,
    LearningMethod,
    MatrixMechanism,
    MWEMMethod,
    UniformMethod,
)
from repro.exceptions import ReconstructionError
from repro.kernels import PackedDataset
from repro.serve import PATH_SOLVED, QueryEngine, serve_source


def _mechanisms():
    return [
        PriView(1.0, seed=0),
        UniformMethod(1.0),
        FlatMethod(1.0, seed=0),
        DirectMethod(1.0, k=2, seed=0),
        FourierMethod(1.0, k_max=2, seed=0),
        FourierLPMethod(1.0, k_max=2, seed=0),
        MWEMMethod(1.0, k=2, seed=0),
        MatrixMechanism(1.0, k=2, seed=0),
        LearningMethod(1.0, k=2, seed=0),
        DataCubeMethod(1.0, k=2, seed=0),
    ]


class TestMechanismProtocol:
    @pytest.mark.parametrize(
        "mechanism", _mechanisms(), ids=lambda m: type(m).__name__
    )
    def test_conforms(self, mechanism):
        assert isinstance(mechanism, Mechanism)
        assert isinstance(mechanism.name, str) and mechanism.name
        assert mechanism.epsilon == 1.0

    def test_fit_returns_marginal_source(self, tiny_dataset):
        for mechanism in [UniformMethod(1.0), PriView(1.0, seed=0)]:
            fitted = mechanism.fit(tiny_dataset)
            assert isinstance(fitted, MarginalSource)
            table = fitted.marginal((0, 1))
            assert table.attrs == (0, 1)

    def test_datasets_are_marginal_sources(self, tiny_dataset):
        assert isinstance(tiny_dataset, MarginalSource)
        assert isinstance(
            PackedDataset.from_dataset(tiny_dataset), MarginalSource
        )

    def test_public_shape_properties(self, tiny_dataset):
        mechanism = UniformMethod(1.0)
        with pytest.raises(ReconstructionError):
            mechanism.num_attributes
        mechanism.fit(tiny_dataset)
        assert mechanism.num_attributes == tiny_dataset.num_attributes
        assert mechanism.num_records == tiny_dataset.num_records
        assert mechanism.fitted


class TestServeAnyMechanism:
    def test_engine_hosts_fitted_baseline(self, tiny_dataset):
        mechanism = UniformMethod(1.0).fit(tiny_dataset)
        with QueryEngine(mechanism) as engine:
            answer = engine.answer((0, 2))
            assert answer.path == PATH_SOLVED
            np.testing.assert_allclose(
                answer.table.counts, mechanism.marginal((0, 2)).counts
            )
            again = engine.answer((2, 0))
            assert again.cached
            stats = engine.stats()
        assert stats["synopsis"]["name"] == mechanism.name
        assert stats["synopsis"]["views"] == 0
        assert "index_cache" in stats["kernels"]

    def test_server_hosts_fitted_baseline(self, tiny_dataset):
        mechanism = UniformMethod(1.0).fit(tiny_dataset)
        with serve_source(mechanism, port=0) as server:
            import json
            import urllib.request

            with urllib.request.urlopen(
                f"{server.url}/healthz", timeout=10
            ) as response:
                payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["design"] is None
        assert payload["num_attributes"] == tiny_dataset.num_attributes
