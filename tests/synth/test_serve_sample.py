"""The record-sampling path: engine, HTTP route, client, CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.priview import PriView
from repro.core.serialization import save_synopsis
from repro.exceptions import QueryError, RemoteQueryError
from repro.marginals.dataset import Dataset
from repro.marginals.domain import Attribute, Domain
from repro.marginals.table import MarginalTable
from repro.serve import MarginalServer, QueryClient
from repro.serve.engine import MAX_SAMPLE_RECORDS, QueryEngine


@pytest.fixture(scope="module")
def domain() -> Domain:
    return Domain((
        Attribute("age", 4, kind="numeric", bins=(0.0, 25, 45, 65, 100)),
        Attribute("job", 3, labels=("none", "blue", "white")),
        Attribute("flag", 2),
    ))


@pytest.fixture(scope="module")
def cat_synopsis(domain):
    ds = Dataset.random(6000, domain, rng=np.random.default_rng(1))
    return PriView(epsilon=2.0, seed=2).fit(ds)


class TestEngineSample:
    def test_cold_then_warm(self, cat_synopsis):
        with QueryEngine(cat_synopsis, dataset="t") as engine:
            first = engine.sample(32, seed=1)
            second = engine.sample(32, seed=1)
        assert first.cold and not second.cold
        np.testing.assert_array_equal(first.records, second.records)
        assert first.records.shape == (32, 3)
        assert first.epsilon == cat_synopsis.epsilon

    def test_population_is_deterministic_across_engines(self, cat_synopsis):
        with QueryEngine(cat_synopsis) as a, QueryEngine(cat_synopsis) as b:
            np.testing.assert_array_equal(
                a.sampler().records.data, b.sampler().records.data
            )

    def test_bounds(self, cat_synopsis):
        with QueryEngine(cat_synopsis) as engine:
            with pytest.raises(QueryError):
                engine.sample(0)
            with pytest.raises(QueryError):
                engine.sample(MAX_SAMPLE_RECORDS + 1)

    def test_mixed_source_marginal_via_engine(self, cat_synopsis):
        with QueryEngine(cat_synopsis) as engine:
            answer = engine.answer((0, 2))
        assert isinstance(answer.table, MarginalTable)
        assert answer.table.arities == (4, 2)

    def test_attached_engine_does_not_recurse(self, cat_synopsis):
        with QueryEngine(cat_synopsis) as engine:
            cat_synopsis.attach_engine(engine)
            try:
                table = cat_synopsis.marginal((0, 1))
            finally:
                cat_synopsis.attach_engine(None)
        assert table.arities == (4, 3)


class TestHttpSample:
    @pytest.fixture(scope="class")
    def server(self, cat_synopsis):
        engine = QueryEngine(cat_synopsis, dataset="mixed")
        with MarginalServer(engine=engine, port=0) as server:
            yield server

    @pytest.fixture(scope="class")
    def client(self, server):
        host, port = server.address
        with QueryClient(f"http://{host}:{port}") as client:
            yield client

    def test_sample_codes(self, client, domain):
        payload = client.sample(16, seed=3)
        assert payload["n"] == 16
        assert payload["attributes"] == list(domain.names)
        assert payload["arities"] == [4, 3, 2]
        assert len(payload["records"]) == 16
        assert not payload["decoded"]
        again = client.sample(16, seed=3)
        assert again["records"] == payload["records"]

    def test_sample_decoded(self, client):
        payload = client.sample(8, seed=3, decode=True)
        assert payload["decoded"]
        row = payload["records"][0]
        assert row[1] in ("none", "blue", "white")

    def test_marginal_decodes_categorical(self, client):
        table = client.marginal_table((0, 1))
        assert isinstance(table, MarginalTable)
        assert table.arities == (4, 3)

    def test_bad_request_rejected(self, client):
        with pytest.raises(RemoteQueryError):
            client.sample(0)
        with pytest.raises(RemoteQueryError):
            client.sample(MAX_SAMPLE_RECORDS + 1)


class TestCliSynth:
    def test_synth_from_file(self, cat_synopsis, tmp_path, capsys):
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")
        out = tmp_path / "synthetic.csv"
        code = cli_main([
            "synth", "--synopsis", str(path), "--out", str(out),
            "--records", "400", "--seed", "5", "--audit",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "synthesized 400 record(s)" in printed
        assert "status=exact" in printed
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "age,job,flag"
        assert len(lines) == 401

    @pytest.mark.parametrize("records", ["0", "-3"])
    def test_synth_rejects_population_below_one(
        self, cat_synopsis, tmp_path, capsys, records
    ):
        path = save_synopsis(cat_synopsis, tmp_path / "cat.npz")
        with pytest.raises(SystemExit) as exc:
            cli_main([
                "synth", "--synopsis", str(path), "--records", records,
            ])
        assert exc.value.code != 0
        assert "num_records must be >= 1" in str(exc.value.code)
        assert "synthesized" not in capsys.readouterr().out
