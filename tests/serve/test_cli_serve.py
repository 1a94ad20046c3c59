"""CLI coverage for the ``serve`` / ``query`` verbs."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.serialization import save_synopsis


@pytest.fixture
def synopsis_path(chain_synopsis, tmp_path):
    return save_synopsis(chain_synopsis, tmp_path / "synopsis.npz")


class TestQueryVerb:
    def test_local_query_human_output(self, synopsis_path, capsys):
        code = main(["query", "0,1", "--synopsis", str(synopsis_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "marginal (0, 1)" in out
        assert "path=covered" in out

    def test_local_query_json_output(self, synopsis_path, capsys):
        code = main(
            ["query", "0,4", "4,0", "--synopsis", str(synopsis_path), "--json"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert [p["attrs"] for p in payloads] == [[0, 4], [0, 4]]
        assert payloads[0]["path"] == "solved"
        # the duplicate came from the dedup'd batch path
        assert payloads[1]["cached"] is True

    def test_bad_attrs_exit(self, synopsis_path):
        with pytest.raises(SystemExit):
            main(["query", "0,x", "--synopsis", str(synopsis_path)])

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "0,1"])


class TestQueryAgainstServer:
    def test_query_url_round_trip(self, chain_synopsis, capsys):
        from repro.serve import MarginalServer, QueryEngine

        engine = QueryEngine(chain_synopsis)
        with MarginalServer(engine, port=0) as server:
            code = main(["query", "0,1", "--url", server.url, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["path"] == "covered"


class TestServeParser:
    def test_serve_args_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--synopsis", "s.npz", "--port", "0",
                "--cache-size", "64", "--workers", "2", "--timeout", "5",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.cache_size == 64

    @pytest.mark.parametrize("verb", [
        ["serve", "--synopsis", "s.npz"],
        ["store", "serve", "--store", "d"],
    ])
    @pytest.mark.parametrize("flag", ["--recon-method", "--method"])
    def test_recon_method_flag(self, verb, flag):
        args = build_parser().parse_args(verb + [flag, "residual"])
        assert args.method == "residual"
        # default stays None so the engine default (maxent) applies
        assert build_parser().parse_args(verb).method is None

    def test_recon_method_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--synopsis", "s.npz", "--recon-method", "nope"]
            )

    def test_query_recon_method_residual(self, synopsis_path, capsys):
        code = main([
            "query", "0,4", "--synopsis", str(synopsis_path),
            "--recon-method", "residual", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["path"] == "solved"
        assert payload["method"] == "residual"


class TestServeSynopsisMigration:
    """Every internal server entry point goes through ``serve_source``
    or ``serve_store`` and imports only names ``repro.serve`` has."""

    INTERNAL_CALLERS = (
        "src/repro/cli.py",
        "scripts/serve_smoke.py",
        "scripts/store_smoke.py",
    )

    def test_internal_callers_use_serve_source(self):
        import ast
        import pathlib

        import repro.serve

        root = pathlib.Path(__file__).resolve().parents[2]
        for relative in self.INTERNAL_CALLERS:
            path = root / relative
            source = path.read_text()
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.ImportFrom) and node.module == "repro.serve":
                    for alias in node.names:
                        assert hasattr(repro.serve, alias.name), (
                            f"{relative} imports {alias.name}, which "
                            "repro.serve does not have"
                        )
            assert "serve_source" in source or "serve_store" in source
