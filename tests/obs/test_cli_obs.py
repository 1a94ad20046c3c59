"""CLI observability: --trace output, --trace-out files, resilient run-all."""

from __future__ import annotations

import numpy as np
import pytest

from repro import cli
from repro.covering.repository import best_design
from repro.experiments import registry
from repro.marginals.dataset import Dataset
from repro.obs.exporters import read_jsonl


@pytest.fixture
def fake_experiments(monkeypatch):
    """Replace the registry with one cheap PriView run and one crasher."""
    from repro.core.priview import PriView

    def tiny(scale=None, seed: int = 0) -> str:
        rng = np.random.default_rng(seed)
        data = (rng.random((400, 6)) < 0.4).astype(np.uint8)
        dataset = Dataset(data, name="tiny")
        PriView(1.0, design=best_design(6, 4, 2), seed=seed).fit(dataset)
        return "== tiny: ok =="

    def boom(scale=None, seed: int = 0) -> str:
        raise RuntimeError("injected failure")

    monkeypatch.setattr(
        registry, "EXPERIMENTS", {"tiny": tiny, "boom": boom}
    )
    monkeypatch.setattr(cli, "EXPERIMENTS", registry.EXPERIMENTS)
    return registry.EXPERIMENTS


def test_trace_flag_prints_tree_and_audit(fake_experiments, capsys):
    assert cli.main(["run", "tiny", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "== tiny: ok ==" in out
    assert "stage timings" in out
    assert "priview.fit" in out
    assert "noisy_views" in out
    assert "privacy-budget ledger" in out
    assert "PriView.fit" in out
    assert "exact" in out and "MISMATCH" not in out


def test_trace_out_writes_jsonl(fake_experiments, tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert cli.main(["run", "tiny", "--trace-out", str(path)]) == 0
    out = capsys.readouterr().out
    # --trace-out alone records silently: no console tree
    assert "stage timings" not in out
    records = read_jsonl(path)
    assert any(r["type"] == "span" for r in records)
    summary = [r for r in records if r["type"] == "summary"][-1]
    assert summary["ledger"][0]["scope"] == "PriView.fit"
    assert summary["ledger"][0]["status"] == "exact"


def test_run_all_continues_past_failure(fake_experiments, capsys, caplog):
    code = cli.main(["run", "all"])
    captured = capsys.readouterr()
    assert code == 1  # non-zero because one experiment failed
    assert "== tiny: ok ==" in captured.out  # later experiment still ran
    assert "injected failure" not in captured.out  # failures go to the log
    messages = " ".join(r.getMessage() for r in caplog.records)
    assert "boom" in messages and "failed" in messages


def test_single_failing_experiment_still_raises(fake_experiments):
    with pytest.raises(RuntimeError, match="injected failure"):
        cli.main(["run", "boom"])


def test_run_single_without_trace_unchanged(fake_experiments, capsys):
    assert cli.main(["run", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "== tiny: ok ==" in out
    assert "stage timings" not in out
    assert "privacy-budget" not in out
