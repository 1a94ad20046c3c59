"""The benchmark's own tests (tiny inputs).

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from common import SpanRecorder, use_checkout_sources  # noqa: E402

use_checkout_sources()

import checks  # noqa: E402
import inputs  # noqa: E402
import publish_workload  # noqa: E402
import run as runner  # noqa: E402
import serve_workloads  # noqa: E402


def _run(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", runner.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    code, result = _run(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = runner.PER_LAYER if trace else runner.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_checkout_without_sources_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "publish",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_doctored_answer_is_caught_and_counted():
    job = serve_workloads.ServeRun(
        "serve-hot", 3, 1.0, False, serve_workloads.TINY["serve-hot"]
    )
    job.work.mkdir(parents=True, exist_ok=True)
    try:
        job.prepare()
        server = job.start_server()
        try:
            job.load(server)
        finally:
            server.stop()
        attempted, failed, _ = job.check()
        assert attempted > 1 and failed == 0

        exact = next(
            r for r in job.warm if r.index % job.size.exact_every == 0
        )
        exact.payload["counts"][0] += 1e-6  # same total within tolerance
        _, failed, problems = job.check()
        assert failed == 1
        assert "differs from the in-process engine" in problems[0]

        exact.payload["counts"][0] = -5.0
        exact.payload["total"] = float(np.sum(exact.payload["counts"]))
        _, failed, _ = job.check()
        assert failed == 1
    finally:
        import shutil

        shutil.rmtree(job.work, ignore_errors=True)


def test_reconstructed_answer_must_be_nonnegative_and_match_total():
    payload = {"attrs": [0, 1], "method": "maxent", "path": "solved",
               "counts": [5.0, -1.0, 3.0, 3.0], "total": 10.0}
    arities = (2, 2)
    assert "negative" in checks.answer_problem(payload, (0, 1), "maxent", arities, [10.0], False)
    assert checks.answer_problem(payload, (0, 1), "maxent", arities, [10.0], True) is None
    payload["counts"], payload["total"] = [5.0, 1.0, 3.0, 3.0], 12.0
    assert "matches no synopsis total" in checks.answer_problem(
        payload, (0, 1), "maxent", arities, [10.0], False
    )
    payload["counts"] = [5.0, 1.0, 3.0]
    assert "cells" in checks.answer_problem(payload, (0, 1), "maxent", arities, [9.0], False)


def test_doctored_event_count_is_caught_and_counted(tmp_path):
    size = publish_workload.TINY
    stream = inputs.event_stream(
        inputs.rng_for(3, 6), size.events, windows=size.windows,
        lateness_events=size.lateness_events,
    )
    cat = inputs.categorical_dataset(
        inputs.rng_for(3, 7), size.synth_records, inputs.SYNTH_ARITIES
    )
    clean = publish_workload.one_pass(stream, cat, tmp_path, traced=False)
    assert clean["problems"] == []
    released = dict(stream.window_records)
    assert checks.stream_problems(stream.num_events, released, stream.num_late, stream) == []
    assert checks.stream_problems(stream.num_events + 1, released, stream.num_late, stream)
    stream.window_records[min(released)] += 1  # one event too many expected
    doctored = publish_workload.one_pass(stream, cat, tmp_path, traced=False)
    assert len(doctored["problems"]) == 1  # the per-window counts


def test_same_seed_same_inputs_and_another_seed_changes_them():
    def draw(seed):
        design = inputs.binary_design()
        hot = inputs.hot_keys(inputs.rng_for(seed, 2), design, 64)
        cold = inputs.ColdStream(inputs.rng_for(seed, 3), design).ops(50)
        events = inputs.event_stream(inputs.rng_for(seed, 6), 5000, windows=2,
                                     lateness_events=50)
        data = inputs.binary_dataset(inputs.rng_for(seed, 1), 500).data
        return hot.keys, cold, events.items.tolist(), events.times.tolist(), data.tolist()

    assert draw(5) == draw(5)
    assert all(a != b for a, b in zip(draw(5), draw(6)))


def test_query_streams_keep_sources_solved():
    design = inputs.binary_design()
    hot = inputs.hot_keys(inputs.rng_for(1, 2), design, 512)
    masks = [inputs.mask_of(k) for k, c in zip(hot.keys, hot.covered) if not c]
    for y in masks:
        has_sub = any(x != y and x & y == x for x in masks)
        has_sup = any(z != y and z & y == y for z in masks)
        assert not (has_sub and has_sup)

    stream = inputs.ColdStream(inputs.rng_for(1, 3), design)
    sent: dict = {}
    for op in stream.ops(400):
        family = sent.setdefault((op.dataset, op.method), [])
        for attrs in op.queries:
            mask = inputs.mask_of(attrs)
            supersets = [m for m, _ in family if m & mask == mask]
            if op.kind == "subset":
                assert supersets and not any(d for m, d in family if m & mask == mask)
            elif op.kind != "categorical":
                assert not supersets
            family.append((mask, op.kind == "subset"))


def test_self_time_subtracts_children():
    rec = SpanRecorder()
    root = rec.add("a", 0.0, 10.0)
    rec.add("b", 1.0, 4.0, root)
    rec.add("b", 3.0, 6.0, root)
    assert rec.self_times() == {"a": 5.0, "b": 6.0}
