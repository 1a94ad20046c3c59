"""Spans that name a histogram: one timer feeds the tree and the metrics."""

from __future__ import annotations

import importlib
import time

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import _NOOP


@pytest.fixture
def no_session(monkeypatch):
    """No active session (the suite-wide one is shadowed)."""
    module = importlib.import_module("repro.obs.session")
    monkeypatch.setattr(module, "_SESSION", None)


def test_without_histogram_keeps_noop_fast_path(no_session):
    assert obs.span("x") is _NOOP
    with obs.session(trace=False):
        assert obs.span("x") is _NOOP


def test_no_session_times_and_records_nothing(no_session):
    with obs.span("work", "work_seconds", {"path": "a"}) as span:
        time.sleep(0.002)
    assert span.duration >= 0.002
    assert span._metrics is None and span._tracer is None


def test_untraced_session_records_labels_set_in_block():
    with obs.session(trace=False) as sess:
        with obs.span("work", "work_seconds", {"path": "error"}) as span:
            time.sleep(0.001)
            span.labels = {"path": "solved"}
        assert sess.tracer is None
        assert sess.metrics.observation("work_seconds", {"path": "error"}) is None
        solved = sess.metrics.observation("work_seconds", {"path": "solved"})
    assert solved["count"] == 1
    assert solved["sum"] == span.duration >= 0.001


def test_exception_exit_records_under_label_set_before_raise():
    with obs.session(trace=False) as sess:
        with pytest.raises(RuntimeError):
            with obs.span("work", "work_seconds", {"path": "ok"}) as span:
                span.labels = {"path": "error"}
                raise RuntimeError("boom")
        error = sess.metrics.observation("work_seconds", {"path": "error"})
        assert sess.metrics.observation("work_seconds", {"path": "ok"}) is None
    assert error["count"] == 1
    assert error["sum"] == span.duration


def test_clearing_histogram_in_block_records_nothing():
    with obs.session(trace=False) as sess:
        with obs.span("work", "work_seconds") as span:
            span.histogram = None
        assert sess.metrics.observation("work_seconds") is None
    assert span.duration > 0


def test_traced_span_nests_and_feeds_its_histogram():
    with obs.session() as sess:
        with obs.span("outer"):
            with obs.span("inner", "inner_seconds", (("k", "v"),)) as inner:
                pass
        [root] = sess.tracer.roots
        observed = sess.metrics.observation("inner_seconds", {"k": "v"})
    assert [c.name for c in root.children] == ["inner"]
    assert root.children[0] is inner
    assert observed["count"] == 1
    assert observed["sum"] == inner.duration


def test_observation_matches_histogram_fields():
    registry = MetricsRegistry()
    for value in (0.004, 0.001, 0.25):
        registry.observe("lat", value, {"path": "solved"})
    registry.observe("lat", 0.002, {"path": "covered"})
    for labels in (None, {"path": "solved"}):
        summary = registry.observation("lat", labels)
        hist = registry.histogram("lat", labels)
        assert summary == {
            "count": hist.count,
            "sum": hist.sum,
            "min": hist.min,
            "max": hist.max,
            "mean": hist.sum / hist.count,
        }
    assert registry.observation("lat")["count"] == 4
    assert registry.observation("lat", {"path": "missing"}) is None
