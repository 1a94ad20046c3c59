"""Span nesting, ordering, thread-safety and the disabled fast path."""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.obs.session import _NOOP


def test_span_nesting_and_ordering():
    with obs.session() as sess:
        with obs.span("outer"):
            with obs.span("first"):
                pass
            with obs.span("second"):
                with obs.span("inner"):
                    pass
        roots = sess.tracer.roots
    assert len(roots) == 1
    outer = roots[0]
    assert outer.name == "outer"
    assert [c.name for c in outer.children] == ["first", "second"]
    assert [c.name for c in outer.children[1].children] == ["inner"]
    assert [s.name for s in outer.walk()] == ["outer", "first", "second", "inner"]


def test_span_durations_are_positive_and_nested():
    with obs.session() as sess:
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.002)
    outer = sess.tracer.roots[0]
    inner = outer.children[0]
    assert inner.duration >= 0.002
    assert outer.duration >= inner.duration


def test_sibling_roots_accumulate():
    with obs.session() as sess:
        for name in ("a", "b", "a"):
            with obs.span(name):
                pass
    assert [r.name for r in sess.tracer.roots] == ["a", "b", "a"]


def test_span_survives_exceptions():
    with obs.session() as sess:
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
    assert [r.name for r in sess.tracer.roots] == ["boom"]
    assert sess.tracer.roots[0].duration >= 0


def test_counters_attach_to_current_span_and_registry():
    with obs.session() as sess:
        with obs.span("stage"):
            obs.incr("widgets", 2)
            obs.incr("widgets")
        obs.incr("loose")
    assert sess.metrics.counter("widgets") == 3
    assert sess.metrics.counter("loose") == 1
    assert sess.tracer.roots[0].counters == {"widgets": 3}
    assert sess.metrics.gauge("never-set") is None


def test_threads_trace_independently():
    errors = []

    def worker(tag: str):
        try:
            with obs.span(f"root-{tag}"):
                for i in range(50):
                    with obs.span(f"child-{tag}"):
                        pass
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    with obs.session() as sess:
        threads = [
            threading.Thread(target=worker, args=(str(i),)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors
    roots = sess.tracer.roots
    assert len(roots) == 4
    for root in roots:
        tag = root.name.split("-")[1]
        assert len(root.children) == 50
        assert all(c.name == f"child-{tag}" for c in root.children)


def test_disabled_mode_is_shared_noop():
    # No session in this block: the nested session fixture restores
    # None only for explicitly nested sessions, so simulate by checking
    # inside a fresh session=disabled configuration instead.
    with obs.session(trace=False, metrics=False, ledger=False):
        assert obs.span("a") is _NOOP
        assert obs.span("b") is obs.span("c")
        assert obs.budget_scope("x", 1.0) is _NOOP
        # all helpers are silent no-ops
        obs.incr("nothing")
        obs.set_gauge("nothing", 1.0)
        obs.record_draw(
            "laplace", epsilon=1.0, sensitivity=1.0, scale=1.0, draws=1
        )


def test_disabled_span_overhead_is_negligible():
    """200k disabled span() calls must stay well under a second."""
    with obs.session(trace=False, metrics=False, ledger=False):
        start = time.perf_counter()
        for _ in range(200_000):
            with obs.span("hot"):
                pass
        elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_root_cap_drops_overflow():
    with obs.session() as sess:
        sess.tracer.max_roots = 3
        for _ in range(5):
            with obs.span("s"):
                pass
    assert len(sess.tracer.roots) == 3
    assert sess.tracer.dropped_roots == 2


def test_leaf_spans_allocate_no_containers():
    """A span gets its children list and counters dict on first use,
    so a histogram-only or leaf span allocates neither."""
    timer = obs.span("timed", histogram="timed.seconds")
    with timer:
        pass
    assert timer.children == () and not timer.counters
    with obs.session() as sess:
        with obs.span("outer"):
            with obs.span("leaf"):
                pass
            obs.incr("hits")
        (outer,) = sess.tracer.roots
    assert [c.name for c in outer.children] == ["leaf"]
    assert outer.counters == {"hits": 1}
    leaf = outer.children[0]
    assert leaf.children == () and not leaf.counters
    assert leaf.to_dict() == {"name": "leaf", "duration": leaf.duration}
