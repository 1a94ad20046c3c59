"""Span-based tracing for the PriView pipeline.

A :class:`Span` measures one pipeline stage with ``perf_counter``;
spans nest, forming a tree per top-level operation (a ``PriView.fit``,
an experiment run).  The :class:`Tracer` keeps one span stack per
thread, so concurrent fits trace independently, and hands finished
root spans to the attached exporters.  A span that names a
``histogram`` also folds its duration into that latency histogram on
exit, so one timer feeds both the tree and the metrics.

When no observability session is active the module-level ``span()``
helper in :mod:`repro.obs.session` returns a shared no-op context
manager, so instrumented code pays a single global read plus an empty
``with`` block — nothing is allocated.  Spans that name a histogram
are the exception: they always time their block, so callers can read
:attr:`Span.duration` with or without a session.
"""

from __future__ import annotations

import threading
from time import perf_counter
from types import MappingProxyType

from repro.obs import propagation

#: what a span holds until its first child or counter arrives, so a
#: span that only feeds a histogram allocates neither container
_NO_CHILDREN: tuple = ()
_NO_COUNTERS = MappingProxyType({})


class Span:
    """One timed pipeline stage; also its own context manager.

    When a sampled :class:`~repro.obs.propagation.TraceContext` is
    installed on the opening thread (a served request, say), the span
    records its ``trace_id``, so every span a request triggers —
    across the server handler, the engine pool, the planner and the
    solver — carries the same id end to end.

    With a ``histogram`` name and a ``metrics`` registry, exit observes
    :attr:`duration` into that histogram under :attr:`labels` — also
    when the block raises.  The block may reassign :attr:`labels`
    before it exits, or set :attr:`histogram` to None to record
    nothing.
    """

    __slots__ = (
        "name", "start", "duration", "children", "counters", "trace_id",
        "histogram", "labels", "_tracer", "_metrics",
    )

    def __init__(
        self,
        name: str,
        tracer: "Tracer | None" = None,
        histogram: str | None = None,
        labels=None,
        metrics=None,
    ):
        self.name = name
        self.start = 0.0
        self.duration = 0.0
        self.children = _NO_CHILDREN
        self.counters = _NO_COUNTERS
        self.trace_id: str | None = None
        self.histogram = histogram
        self.labels = labels
        self._tracer = tracer
        self._metrics = metrics

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        if self._tracer is not None:
            context = propagation.current_context()
            if context is not None and context.sampled:
                self.trace_id = context.trace_id
            self._tracer._push(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = perf_counter() - self.start
        if self._metrics is not None and self.histogram is not None:
            self._metrics.observe(self.histogram, self.duration, self.labels)
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- bookkeeping ----------------------------------------------------
    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to this span's local counter ``name``."""
        if self.counters is _NO_COUNTERS:
            self.counters = {}
        self.counters[name] = self.counters.get(name, 0) + value

    def adopt(self, child: "Span") -> None:
        """Append ``child`` to this span's children."""
        if self.children is _NO_CHILDREN:
            self.children = []
        self.children.append(child)

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the JSON-lines exporter)."""
        out: dict = {"name": self.name, "duration": self.duration}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Inverse of :meth:`to_dict` (round-trips through JSON)."""
        span = cls(data["name"])
        span.duration = float(data["duration"])
        span.trace_id = data.get("trace_id")
        span.counters = dict(data.get("counters", {}))
        span.children = [cls.from_dict(c) for c in data.get("children", ())]
        return span

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration:.6f}s, children={len(self.children)})"


class Tracer:
    """Per-thread span stacks plus the finished root-span store.

    ``max_roots`` bounds memory for very long sessions (e.g. a whole
    test run); overflow roots are dropped and counted in
    :attr:`dropped_roots`.
    """

    def __init__(self, max_roots: int = 100_000):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self.dropped_roots = 0
        self._exporters: list = []

    # -- stack plumbing (called by Span) --------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].adopt(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate mispaired exits instead of corrupting the tree.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            while stack and stack.pop() is not span:
                pass
        if not stack:
            self._finish_root(span)

    def _finish_root(self, span: Span) -> None:
        with self._lock:
            if len(self.roots) < self.max_roots:
                self.roots.append(span)
            else:
                self.dropped_roots += 1
        for exporter in self._exporters:
            exporter.export_span(span)

    # -- public API -----------------------------------------------------
    def span(self, name: str) -> Span:
        """A new span attached to this tracer (use as ``with`` target)."""
        return Span(name, self)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def incr_current(self, name: str, value: float = 1) -> None:
        """Bump a counter on the innermost open span (no-op outside one)."""
        span = self.current()
        if span is not None:
            span.incr(name, value)
