"""The observability session: one tracer + metrics + ledger bundle.

A process has at most one *active* session, installed with the
:func:`session` context manager (sessions nest; the previous one is
restored on exit).  All instrumentation in the library goes through
the module-level helpers below, whose disabled path is a single global
read — with no active session, ``span()`` returns a shared no-op
context manager (unless it names a histogram, see :func:`span`) and
``incr``/``record_draw`` return immediately, so the pipeline's cost
is unchanged (see ``scripts/check_obs_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.ledger import BudgetLedger, DrawRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer


class _NoopContext:
    """Shared do-nothing ``with`` target for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    # Make the no-op usable where a Span or BudgetScope is expected.
    def incr(self, name, value=1):
        pass


_NOOP = _NoopContext()


class ObsSession:
    """Bundles the tracer, metrics registry and budget ledger.

    Parameters
    ----------
    trace / metrics / ledger:
        Disable individual components by passing ``False``; the
        corresponding attribute is then ``None`` and its helpers
        degrade to no-ops.
    exporters:
        Objects exposing ``export_span(span)``, ``export_summary(dict)``
        and ``close()`` (see :mod:`repro.obs.exporters`).
    """

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        ledger: bool = True,
        exporters=(),
    ):
        self.tracer = Tracer() if trace else None
        self.metrics = MetricsRegistry() if metrics else None
        self.ledger = BudgetLedger() if ledger else None
        self.exporters = list(exporters)
        if self.tracer is not None:
            self.tracer._exporters = self.exporters

    def summary(self) -> dict:
        """JSON-serialisable end-of-session summary."""
        out: dict = {}
        if self.metrics is not None:
            out.update(self.metrics.snapshot())
        if self.ledger is not None:
            out["ledger"] = self.ledger.to_dicts()
            out["ledger_total_epsilon"] = self.ledger.total_spent()
            out["ledger_total_draws"] = self.ledger.total_draws()
        if self.tracer is not None:
            out["trace_roots"] = len(self.tracer.roots)
        return out

    def close(self) -> None:
        """Flush the final summary to every exporter and close them."""
        summary = self.summary()
        for exporter in self.exporters:
            exporter.export_summary(summary)
            exporter.close()


#: The process-wide active session (None = observability disabled).
_SESSION: ObsSession | None = None


def current() -> ObsSession | None:
    """The active session, or None when observability is disabled."""
    return _SESSION


def enabled() -> bool:
    """True when an observability session is active."""
    return _SESSION is not None


@contextmanager
def session(
    trace: bool = True,
    metrics: bool = True,
    ledger: bool = True,
    exporters=(),
):
    """Install an :class:`ObsSession` for the duration of the block."""
    global _SESSION
    previous = _SESSION
    sess = ObsSession(
        trace=trace, metrics=metrics, ledger=ledger, exporters=exporters
    )
    _SESSION = sess
    try:
        yield sess
    finally:
        _SESSION = previous
        sess.close()


def install(sess: ObsSession) -> ObsSession | None:
    """Install ``sess`` as the active session with no scope.

    For long-running processes (the HTTP server) where a ``with``
    block is impractical; returns the previous session so callers can
    :func:`uninstall` back to it.  Prefer :func:`session` everywhere
    a block works.
    """
    global _SESSION
    previous = _SESSION
    _SESSION = sess
    return previous


def uninstall(sess: ObsSession, previous: ObsSession | None = None) -> None:
    """Undo :func:`install` — only if ``sess`` is still the active one."""
    global _SESSION
    if _SESSION is sess:
        _SESSION = previous


# ----------------------------------------------------------------------
# Fast-path instrumentation helpers (the API the library calls)
# ----------------------------------------------------------------------
def span(name: str, histogram: str | None = None, labels=None):
    """A timed span context manager.

    Without ``histogram`` it is a no-op unless the session traces.
    With one, the span always times its block (read ``.duration``
    after it) and on exit observes the duration into that session
    histogram under ``labels`` (a dict, or a pre-sorted tuple of pairs
    on hot paths), even in a ``trace=False`` session.
    """
    sess = _SESSION
    if histogram is None:
        if sess is None or sess.tracer is None:
            return _NOOP
        return sess.tracer.span(name)
    if sess is None:
        return Span(name, histogram=histogram, labels=labels)
    return Span(name, sess.tracer, histogram, labels, sess.metrics)


def incr(name: str, value: float = 1) -> None:
    """Bump a session counter and the innermost open span's counter."""
    sess = _SESSION
    if sess is None:
        return
    if sess.metrics is not None:
        sess.metrics.incr(name, value)
    if sess.tracer is not None:
        sess.tracer.incr_current(name, value)


def incr_each(names, value: float = 1) -> None:
    """Bump several counters at once (one lock, one span lookup).

    Equivalent to ``for n in names: incr(n, value)`` but resolves the
    session, the metrics lock, and the innermost span a single time —
    the form hot paths with a fixed counter set should use.
    """
    sess = _SESSION
    if sess is None:
        return
    if sess.metrics is not None:
        sess.metrics.incr_each(names, value)
    if sess.tracer is not None:
        span = sess.tracer.current()
        if span is not None:
            for name in names:
                span.incr(name, value)


def set_gauge(name: str, value: float) -> None:
    """Record the latest value of a session gauge."""
    sess = _SESSION
    if sess is None or sess.metrics is None:
        return
    sess.metrics.set_gauge(name, value)


def record_draw(
    mechanism: str,
    *,
    epsilon: float,
    sensitivity: float,
    scale: float,
    draws: int,
    divide_by_sensitivity: bool = True,
    label: str = "",
) -> None:
    """Attribute one noise-primitive call to the active budget scope."""
    sess = _SESSION
    if sess is None or sess.ledger is None:
        return
    sess.ledger.record(
        DrawRecord(
            mechanism=mechanism,
            epsilon=epsilon,
            sensitivity=sensitivity,
            scale=scale,
            draws=draws,
            divide_by_sensitivity=divide_by_sensitivity,
            label=label,
        )
    )


def budget_scope(
    name: str,
    configured: float | None,
    strict: bool = True,
    composition: str = "sequential",
):
    """Open a ledger scope for one logical operation (no-op when disabled).

    ``composition="parallel"`` adopts scopes opened inside it as
    children and accounts them by max — parallel composition over
    disjoint inputs (see :mod:`repro.obs.ledger`).
    """
    sess = _SESSION
    if sess is None or sess.ledger is None:
        return _NOOP
    return sess.ledger.scope(
        name, configured, strict=strict, composition=composition
    )
