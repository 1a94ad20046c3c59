"""``repro.obs`` — tracing, metrics and privacy-budget accounting.

See ``docs/OBSERVABILITY.md`` for the full guide.  Quick tour::

    import repro.obs as obs
    from repro.obs.exporters import InMemoryExporter, render_summary

    with obs.session(exporters=[InMemoryExporter()]) as sess:
        synopsis = PriView(1.0, design=design, seed=0).fit(dataset)
        sess.ledger.check()          # every strict scope balanced exactly
        print(render_summary(sess))  # stage tree + counters + audit

With no active session every helper is a near-zero-cost no-op, so the
library is instrumented unconditionally.

The live telemetry plane adds: quantile histograms fed by spans that
name one, ``span(name, histogram=..., labels=...)``
(:mod:`repro.obs.metrics`), Prometheus text exposition
(:mod:`repro.obs.prometheus`, served at ``GET /metrics``), end-to-end
trace propagation (:mod:`repro.obs.propagation`) and periodic
JSON-lines metrics snapshots
(:class:`~repro.obs.exporters.MetricsSnapshotWriter`).
"""

from repro.obs.exporters import (
    InMemoryExporter,
    JsonLinesExporter,
    MetricsSnapshotWriter,
    flatten_stages,
    read_jsonl,
    read_metrics_snapshots,
    read_spans,
    render_summary,
)
from repro.obs.ledger import AuditRow, BudgetLedger, BudgetScope, DrawRecord
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.prometheus import (
    histogram_quantile,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.propagation import (
    REQUEST_ID_HEADER,
    TRACEPARENT_HEADER,
    TraceContext,
    current_context,
    new_context,
    parse_traceparent,
    sampled_context,
    trace_scope,
)
from repro.obs.session import (
    ObsSession,
    budget_scope,
    current,
    enabled,
    incr,
    incr_each,
    install,
    record_draw,
    session,
    set_gauge,
    span,
    uninstall,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "AuditRow",
    "BudgetLedger",
    "BudgetScope",
    "DrawRecord",
    "Histogram",
    "InMemoryExporter",
    "JsonLinesExporter",
    "MetricsRegistry",
    "MetricsSnapshotWriter",
    "ObsSession",
    "REQUEST_ID_HEADER",
    "Span",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "Tracer",
    "budget_scope",
    "configure_logging",
    "current",
    "current_context",
    "enabled",
    "flatten_stages",
    "get_logger",
    "histogram_quantile",
    "incr",
    "incr_each",
    "install",
    "new_context",
    "parse_prometheus",
    "parse_traceparent",
    "read_jsonl",
    "read_metrics_snapshots",
    "read_spans",
    "record_draw",
    "render_prometheus",
    "render_summary",
    "sampled_context",
    "session",
    "set_gauge",
    "span",
    "trace_scope",
    "uninstall",
]
